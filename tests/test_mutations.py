"""The mutation registry (tools/mutations.py) stays applicable.

Running the registry takes a pytest run per mutation; this only checks
that each entry still names code that exists, so an entry goes stale
loudly, here, when the code it mutates moves. tools/mutations.py imports
only the standard library, so it is loaded by file path.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_registry():
    spec = importlib.util.spec_from_file_location("mutations", ROOT / "tools" / "mutations.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTATIONS


def test_every_mutation_applies_to_exactly_one_place():
    mutations = load_registry()
    assert len({mutation[0] for mutation in mutations}) == len(mutations) > 0
    for name, path, old, new, tests in mutations:
        assert (ROOT / path).read_text().count(old) == 1, name
        assert old != new and tests, name
        assert all((ROOT / test.split("::")[0]).is_file() for test in tests), name
