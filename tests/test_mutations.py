"""The mutation registry (tools/mutations.py) stays applicable.

Running the registry takes a pytest run per mutation; this only checks
that each entry still names code and tests that exist, so an entry goes
stale loudly, here, when the code it mutates moves or a test it names is
renamed. tools/mutations.py imports only the standard library, so it is
loaded by file path.
"""

import ast
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
        for test in tests:
            test_file, function = test.split("::")
            tree = ast.parse((ROOT / test_file).read_text())
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert function.split("[")[0] in defined, (name, test)
