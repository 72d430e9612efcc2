"""Run each registered mutation of src/graphsi against the tests that must
catch it, and print one line per mutation: killed, survived or stale.

A mutation is (id, file, old snippet, new snippet, tests). It is stale
when the old snippet does not occur exactly once in its file (the code
moved and the entry needs rewriting) or pytest cannot run the named
tests (exit code above 1). For each mutation, src,
tests, demo and pyproject.toml (the test settings) are copied to a fresh
temporary directory, the one replacement is made there, and only the
named tests run, with `-p no:cacheprovider`. Killed: a named test failed.
Survived: they all passed. The named tests first run once on an
unmutated copy, where they must pass, so a kill is the mutation's doing.
Nothing is written into the repository. Run from anywhere:

    python tools/mutations.py

It exits 0 only if every mutation is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demo", "pyproject.toml")

# The exact branch of GraphInteractionExplainer.fit, which one mutation keeps as it is
EXACT_FIT = ("            mi, si = graphshapiq_exact(game, hoods, k, index=self.index, "
             "ceiling=self.ceiling)\n            self.interaction_set_size_ = mi.call_count\n")
# The bit-for-bit test of convert_tables' pass over the surrogates
SURROGATE_TEST = ("tests/test_instances.py::"
                  "test_truncated_row_runs_add_the_surrogates_as_the_subset_loop_does")

# (id, file under the repository root, old snippet, new snippet, tests that must fail)
MUTATIONS = (
    ("ball-layers-keep-rows", "src/graphsi/nn.py",
     "h = _conv_stack(after, adj, a_hat, h, keep[1:])",
     "h = _conv_stack(after, adj, a_hat, h, keep[:-1])",
     ("tests/test_game.py::test_middle_layers_compute_only_the_rows_the_next_layer_reads",)),
    ("row-bias-dropped", "src/graphsi/game.py",
     '* {"sum": self.n_players, "mean": 1}[model.pooling])  # n (b_L . w)',
     '* 0 * {"sum": self.n_players, "mean": 1}[model.pooling])  # n (b_L . w)',
     ("tests/test_game.py::test_node_tables_match_the_dense_game[3-kinds2-mean-tree]",
      "tests/test_instances.py::test_row_tables_match_the_dense_route")),
    ("capped-pass-adds", "src/graphsi/game.py",
     "row[at] -= row[partners]",
     "row[at] += row[partners]",
     ("tests/test_game.py::test_a_capped_table_is_its_balls_moebius_transform",
      "tests/test_game.py::test_a_truncated_run_on_a_64_node_ball_matches_the_dense_route")),
    ("capped-pass-short", "src/graphsi/game.py",
     "for t in range(cap):",
     "for t in range(cap - 1):",
     ("tests/test_game.py::test_a_capped_table_is_its_balls_moebius_transform",
      "tests/test_game.py::test_a_truncated_run_on_a_64_node_ball_matches_the_dense_route")),
    ("normalize-ignored", "src/graphsi/game.py",
     "sums[0] = 0.0 if self.normalize else sums[0] + bias",
     "sums[0] = sums[0] + bias",
     ("tests/test_game.py::test_node_tables_write_nothing_into_the_game[True]",)),
    ("row-game-without-relu", "src/graphsi/nn.py",
     "    np.maximum(h, 0.0, out=h)  # a row game: (balls, B, d) @ (balls, d, 1)\n",
     "",
     ("tests/test_game.py::test_node_tables_match_the_dense_game[6-kinds5-mean-er]",
      "tests/test_game.py::test_trimmed_ball_forward_matches_the_untrimmed_stack"
      "[6-kinds5-mean-er]")),
    ("size-sort-unstable", "src/graphsi/game.py",
     'order = np.argsort(np.bitwise_count(keys), kind="stable")',
     "order = np.argsort(np.bitwise_count(keys))",
     ("tests/test_game.py::test_node_tables_match_the_dense_game[1-kinds0-sum-er]",
      "tests/test_moebius.py::test_a_truncated_run_builds_one_pair_index_per_butterfly",
      "tests/test_instances.py::test_truncated_runs_from_capped_tables_match_the_dense_route")),
    ("capped-supersets-fancy-add", "src/graphsi/convert.py",
     "v += np.bincount(into, weights=v[:, at].ravel(), minlength=v.size).reshape(v.shape)",
     "v.ravel()[into] += v[:, at].ravel()",
     ("tests/test_convert.py::test_capped_superset_sums_match_a_brute_force_sum",)),
    ("route-nodes-rows-swapped", "src/graphsi/moebius.py",
     'return "nodes" if _table_hops(game.model) == game.model.num_layers else "rows"',
     'return "rows" if _table_hops(game.model) == game.model.num_layers else "nodes"',
     ("tests/test_game.py::test_each_case_takes_its_route[star14-nodes-convert_tables]",
      "tests/test_game.py::test_each_case_takes_its_route[er48-rows-convert_tables]")),
    ("route-sums-butterfly-swapped", "src/graphsi/moebius.py",
     'return "sums"\n    if not (isinstance(game, GraphGame) and hoods.ell == game.model.num_layers):'
     '\n        return "butterfly"',
     'return "butterfly"\n    if not (isinstance(game, GraphGame) and hoods.ell == game.model.num_layers):'
     '\n        return "sums"',
     ("tests/test_game.py::test_each_case_takes_its_route[path4-sums-convert_mi]",
      "tests/test_game.py::test_each_case_takes_its_route[er8-ell2-butterfly-convert_mi]")),
    ("surrogates-pairwise-sum", "src/graphsi/moebius.py",
     "found[i] = value - float(np.cumsum(found[:i][inside])[-1])",
     "found[i] = value - float(np.sum(found[:i][inside]))",
     ("tests/test_moebius.py::test_surrogates_match_a_running_sum",)),
    ("index-checked-at-conversion", "src/graphsi/moebius.py",
     "weight = convert._index_weight(index, k, n)",
     "weight = convert._WEIGHTS.get(index)",  # the checks left to convert_mi, after evaluating
     ("tests/test_moebius.py::test_bad_arguments_are_refused_before_any_evaluation",)),
    ("budget-before-arguments", "src/graphsi/moebius.py",
     "    weight = convert._index_weight(index, k, n)\n    if lam is None:\n"
     '        check_budget(hoods, None, ceiling, getattr(game, "graph", None))\n',
     '    if lam is None:\n        check_budget(hoods, None, ceiling, getattr(game, "graph", None))\n'
     "    weight = convert._index_weight(index, k, n)\n",
     ("tests/test_moebius.py::test_refusals_come_in_order_before_any_evaluation",)),
    ("count-admits-bools", "src/graphsi/errors.py",
     "if isinstance(value, int) and not isinstance(value, bool) and value >= 1:",
     "if isinstance(value, int) and value >= 1:",
     ("tests/test_moebius.py::test_bad_arguments_are_refused_before_any_evaluation"
      "[k=True-path4-sums]",
      "tests/test_moebius.py::test_bad_arguments_are_refused_before_any_evaluation"
      "[lambda=True-path4-sums]")),
    ("mi-passthrough-before-order-check", "src/graphsi/convert.py",
     "    weight = _index_weight(index, k, mi.n)\n    if weight is None:\n        return mi\n",
     '    if index == "mi":\n        return mi\n    weight = _index_weight(index, k, mi.n)\n',
     ("tests/test_convert.py::test_convert_dispatch_validation",)),
    ("explainer-order-after-the-budget", "src/graphsi/explainer.py",
     "        _index_weight(self.index, k, g.n)  # exit 2 before the readout's 4 and the budget's 3\n"
     "        if self.lam is None:\n" + EXACT_FIT + "        else:\n"
     "            check_budget(hoods, self.lam, self.ceiling)\n",
     "        if self.lam is None:\n" + EXACT_FIT + "        else:\n"
     "            check_budget(hoods, self.lam, self.ceiling)\n"
     "            _index_weight(self.index, k, g.n)\n",
     ("tests/test_cli.py::test_a_bad_order_is_refused_before_the_budget_and_the_readout",)),
    ("butterfly-bits-descending", "src/graphsi/moebius.py",
     "    for rows, partners in pair_index(keys):\n        m[rows] -= m[partners]",
     "    for rows, partners in reversed(list(pair_index(keys))):\n        m[rows] -= m[partners]",
     ("tests/test_moebius.py::test_overlapping_fields_agree_bit_for_bit",
      "tests/test_moebius.py::test_brute_force_mi_is_one_field")),
    ("pair-index-no-absent-partner", "src/graphsi/coalitions.py",
     "yield order[rows], np.where(keys[at] == wanted, order[at], absent)",
     "yield order[rows], order[at]",
     ("tests/test_coalitions.py::test_pair_index_matches_a_set_oracle_on_drawn_families",
      "tests/test_convert.py::test_gapped_sets_take_the_loop[ksii]")),
    ("conversion-subset-sum", "src/graphsi/convert.py",
     "            column[partners] += column[rows]",
     "            column[rows] += column[partners]",
     ("tests/test_convert.py::test_conversions_match_definition_oracles",
      "tests/test_convert.py::test_exact_pipeline_is_efficient")),
    ("surrogate-shares-buffered", "src/graphsi/convert.py",
     "np.add.at(total, at, (found[:, None] * weights)[take])",
     "total[at] += (found[:, None] * weights)[take]",  # a repeated position adds once
     (SURROGATE_TEST,)),
    ("surrogate-padding-kept", "src/graphsi/convert.py",
     "take = (held.max(axis=1) < h[:, None]) & (weights != 0.0)",
     "take = weights != 0.0",
     (SURROGATE_TEST,)),
    ("surrogate-block-offset", "src/graphsi/convert.py",
     "at[block] = bounds[s - 1] + np.searchsorted(",
     "at[block] = bounds[s - 1] + 1 + np.searchsorted(",
     (SURROGATE_TEST,)),
)


def _copy(into: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, into / name)


def _pytest(where: Path, tests) -> int:
    """Exit code of pytest on the tests, run in where on its own copy of src."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=where, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(mutation) -> str:
    """killed, survived or stale for one registered mutation."""
    _, path, old, new, tests = mutation
    source = (ROOT / path).read_text()
    if source.count(old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        _copy(where)
        (where / path).write_text(source.replace(old, new))
        code = _pytest(where, tests)
    return {0: "survived", 1: "killed"}.get(code, "stale")


def main() -> int:
    start = time.perf_counter()
    named = sorted({test for *_, tests in MUTATIONS for test in tests})
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        if _pytest(Path(tmp), named) != 0:
            print("the named tests fail on the unmutated code")
            return 1
    outcomes = []
    for mutation in MUTATIONS:
        outcomes.append(run(mutation))
        print(f"{outcomes[-1]:9} {mutation[0]}", flush=True)
    print(f"{outcomes.count('killed')} of {len(MUTATIONS)} killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 0 if outcomes.count("killed") == len(MUTATIONS) else 1


if __name__ == "__main__":
    sys.exit(main())
