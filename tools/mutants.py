"""Mutation checks: each mutant in ``MUTANTS`` must make every one of its tests fail.

Run from the root of a source checkout; standard library only, plus the
test suite's own requirements (numpy, pytest):

    python3 tools/mutants.py

A mutant replaces one exact text in one file.  For each mutant the tree is
copied to a temporary directory, the text is replaced there, and only the
mutant's pytest node ids run on the copy.  The mutant is killed when every
one of them fails (a failure or an error); it survives when any of them
passes.  An old text that is not found exactly once marks the mutant stale:
the code it mutated has changed, and its entry must be rewritten or
dropped.  Before any mutant runs, the named tests run once on an unmutated
copy and must all pass.  The exit status is 0 when every mutant is killed,
else 1.

A change that claims a mutation check adds its mutants here; changing a
mutant's tests is a test change like any other.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".bench_out", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the checkout
    old: str  # found exactly once in ``file``
    new: str
    tests: tuple[str, ...]  # pytest node ids that must all fail


LINALG = "src/liemarkov/linalg.py"
MUTANTS = (
    # the fast paths of the elimination kernel, linalg._eliminate
    Mutant(
        "minus-one-multiplier-subtracts",
        LINALG,
        "work[r] = list(map(operator.add, row, prow))",
        "work[r] = list(map(operator.sub, row, prow))",
        (
            "tests/test_linalg.py::test_rref_int_and_fraction_paths_agree",
            "tests/test_linalg.py::test_rref_dense_random_integer_matrices",
        ),
    ),
    Mutant(
        "minus-one-pivot-row-unnegated",
        LINALG,
        "work[i] = [-x for x in work[i]]",
        "work[i] = [x for x in work[i]]",
        (
            "tests/test_linalg.py::test_rref_int_and_fraction_paths_agree",
            "tests/test_modelgen.py::test_model_orbit_int_kernel_matches_reference_on_candidate_rows",
        ),
    ),
    Mutant(
        "pivot-scan-skipped-one-rank-early",
        LINALG,
        "        if rank < n:\n",
        "        if rank < n - 1:\n",
        (
            "tests/test_linalg.py::test_rref_pivots_normalized",
            "tests/test_linalg.py::test_rref_dense_random_integer_matrices",
        ),
    ),
    Mutant(
        "full-rank-break-before-bound-decided",
        LINALG,
        "        elif rank == n:\n",
        "        if rank == n:\n",
        (
            "tests/test_linalg.py::test_rref_integral_bound_cuts_exactly_the_greater_row0",
            "tests/test_linalg.py::test_rref_integral_bound_under_negative_and_non_dividing_pivots",
            "tests/test_modelgen.py::test_model_orbit_int_kernel_matches_reference_on_candidate_rows",
            "tests/test_modelgen.py::test_model_orbit_eliminations_on_golden_spans",
        ),
    ),
)


def junit_name(node_id: str) -> tuple[str, str]:
    """The (classname, name) of a node id in pytest's JUnit XML report."""
    path, *scopes, name = node_id.split("::")
    return ".".join([path.removesuffix(".py").replace("/", "."), *scopes]), name


def run_tests(tree: Path, tests: tuple[str, ...]) -> dict[str, str]:
    """Run ``tests`` in ``tree``: each node id's outcome, passed, failed or skipped; missing if it did not run."""
    report = tree / "junit.xml"
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *tests]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    outcomes = {}
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            kinds = {child.tag for child in case}
            outcome = "failed" if kinds & {"failure", "error"} else "skipped" if "skipped" in kinds else "passed"
            outcomes[case.get("classname"), case.get("name")] = outcome
        report.unlink()
    return {t: outcomes.get(junit_name(t), "missing") for t in tests}


def copy_tree(dest: Path) -> Path:
    tree = dest / "tree"
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    return tree


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = copy_tree(Path(tmp))
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        broken = {t: o for t, o in run_tests(tree, tests).items() if o != "passed"}
    if broken:
        for t, o in broken.items():
            print(f"BASELINE {o}: {t}")
        print("the named tests must pass on the unmutated tree; no mutant was run")
        return 1

    bad = 0
    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            tree = copy_tree(Path(tmp))
            path = tree / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"STALE    {m.name}: old text found {text.count(m.old)} times in {m.file}")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            alive = {t: o for t, o in run_tests(tree, m.tests).items() if o != "failed"}
        if alive:
            print(f"SURVIVED {m.name}: " + ", ".join(f"{t} {o}" for t, o in alive.items()))
            bad += 1
        else:
            print(f"killed   {m.name}: {len(m.tests)} tests failed")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
