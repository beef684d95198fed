"""Self-test of the oracles: hand-checked cases and planted wrong answers.

    python3 bench/selftest.py

Needs numpy, not bcinv.  Every benchmark run also calls ``self_test`` and
reports itself incorrect if any case fails.  The planted answers go through
the same ``check`` functions the workloads use, one or more per workload.
"""

from __future__ import annotations

import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles as O
import workloads as W

HALF = Fraction(1, 2)


class InverseAbsent(Exception):
    """Stands in for bcinv.InverseAbsent; checks match errors by class name."""


def _cases():
    a = np.diag([2.0, 3.0])
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = 0.5 * e11

    # Hand cases.
    yield "5^-(4,4) = 2 in Z6", O.zn_bc_inverse(6, 5, 4, 4) == 2
    yield "diag(2,3) with frame E11 gives E11/2 (R)", (
        O.close(O.float_bc_inverse(a, e11, e11), y, 1e-12)
        and O.float_is_bc_inverse(a, e11, e11, y))
    qa, qe = O.to_exact([[2, 0], [0, 3]], None), O.to_exact([[1, 0], [0, 0]], None)
    yield "diag(2,3) with frame E11 gives E11/2 (Q)", (
        O.exact_bc_inverse(qa, qe, qe) == [[HALF, 0], [0, 0]])
    measured, bound = O.bound_pair(a, e11, e11, y, 0.1)
    yield "bound pair at lambda = 0.1", (
        abs(measured - (0.5 - 1 / 2.1)) < 1e-14 and abs(bound - 0.0375 / 0.925) < 1e-14
        and O.bound_holds(measured, bound, 0.1, a, e11))
    yield "exit-1 case has no inverse", not O.float_exists(swap, e11, e11)

    # exact-algebra: planted wrong answers go to the workload's checks.
    zn = W._zn_op(6, 5, 4, 4, 2)
    yield "exact: Zn right answer passes", zn.check((2, True), None)
    yield "exact: Zn wrong inverse rejected", not zn.check((3, True), None)
    yield "exact: Zn false InverseAbsent rejected", not zn.check(None, InverseAbsent())
    q = W._matrix_op("Q:2", None, [[2, 0], [0, 3]], [[1, 0], [0, 0]], [[1, 0], [0, 0]], None)
    yield "exact: Q right answer passes", q.check((np.array([[HALF, 0], [0, 0]], dtype=object), True), None)
    yield "exact: Q wrong inverse rejected", not q.check((np.array([[1, 0], [0, 0]], dtype=object), True), None)
    m = W._matrix_op("MFp:5:2", None, [[2, 0], [0, 3]], [[1, 0], [0, 0]], [[1, 0], [0, 0]], 5)
    yield "exact: MFp right answer passes", m.check((np.array([[3, 0], [0, 0]]), True), None)
    yield "exact: MFp wrong inverse rejected", not m.check((np.array([[2, 0], [0, 0]]), True), None)
    yield "exact: MFp false InverseAbsent rejected", not m.check(None, InverseAbsent())
    lab = W._lab_op(None, "Zn:6", "sets")
    good = {"certified": True, "counterexample_count": 0, "examined": 36, "space": 36}
    yield "exact: lab right report passes", lab.check(good, None)
    yield "exact: lab short sweep rejected", not lab.check(dict(good, examined=35, space=35), None)

    # float-analytic.
    op = W._float_op(2, "A", a, e11, e11, y, [0.1])
    right = {"y": y, "verdict": True, "v": e11, "p": e11, "limit": y, "series": y, "integral": y,
             "bounds": [(0.1, 0.5 - 1 / 2.1, 0.0375 / 0.925)]}
    yield "float: right answer passes", op.check(right, None)
    yield "float: wrong inverse rejected", not op.check(dict(right, y=0.6 * e11), None)
    yield "float: measured above the bound rejected", not op.check(
        dict(right, bounds=[(0.1, 0.05, 0.04)]), None)
    yield "float: diverging representation rejected", not op.check(dict(right, series=0.5001 * e11), None)

    # cli-jobs: planted reports go to the jobs' report checks.
    with tempfile.TemporaryDirectory() as tmp:
        jobs = W.cli_jobs(0, Path(tmp), Path(tmp), False)
    by_kind = {op.kind: op.check_report for op in jobs.ops + jobs.warmup}
    z6 = {"status": 0, "outputs": {"inverse": 2}}
    yield "cli: Z6 hand case passes", by_kind["cli:warmup"](z6)
    yield "cli: Z6 wrong inverse rejected", not by_kind["cli:warmup"]({"status": 0, "outputs": {"inverse": 3}})
    exit1 = {"status": 1, "diagnostic": {"error": "InverseAbsent"}}
    yield "cli: exit-1 case passes", by_kind["cli:compute/exit-1"](exit1)
    yield "cli: exit-1 case reported as success rejected", not by_kind["cli:compute/exit-1"](
        {"status": 0, "outputs": {}})
    cont = {"status": 0, "outputs": {"classification": "divergent"}}
    yield "cli: unbounded family diverges", by_kind["cli:continuity/unbounded"](cont)
    yield "cli: wrong continuity class rejected", not by_kind["cli:continuity/bounded"](cont)
    lab_report = {"status": 0, "outputs": {"certified": True, "counterexample_count": 0,
                                           "examined": 256, "space": 256}}
    yield "cli: lab report passes", by_kind["cli:lab/MFp:2:2/sets"](lab_report)
    yield "cli: uncertified lab report rejected", not by_kind["cli:lab/MFp:2:2/sets"](
        {"status": 0, "outputs": dict(lab_report["outputs"], certified=False)})


def self_test() -> list[str]:
    """Names of the cases that failed; empty when the oracles are sound."""
    failures = []
    try:
        for name, ok in _cases():
            if not ok:
                failures.append(name)
    except Exception as exc:        # a crashing check is a failing check
        failures.append(f"self-test raised {exc!r}")
    return failures


if __name__ == "__main__":
    failed = self_test()
    for name in failed:
        print(f"FAIL {name}")
    print("oracle self-test:", "FAIL" if failed else "PASS")
    sys.exit(1 if failed else 0)
