"""Seeded inputs and the operations of the three workloads.

A workload is one round of operations, built once from the seed and run
again and again in the same interleaved order, so that every run attempts
whole rounds of the same operations.  Each operation has

* ``run``: the program's part, the only thing timed;
* ``check``: an untimed verdict on what ``run`` returned or raised, made
  by the oracles in ``oracles.py``;
* ``known_fault``: set on the fixed, seed-independent inputs that hit a
  known program fault.  They fail in every round until the fault is fixed.

The program is reached only through bcinv's public API (``bcinv.<name>``
looked up at call time, so that a traced run sees its wrappers) or, in
``cli-jobs``, through a fresh ``bcinv`` command-line process.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as O

BENCH_DIR = Path(__file__).resolve().parent

Q_FAULT = "Q-int64-fraction"
MFP_FAULT = "MFp-int64-matmul"


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], bool]
    known_fault: str | None = None
    tuples: int = 0                 # lab tuple-space size swept by the operation
    trace_file: Path | None = None  # where a traced CLI job writes its spans
    check_report: Callable[[dict], bool] | None = None


@dataclass
class Workload:
    ops: list[Op]           # one round, interleaved
    warmup: list[Op]        # untimed, before the first timed operation
    in_process: bool


def _raised(err, name: str) -> bool:
    return err is not None and type(err).__name__ == name


def _rng(seed: int, stream: int) -> np.random.Generator:
    # SeedSequence takes non-negative entries; other seeds map onto them.
    return np.random.default_rng([seed % 2 ** 63, stream])


def _interleave(ops: list[Op], seed: int) -> list[Op]:
    order = list(ops)
    random.Random(seed).shuffle(order)
    return order


# ---------------------------------------------------------------------------
# Instance generators (plain numbers; no bcinv)
# ---------------------------------------------------------------------------


def _prime_powers(n: int) -> list[tuple[int, int]]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            q = 1
            while n % d == 0:
                n //= d
                q *= d
            out.append((d, q))
        d += 1
    if n > 1:
        out.append((n, n))
    return out


def _crt(residues: list[int], moduli: list[int]) -> int:
    n = 1
    for q in moduli:
        n *= q
    return sum(r * (n // q) * pow(n // q, -1, q) for r, q in zip(residues, moduli)) % n


def zn_instance(rng, n: int, present: bool) -> tuple[int, int, int, int | None]:
    """(a, b, c, y) with regular b, c; y exists exactly when ``present``.

    In each prime-power factor the inverse exists iff b = c = 0 there, or
    a, b and c are all units there.
    """
    comps = _prime_powers(n)

    def unit(p, q):
        while True:
            x = int(rng.integers(1, q))
            if x % p:
                return x

    while True:
        units = [bool(rng.integers(2)) for _ in comps]
        if not any(units):
            continue
        a, b, c = [], [], []
        for (p, q), is_unit in zip(comps, units):
            if is_unit:
                a.append(unit(p, q)), b.append(unit(p, q)), c.append(unit(p, q))
            else:
                a.append(int(rng.integers(q))), b.append(0), c.append(0)
        if not present:
            i = random.Random(int(rng.integers(1 << 30))).choice(
                [j for j, u in enumerate(units) if u])
            p, q = comps[i]
            a[i] = p * int(rng.integers(q // p))
        moduli = [q for _, q in comps]
        a, b, c = (_crt(r, moduli) for r in (a, b, c))
        y = O.zn_bc_inverse(n, a, b, c)
        if (y is not None) == present:
            return a, b, c, y


def _rank_r(rng, k: int, r: int, lo: int, hi: int, p: int | None) -> np.ndarray:
    while True:
        m = rng.integers(lo, hi + 1, (k, r)) @ rng.integers(lo, hi + 1, (r, k))
        if p:
            m %= p
        if O.rank(O.to_exact(m, p), p) == r:
            return m


def mfp_instance(rng, p: int, k: int, r: int, present: bool):
    while True:
        b = _rank_r(rng, k, r, 0, p - 1, p)
        c = _rank_r(rng, k, r, 0, p - 1, p)
        a = rng.integers(0, p, (k, k))
        if O.exact_exists(*(O.to_exact(m, p) for m in (a, b, c)), p) == present:
            return a, b, c


def q_instance(rng, k: int, bound: int, r: int, present: bool):
    """Integer-array instance; ``absent`` ones use a of rank below rank(b)."""
    while True:
        b = _rank_r(rng, k, r, -bound, bound, None)
        c = _rank_r(rng, k, r, -bound, bound, None)
        if present:
            a = rng.integers(-bound, bound + 1, (k, k))
        else:
            a = rng.integers(-bound, bound + 1, (k, r - 1)) @ rng.integers(-bound, bound + 1, (r - 1, k))
        if O.exact_exists(*(O.to_exact(m, None) for m in (a, b, c))) == present:
            return a, b, c


def _orthonormal(rng, k: int, r: int) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((k, r)))[0]


LAMBDA_FRACTIONS = (0.05, 0.25, 0.5, 0.75, 0.95)


def float_instance(rng, k: int, kind: str):
    """Well-conditioned R:k instance with b = c (so any carrier v equals b).

    kind "A": every nonzero eigenvalue of a*b has positive real part and
    the series contracts, so all three representations are admissible.
    kind "B": the nonzero spectrum has real parts of both signs, so only
    the limit representation applies.  g = b^+ is passed explicitly, which
    fixes p = b g and with it the admissible radius of the bound.
    """
    r = k // 2
    while True:
        X = _orthonormal(rng, k, r)
        Y = X if kind == "A" else _orthonormal(rng, k, r)
        s = rng.uniform(1.0, 2.0, r)
        b = X @ np.diag(s) @ Y.T
        scale = rng.uniform(0.5, 2.0)
        if kind == "A":
            a = scale * (np.eye(k) + 0.2 * rng.standard_normal((k, k)) / np.sqrt(k))
        else:
            # Set the compression Y^T a X so that the nonzero spectrum of
            # a*b is real, of both signs, and bounded away from zero.
            signs = np.where(np.arange(r) % 2 == 0, 1.0, -1.0)
            R = _orthonormal(rng, r, r)
            core = np.diag(1.0 / s) @ R @ np.diag(signs * rng.uniform(0.7, 1.4, r)) @ R.T
            a0 = rng.standard_normal((k, k)) / np.sqrt(k)
            a = scale * (a0 + Y @ (core - Y.T @ a0 @ X) @ X.T)
        core = np.linalg.svd(Y.T @ a @ X, compute_uv=False)
        if core[-1] < 0.2 * core[0]:
            continue
        y = O.float_bc_inverse(a, b, b)
        if y is None:
            continue
        spec = O.nonzero_spectrum(a @ b)
        top = float(np.max(np.abs(spec)))
        if kind == "A":
            if spec.real.min() < 0.05 * top or O.series_contraction(a, b) > 0.85:
                continue
        elif spec.real.min() > -0.05 * top or spec.real.max() < 0.05 * top:
            continue
        g = np.linalg.pinv(b)
        radius = O.admissible_radius(a, b, b @ g, y)
        lams = [f * radius for f in LAMBDA_FRACTIONS]
        eigs = np.linalg.eigvals(a @ b)
        if all(np.all(np.abs(lam + eigs) > 1e-6 * (1.0 + np.abs(eigs))) for lam in lams):
            return a, b, g, y, lams


def _idempotent(rng, k: int, r: int, field) -> np.ndarray:
    """S D S^{-1} with D = diag(1 x r, 0 x (k-r)) over F_p, Q or R."""
    D = np.diag([1] * r + [0] * (k - r))
    if field == "R":
        S = rng.standard_normal((k, k)) + k * np.eye(k)
        return S @ D @ np.linalg.inv(S)
    p = field if isinstance(field, int) else None
    while True:
        S = O.to_exact(rng.integers(-2, 3, (k, k)), p)
        if O.rank(S, p) == k:
            break
    Sinv = [row[k:] for row in O.rref([row + e for row, e in zip(S, O.identity(k, p))], p)[0]]
    return np.array(O.mmul_all(S, O.to_exact(D, p), Sinv, p=p), dtype=object)


# ---------------------------------------------------------------------------
# exact-algebra
# ---------------------------------------------------------------------------

# Sizes are chosen so that most operations cost between about 5 and 150 ms
# today: a mix whose costs span orders of magnitude gives a median that
# jumps between clusters from run to run.  Ranks are fixed per slot because
# they set the cost of elimination; the seed draws the entries.
ZN_MODULI = (1001, 1155, 1365, 2310, 3003)
# (p, k, rank)
MFP_SLOTS = ((3, 2, 1), (2, 3, 2), (5, 2, 1))
LAB_CASES = (("Zn:6", "rol"), ("Zn:8", "rol"), ("Zn:9", "equivalences"), ("Zn:9", "sets"),
             ("Zn:12", "equivalences"), ("Zn:12", "sets"), ("MFp:2:2", "equivalences"),
             ("MFp:2:2", "sets"), ("MFp:2:2", "bottduffin"), ("MFp:2:2", "rol"))
# (k, entry bound, rank, inverse present).  Entry bounds keep the seeded
# instances clear of the Q fault (see README); the fixed instance below hits it.
Q_SLOTS = ((3, 3, 2, True), (4, 3, 2, True), (5, 2, 2, True), (6, 2, 2, True),
           (3, 3, 2, False), (4, 3, 2, False))

# Fixed inputs that hit the two known faults (see README): a Q:6 integer
# array instance whose int64 numerators overflow in elimination (false
# InverseAbsent), and an MFp instance with p = 2^31 - 1 where int64 matrix
# products wrap (false InverseAbsent).  The inverse exists in both.
Q_FAULT_INSTANCE = (
    [[3, 1, -1, -2, -3, -1], [-1, 2, -1, 0, -3, -1], [1, 2, -2, 3, 2, 0],
      [0, 0, -3, 2, 0, -3], [0, -1, 2, 1, -1, 3], [-2, 1, -1, 1, 2, 3]],
    [[0, -1, 3, 1, -1, 0], [-1, 0, 0, 0, 0, 3], [-3, 0, 1, -1, 0, -3],
      [-1, -2, -1, -3, -2, 0], [3, -1, -3, 2, -1, 2], [0, 0, 1, -1, 0, 2]],
    [[-1, 3, 2, 1, 3, 2], [-3, -3, -2, 3, -3, -2], [0, 1, 0, 1, 3, -2],
      [1, -2, 0, 2, 2, 3], [0, -1, 0, -3, -2, 2], [-3, 0, 0, 1, 1, 0]],
)
BIG_P = 2 ** 31 - 1
MFP_FAULT_INSTANCE = (
    [[1175270500, 611725961, 10576053, 649027408],
      [1023771845, 41487473, 1525403790, 1809188878],
      [2046843120, 1926091108, 1824826627, 1111541696],
      [661480228, 1364525423, 84929248, 1278448018]],
    [[743476228, 1383767193, 1721765545, 929555725],
      [166359933, 1953668860, 2082312934, 2000363715],
      [1317965980, 677950192, 1579597651, 1865604657],
      [612552449, 2133259584, 2136224787, 897552760]],
    [[655983189, 602106820, 94314623, 215071086],
      [365242511, 971495952, 1425743214, 1885471733],
      [876151169, 2028308056, 1599380720, 1914090850],
      [1173312737, 1353263783, 1496598312, 2123765146]],
)

LAB_SUITES = {
    "equivalences": "verify_equivalence_suite",
    "sets": "verify_set_decomposition",
    "bottduffin": "verify_bott_duffin_section",
    "rol": "verify_reverse_order",
}


def _ring_literal(ring) -> str:
    return f"Zn:{ring.n}" if ring.kind == "Zn" else f"MFp:{ring.p}:{ring.k}"


def _zn_op(n, a, b, c, y) -> Op:
    def run():
        import bcinv

        ring = bcinv.RingDescriptor.modular(n)
        frame = bcinv.CornerFrame.make(ring.element(b), ring.element(c))
        x = ring.element(a)
        inv = bcinv.bc_inverse(x, frame)
        return int(inv.payload), bcinv.verify_bc_inverse(x, frame, inv).verdict

    def check(out, err):
        if y is None:
            return _raised(err, "InverseAbsent")
        return err is None and out == (y, True)

    return Op(f"Zn:{n}/{'present' if y is not None else 'absent'}", run, check)


def _matrix_op(kind: str, make_ring, a, b, c, p, fault=None) -> Op:
    """Frame with canonical inner inverses, default-route inverse, certificate."""
    A, B, C = (O.to_exact(m, p) for m in (a, b, c))
    exists = O.exact_exists(A, B, C, p)

    def run():
        import bcinv

        ring = make_ring()
        frame = bcinv.CornerFrame.make(ring.element(b), ring.element(c))
        x = ring.element(a)
        inv = bcinv.bc_inverse(x, frame)
        return inv.payload, bcinv.verify_bc_inverse(x, frame, inv).verdict

    def check(out, err):
        if not exists:
            return _raised(err, "InverseAbsent")
        if err is not None:
            return False
        y, verdict = out
        return verdict is True and O.exact_is_bc_inverse(A, B, C, O.to_exact(y, p), p)

    return Op(f"{kind}/{'present' if exists else 'absent'}", run, check, fault)


def _lab_op(ring, literal: str, suite: str) -> Op:
    def run():
        import bcinv

        return getattr(bcinv, LAB_SUITES[suite])(ring).to_dict()

    def check(out, err):
        return err is None and O.lab_report_ok(literal, suite, out)

    return Op(f"lab:{literal}/{suite}", run, check, tuples=O.lab_space(literal, suite))


def exact_algebra(seed: int) -> Workload:
    import bcinv

    rng = _rng(seed, 1)
    rings = {_ring_literal(ring): ring for ring in bcinv.DEFAULT_RINGS}
    ops = [_lab_op(rings[literal], literal, suite) for literal, suite in LAB_CASES]
    for n in ZN_MODULI:
        for present in (True, False):
            ops.append(_zn_op(n, *zn_instance(rng, n, present)))
    for p, k, r in MFP_SLOTS:
        for present in (True, False):
            a, b, c = mfp_instance(rng, p, k, r, present)
            ops.append(_matrix_op(f"MFp:{p}:{k}", lambda p=p, k=k:
                                  bcinv.RingDescriptor.matrices_over_prime(p, k), a, b, c, p))
    for k, bound, r, present in Q_SLOTS:
        a, b, c = q_instance(rng, k, bound, r, present)
        ops.append(_matrix_op(f"Q:{k}", lambda k=k: bcinv.RingDescriptor.rational_matrices(k),
                              a, b, c, None))
    ops.append(_matrix_op("Q:6-fixed", lambda: bcinv.RingDescriptor.rational_matrices(6),
                          *(np.array(m, dtype=np.int64) for m in Q_FAULT_INSTANCE), None, Q_FAULT))
    ops.append(_matrix_op(f"MFp:{BIG_P}:4-fixed",
                          lambda: bcinv.RingDescriptor.matrices_over_prime(BIG_P, 4),
                          *(np.array(m, dtype=np.int64) for m in MFP_FAULT_INSTANCE), BIG_P,
                          MFP_FAULT))
    warm_kinds = ("Zn:1001/present", "MFp:3:2/present", "Q:3/present", "lab:Zn:9/sets")
    warmup = [next(op for op in ops if op.kind == kind) for kind in warm_kinds]
    return Workload(_interleave(ops, seed), warmup, True)


# ---------------------------------------------------------------------------
# float-analytic
# ---------------------------------------------------------------------------

FLOAT_SIZES = (4, 6, 8, 12, 16, 24, 32)


def _float_op(k: int, kind: str, a, b, g, y, lams) -> Op:
    def run():
        import bcinv

        ring = bcinv.RingDescriptor.float_matrices(k)
        x, bb, gg = ring.element(a), ring.element(b), ring.element(g)
        frame = bcinv.CornerFrame.make(bb, bb, gg, gg)
        inv = bcinv.bc_inverse(x, frame)
        verdict = bcinv.verify_bc_inverse(x, frame, inv).verdict
        v = bcinv.build_v(frame)
        reports = [bcinv.perturbation_bound(x, v, frame, lam) for lam in lams]
        out = {"y": inv.payload, "verdict": verdict, "v": v.payload, "p": frame.p.payload,
               "bounds": [(rep.lam, rep.measured, rep.bound) for rep in reports],
               "limit": bcinv.limit_representation(x, v).payload}
        if kind == "A":
            beta = bcinv.choose_beta(x, v)
            out["series"] = bcinv.series_representation(x, v, beta).payload
            out["integral"] = bcinv.integral_representation(x, v).payload
        return out

    def check(out, err):
        if err is not None or out["verdict"] is not True:
            return False
        if not (O.float_is_bc_inverse(a, b, b, out["y"]) and O.is_carrier(out["v"], b, b)
                and O.close(out["p"], b @ g, O.FLOAT_EQ_TOL)):
            return False
        for lam, (got_lam, measured, bound) in zip(lams, out["bounds"]):
            want_measured, want_bound = O.bound_pair(a, out["v"], out["p"], y, lam)
            if not (got_lam == lam and O.bound_holds(want_measured, want_bound, lam, a, out["v"])
                    and abs(measured - want_measured) <= 1e-6 * want_measured + 1e-12
                    and abs(bound - want_bound) <= 1e-6 * want_bound):
                return False
        reps = ("limit", "series", "integral") if kind == "A" else ("limit",)
        return len(out["bounds"]) == len(lams) and all(
            O.close(out[name], y, O.REPRESENTATION_TOL) for name in reps)

    return Op(f"R:{k}/{kind}", run, check)


def float_analytic(seed: int) -> Workload:
    rng = _rng(seed, 2)
    ops = [_float_op(k, kind, *float_instance(rng, k, kind))
           for k in FLOAT_SIZES for kind in "AB"]
    warmup = [_float_op(4, kind, *float_instance(_rng(seed, 3), 4, kind))
              for kind in "AB"]
    return Workload(_interleave(ops, seed), warmup, True)


# ---------------------------------------------------------------------------
# cli-jobs
# ---------------------------------------------------------------------------

# What the console script `bcinv` runs.
CLI_LAUNCH = "import sys; from bcinv.cli import main; sys.exit(main())"


def _literal(m, backend: str) -> str:
    if backend == "Zn":
        return str(int(m))
    if backend == "MFp":
        return json.dumps([[int(v) for v in row] for row in np.asarray(m, dtype=object).tolist()])
    if backend == "Q":
        return json.dumps([[str(Fraction(v)) for v in row] for row in np.asarray(m, dtype=object).tolist()])
    return json.dumps(np.asarray(m, dtype=float).tolist())


def _exact_value(report_value, backend: str, p):
    if backend == "Zn":
        return int(report_value)
    if backend == "Q":
        return [[Fraction(v) for v in row] for row in report_value]
    return O.to_exact(report_value, p)


class _Jobs:
    """Builds CLI jobs; each job writes its report to its own file."""

    def __init__(self, root: Path, report_dir: Path, traced: bool):
        self.root, self.report_dir, self.traced = root, report_dir, traced
        self.count = 0

    def op(self, kind: str, args: list[str], check_report, tuples: int = 0) -> Op:
        self.count += 1
        report = self.report_dir / f"job{self.count:02d}.json"
        trace = self.report_dir / f"job{self.count:02d}.trace.json"
        launcher = ([sys.executable, str(BENCH_DIR / "cli_job.py"), str(trace)] if self.traced
                    else [sys.executable, "-c", CLI_LAUNCH])
        cmd = launcher + args + ["--report", str(report)]

        def run():
            report.unlink(missing_ok=True)
            return subprocess.run(cmd, cwd=self.root, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode

        def check(out, err):
            if err is not None or not report.is_file():
                return False
            data = json.loads(report.read_text())
            return out == data.get("status") and check_report(data)

        return Op(f"cli:{kind}", run, check, trace_file=trace, check_report=check_report,
                  tuples=tuples)


def _zn_rol(rng, n: int):
    idem = [e for e in range(n) if (e * e - e) % n == 0 and e not in (0, 1)]
    while True:
        p1, q1, p2 = (idem[int(rng.integers(len(idem)))] for _ in range(3))
        a1, a2 = (int(rng.integers(n)) for _ in range(2))
        y1, y2 = O.zn_bc_inverse(n, a1, p1, q1), O.zn_bc_inverse(n, a2, p2, p1)
        if y1 is not None and y2 is not None:
            return a1, a2, p1, q1, p2


def _matrix_rol(rng, k: int, field, law: bool):
    """Idempotent frames (P1, Q1) and (P2, P1); law=True zeroes the obstruction."""
    p = field if isinstance(field, int) else None
    r = max(1, k // 2)
    while True:
        P1, Q1, P2 = (_idempotent(rng, k, r, field) for _ in range(3))
        if field == "R":
            a1, m, m2 = (rng.standard_normal((k, k)) for _ in range(3))
            I = np.eye(k)
            a2 = P1 @ m @ P2 + (I - P1) @ m2 @ (I - P2) if law else m
            if (O.float_exists(a1, P1, Q1) and O.float_exists(a2, P2, P1)):
                return a1, a2, P1, Q1, P2
            continue
        a1, m, m2 = (O.to_exact(rng.integers(-2, 3, (k, k)), p) for _ in range(3))
        E = [O.to_exact(M, p) for M in (P1, Q1, P2)]
        if law:
            I = O.identity(k, p)
            a2 = O.madd(O.mmul_all(E[0], m, E[2], p=p),
                        O.mmul_all(O.msub(I, E[0], p), m2, O.msub(I, E[2], p), p=p), p)
        else:
            a2 = m
        if O.exact_exists(a1, E[0], E[1], p) and O.exact_exists(a2, E[2], E[0], p):
            return a1, a2, E[0], E[1], E[2]


def _rol_expectation(backend, a1, a2, P1, Q1, P2, p=None):
    """(condition, law, obstruction, product inverse) from the oracles."""
    if backend == "Zn":
        n = p
        obstruction = (Q1 * a1 * (1 - P1) * a2 * P2) % n
        y1, y2 = O.zn_bc_inverse(n, a1, P1, Q1), O.zn_bc_inverse(n, a2, P2, P1)
        yp = O.zn_bc_inverse(n, a1 * a2 % n, P2, Q1)
        return obstruction == 0, yp is not None and yp == (y2 * y1) % n, obstruction, yp
    if backend == "R":
        I = np.eye(len(a1))
        obstruction = Q1 @ a1 @ (I - P1) @ a2 @ P2
        y1, y2 = O.float_bc_inverse(a1, P1, Q1), O.float_bc_inverse(a2, P2, P1)
        yp = O.float_bc_inverse(a1 @ a2, P2, Q1)
        condition = O.close(obstruction, 0 * obstruction, 1e-9)
        return condition, yp is not None and O.close(yp, y2 @ y1, 1e-8), obstruction, yp
    I = O.identity(len(a1), p)
    obstruction = O.mmul_all(Q1, a1, O.msub(I, P1, p), a2, P2, p=p)
    y1, y2 = O.exact_bc_inverse(a1, P1, Q1, p), O.exact_bc_inverse(a2, P2, P1, p)
    yp = O.exact_bc_inverse(O.mmul(a1, a2, p), P2, Q1, p)
    zero = all(v == 0 for row in obstruction for v in row)
    return zero, yp is not None and yp == O.mmul(y2, y1, p), obstruction, yp


def cli_jobs(seed: int, root: Path, report_dir: Path, traced: bool) -> Workload:
    rng = _rng(seed, 0)
    jobs = _Jobs(root, report_dir, traced)
    ops = []

    # compute and verify on all four backends
    n = 60
    fa, fb, *_ = float_instance(rng, 4, "B")
    cases = (("Zn", f"Zn:{n}", *zn_instance(rng, n, True)[:3], None),
             ("MFp", "MFp:3:2", *mfp_instance(rng, 3, 2, 1, True), 3),
             ("Q", "Q:3", *q_instance(rng, 3, 3, 2, True), None),
             ("R", "R:4", fa, fb, fb, None))
    for backend, ring, a, b, c, p in cases:
        lits = ["--ring", ring] + [x for name, m in (("a", a), ("b", b), ("c", c))
                                   for x in (f"--{name}", _literal(m, backend))]
        if backend == "R":
            want = O.float_bc_inverse(a, b, c)

            def ok_inverse(value, a=a, b=b, c=c):
                return O.float_is_bc_inverse(a, b, c, value)
        elif backend == "Zn":
            want = O.zn_bc_inverse(n, a, b, c)

            def ok_inverse(value, want=want):
                return int(value) == want
        else:
            A, B, C = (O.to_exact(m, p) for m in (a, b, c))
            want = O.exact_bc_inverse(A, B, C, p)

            def ok_inverse(value, A=A, B=B, C=C, backend=backend, p=p):
                return O.exact_is_bc_inverse(A, B, C, _exact_value(value, backend, p), p)

        ops.append(jobs.op(f"compute/{backend}", ["compute"] + lits,
                           lambda d, ok=ok_inverse: d["status"] == 0
                           and d["verdicts"]["certified"] is True and ok(d["outputs"]["inverse"])))
        y_lit = _literal(want if backend != "Q" else np.array(want, dtype=object), backend)
        ops.append(jobs.op(f"verify/{backend}", ["verify"] + lits + ["--y", y_lit],
                           lambda d: d["status"] == 0 and d["verdicts"]["certified"] is True))
        if backend in ("Zn", "Q"):
            # A wrong candidate: the documented exit 1 of a refuted property.
            if backend == "Zn":
                wrong = (want + 1) % n
                refuted = wrong != want
            else:
                wrong = [row[:] for row in want]
                wrong[0][0] += 1
                refuted = not O.exact_is_bc_inverse(A, B, C, wrong)
            ops.append(jobs.op(f"verify-refuted/{backend}",
                               ["verify"] + lits + ["--y", _literal(
                                   wrong if backend == "Zn" else np.array(wrong, dtype=object), backend)],
                               lambda d, refuted=refuted: refuted and d["status"] == 1
                               and d["verdicts"]["certified"] is False))

    # reverse-order law on all four backends, with idempotent frames
    rol_cases = [("Zn", "Zn:30", *_zn_rol(rng, 30), 30),
                 ("MFp", "MFp:3:2", *_matrix_rol(rng, 2, 3, False), 3),
                 ("Q", "Q:3", *_matrix_rol(rng, 3, "Q", True), None),
                 ("R", "R:3", *_matrix_rol(rng, 3, "R", True), None)]
    for backend, ring, a1, a2, P1, Q1, P2, p in rol_cases:
        cond, law, obstruction, yp = _rol_expectation(backend, a1, a2, P1, Q1, P2, p)
        args = ["rol", "--ring", ring]
        for name, m in (("a", a1), ("a2", a2), ("b", P1), ("g", P1), ("c", Q1), ("h", Q1),
                        ("b2", P2), ("g2", P2), ("c2", P1), ("h2", P1)):
            args += [f"--{name}", _literal(np.array(m, dtype=object) if backend in ("Q", "MFp")
                                           else m, backend)]

        def rol_ok(d, backend=backend, cond=cond, law=law, obstruction=obstruction, yp=yp, p=p):
            out = d["outputs"]
            if not (d["status"] == 0 and out["condition"] == cond and out["law_holds"] == law
                    and d["verdicts"]["equivalence"] is True):
                return False
            got_yp = out["product_inverse"]
            if backend == "R":
                return (O.close(out["obstruction"], obstruction, 1e-8)
                        and ((yp is None) == (got_yp is None))
                        and (yp is None or O.close(got_yp, yp, 1e-8)))
            if (yp is None) != (got_yp is None):
                return False
            return (_exact_value(out["obstruction"], backend, p) == obstruction
                    and (yp is None or _exact_value(got_yp, backend, p) == yp))

        ops.append(jobs.op(f"rol/{backend}", args, rol_ok))

    # exhaustive lab suites on small rings
    for literal, ring, suite in (("M2F2", "MFp:2:2", "sets"), ("Z12", "Zn:12", "bottduffin"),
                                 ("Z6", "Zn:6", "equivalences")):
        ops.append(jobs.op(f"lab/{ring}/{suite}", ["lab", "--ring", literal, "--suite", suite],
                           lambda d, ring=ring, suite=suite: d["status"] == 0
                           and O.lab_report_ok(ring, suite, d["outputs"]),
                           tuples=O.lab_space(ring, suite)))

    # banach: limit with the bound at lambda0, and the series
    a, b, g, y, lams = float_instance(rng, 4, "A")
    lam = lams[2]
    frame_args = ["--ring", "R:4", "--a", _literal(a, "R"), "--b", _literal(b, "R"),
                  "--c", _literal(b, "R"), "--g", _literal(g, "R"), "--h", _literal(g, "R")]

    def limit_ok(d):
        out = d["outputs"]
        measured, bound = O.bound_pair(a, b, b @ g, y, lam)
        got = out["bound"]
        return (d["status"] == 0 and all(d["verdicts"].values())
                and O.close(out["representation"], y, O.REPRESENTATION_TOL)
                and O.bound_holds(measured, bound, lam, a, b)
                and abs(got["measured"] - measured) <= 1e-6 * measured + 1e-12
                and abs(got["bound"] - bound) <= 1e-6 * bound)

    ops.append(jobs.op("banach/limit", ["banach", "--method", "limit", "--lambda0", repr(lam)]
                       + frame_args, limit_ok))
    for method in ("series", "integral"):
        ops.append(jobs.op(f"banach/{method}", ["banach", "--method", method] + frame_args,
                           lambda d: d["status"] == 0 and d["verdicts"]["agrees"] is True
                           and O.close(d["outputs"]["representation"], y, O.REPRESENTATION_TOL)))

    for family in ("bounded", "unbounded", "constant"):
        ops.append(jobs.op(f"continuity/{family}",
                           ["continuity", "--family", family, "--count", "200"],
                           lambda d, family=family: d["status"] == 0
                           and d["outputs"]["classification"] == O.CONTINUITY_CLASS[family]))

    # The documented exit-1 case: corner-rank deficiency on R:2.
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    absent = not O.float_exists(swap, e11, e11)
    ops.append(jobs.op("compute/exit-1",
                       ["compute", "--ring", "R:2", "--a", "[[0,1],[1,0]]", "--b", "E11", "--c", "E11"],
                       lambda d: absent and d["status"] == 1
                       and d.get("diagnostic", {}).get("error") == "InverseAbsent"))

    warmup = [jobs.op("warmup", ["compute", "--ring", "Z6", "--a", "5", "--b", "4", "--c", "4"],
                      lambda d: d["status"] == 0 and d["outputs"]["inverse"] == O.zn_bc_inverse(6, 5, 4, 4))]
    return Workload(_interleave(ops, seed), warmup, False)


def build(name: str, seed: int, root: Path, report_dir: Path, traced: bool) -> Workload:
    if name == "cli-jobs":
        return cli_jobs(seed, root, report_dir, traced)
    if name == "exact-algebra":
        return exact_algebra(seed)
    if name == "float-analytic":
        return float_analytic(seed)
    raise ValueError(f"unknown workload {name!r}")
