"""Brute-force certification suites over small finite rings, as array sweeps.

Each suite enumerates the full tuple space of a statement family, evaluates
every side of every claimed equivalence independently, and either certifies
the family (zero counterexamples) or returns the offending tuples.

Elements are indexed in enumeration order: `Zn` residues by value, `MFp`
matrices by their base-p digits, so 0 and 1 have closed-form indices and a
`RingTable` never enumerates the ring.  A ring is held as integer numpy
tables: `mul` and `add` are n×n arrays, the four principal ideal families
are n×n boolean membership matrices, and the (b,c)-inverses of all a form
one n×n×n array taken from the definition.  A suite's inner loops are
fancy-indexed comparisons over blocks of its tuple space.  Every block
covers about max(n³, _CELL_BUDGET) cells: on the small default rings one
block takes many rows (or many b) at once, so few numpy calls are made,
and from n³ ≥ _CELL_BUDGET on no temporary exceeds about n³ cells.  The
set-decomposition suite stacks its distinct (class, p, q) keys on one axis
and gathers only the members its checks range over, in blocks of keys
weighted by their cells.  Counts and counterexamples are exact Python ints,
`examined` adds up the cells actually compared, and counterexamples are
reported sorted.  The four suites certify M2(F3) (81 elements, 43,046,721
equivalence tuples) in about 2 s, where the loop-based sweeps took minutes.
`size_cap` on the ring size is the one guard against a sweep too large.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import product
from math import prod

import numpy as np

from .errors import BcinvError, CapExceeded, PreconditionFailed
from .rings import RingDescriptor

DEFAULT_RING_CAP = 16

# Cells a sweep block covers at least: small enough for the cache, large
# enough that numpy's per-call overhead stays small on rings of 4-16 elements.
_CELL_BUDGET = 1 << 15

DEFAULT_RINGS = (
    RingDescriptor.modular(4),
    RingDescriptor.modular(6),
    RingDescriptor.modular(8),
    RingDescriptor.modular(9),
    RingDescriptor.modular(12),
    RingDescriptor.matrices_over_prime(2, 2),
)


@dataclass
class LabReport:
    """Outcome of one exhaustive sweep."""

    ring: str
    suite: str
    examined: int
    space: int
    statements: dict[str, int] = field(default_factory=dict)
    counterexamples: list[tuple] = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return not self.counterexamples

    def finish(self) -> "LabReport":
        self.counterexamples = sorted(self.counterexamples)
        if self.examined != self.space:
            raise BcinvError(
                f"enumeration count {self.examined} != space size {self.space}")
        return self

    def to_dict(self) -> dict:
        return {
            "ring": self.ring,
            "suite": self.suite,
            "examined": self.examined,
            "space": self.space,
            "certified": self.certified,
            "statements": dict(self.statements),
            "counterexamples": [list(c) for c in self.counterexamples[:50]],
            "counterexample_count": len(self.counterexamples),
        }


def _tables(ring: RingDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """(mul, add) index tables, each built in one batched pass over all pairs."""
    if not ring.is_matrix:
        r = np.arange(ring.n)
        return np.multiply.outer(r, r) % ring.n, np.add.outer(r, r) % ring.n
    p, kk = ring.p, ring.k * ring.k
    weights = p ** np.arange(kk - 1, -1, -1)
    # base-p digits of the index, most significant first: elements() order
    mats = (np.arange(ring.size)[:, None] // weights % p).reshape(-1, ring.k, ring.k)
    products = np.matmul(mats[:, None], mats[None, :]) % p
    total = (mats[:, None] + mats[None, :]) % p
    shape = (ring.size, ring.size, kk)
    return products.reshape(shape) @ weights, total.reshape(shape) @ weights


def _ideal_members(mul: np.ndarray, zero: int) -> dict[str, np.ndarray]:
    """[i, x]: x lies in iR ("ri"), Ri ("li"), r.ann(i) ("rk"), l.ann(i) ("lk")."""
    n = len(mul)
    rows = np.arange(n)[:, None]
    ri = np.zeros((n, n), dtype=bool)
    ri[rows, mul] = True
    li = np.zeros((n, n), dtype=bool)
    li[rows, mul.T] = True
    return {"ri": ri, "li": li, "rk": mul == zero, "lk": mul.T == zero}


def _zero_one(ring: RingDescriptor) -> tuple[int, int]:
    """Indices of 0 and 1: residues by value, matrices by their base-p digits."""
    if not ring.is_matrix:
        return 0, 1
    kk = ring.k * ring.k
    return 0, sum(ring.p ** (kk - 1 - i * (ring.k + 1)) for i in range(ring.k))


class RingTable:
    """Integer-indexed tables of a finite ring; `mul` and `add` are n×n arrays.

    The suites read the arrays built here.  The element list, its key index
    and the frozenset lists of principal ideals and annihilators are built on
    first use.
    """

    def __init__(self, ring: RingDescriptor, size_cap: int = DEFAULT_RING_CAP):
        if not ring.is_finite:
            raise PreconditionFailed(f"{ring.name} is not finite")
        if ring.size > size_cap:
            raise CapExceeded(f"|{ring.name}| = {ring.size} exceeds cap {size_cap}")
        self.ring = ring
        self.n = n = ring.size
        self.zero, self.one = _zero_one(ring)
        self.mul, self.add = mul, add = _tables(ring)
        self.neg = np.argmax(add == self.zero, axis=1).tolist()
        self._members = _ideal_members(mul, self.zero)
        self.idempotents = np.flatnonzero(np.diagonal(mul) == np.arange(n)).tolist()
        two_sided = (mul == self.one) & (mul.T == self.one)
        has = two_sided.any(axis=1)
        self.units = dict(zip(np.flatnonzero(has).tolist(),
                              two_sided.argmax(axis=1)[has].tolist()))
        col = np.arange(n)[:, None]
        self._inner = mul[mul, col] == col          # [x, g]: x·g·x = x
        self.inner = [tuple(np.flatnonzero(row).tolist()) for row in self._inner]

    elems = cached_property(lambda self: list(self.ring.elements()))
    index = cached_property(lambda self: {v.key(): i for i, v in enumerate(self.elems)})

    def _family(self, name: str) -> list[frozenset]:
        return [frozenset(np.flatnonzero(row).tolist()) for row in self._members[name]]

    right_image = cached_property(lambda self: self._family("ri"))
    left_image = cached_property(lambda self: self._family("li"))
    right_kernel = cached_property(lambda self: self._family("rk"))
    left_kernel = cached_property(lambda self: self._family("lk"))

    def comparison_tables(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """(eq, le) n×n boolean arrays per ideal family; le[i, j]: ideal(i) ⊆ ideal(j)."""
        out = {}
        for name, member in self._members.items():
            le = ~(member @ ~member.T)      # no x of ideal(i) lies outside ideal(j)
            out[name] = (le & le.T, le)
        return out

    def bc_inverse_map(self, b: int, c: int) -> dict[int, int]:
        """a -> y for the (b,c)-inverse, straight from the definition."""
        for name, value in (("b", b), ("c", c)):
            if type(value) is bool or not isinstance(value, int) or not 0 <= value < self.n:
                raise ValueError(f"{name} = {value!r} is not an element index "
                                 f"in range({self.n}) of {self.ring.name}")
        row = _inverse_maps(self, np.array([b]), np.array([c]))[0, 0]
        return {a: y for a, y in enumerate(row.tolist()) if y >= 0}


def _definition_hits(t: RingTable, bs: np.ndarray, cs: np.ndarray):
    """Yield (rows, hits) over blocks of bs; hits[i, c, a, y]: y meets the
    (b,c)-inverse definition for a with b = bs[rows][i], i.e. y ∈ bRy ∩ yRc,
    y·a·b = b and c·a·y = c."""
    mul, n = t.mul, t.n
    ys = np.arange(n)
    in_bry = (mul[mul[bs]] == ys).any(axis=1)        # [b, y]: y = b·m·y for some m
    in_yrc = (mul.T[mul.T[cs]] == ys).any(axis=1)    # [c, y]: y = y·m·c for some m
    cay = mul[mul[cs]] == cs[:, None, None]          # [c, a, y]: c·a·y = c
    for rows in _blocks(len(bs), len(cs) * n * n, n):
        b = bs[rows, None, None]
        yab = mul[mul.T, b] == b                     # [b, a, y]: y·a·b = b
        reach = in_bry[rows, None, :] & in_yrc       # [b, c, y]
        yield rows, cay & yab[:, None] & reach[:, :, None, :]


def _inverse_maps(t: RingTable, bs: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """[b, c, a] -> the (b,c)-inverse y of a, or -1 where a has none."""
    out = np.full((len(bs), len(cs), t.n), -1)
    for rows, hits in _definition_hits(t, bs, cs):
        count = np.count_nonzero(hits, axis=3)
        if (count > 1).any():
            raise BcinvError("two distinct (b,c)-inverses found")
        out[rows] = np.where(count == 1, hits.argmax(axis=3), -1)
    return out


def _all_inverse_maps(t: RingTable) -> np.ndarray:
    every = np.arange(t.n)
    return _inverse_maps(t, every, every)


def _complements(t: RingTable, idem: np.ndarray) -> np.ndarray:
    """1 - p for each p in idem."""
    return t.add[t.one, np.asarray(t.neg)[idem]]


def _realized_frames(t: RingTable) -> tuple[np.ndarray, np.ndarray]:
    """[b, p]: p = b·g for an inner inverse g of b; [c, q]: q = h·c for an
    inner inverse h of c."""
    xs, gs = np.nonzero(t._inner)
    left = np.zeros((t.n, t.n), dtype=bool)
    left[xs, t.mul[xs, gs]] = True
    right = np.zeros((t.n, t.n), dtype=bool)
    right[xs, t.mul[gs, xs]] = True
    return left, right


def _blocks(count: int, cells, n: int):
    """Slices of range(count), each covering about max(n³, _CELL_BUDGET) cells
    (at least one item), at `cells` per item or cells[i] for item i."""
    ends = np.cumsum(np.broadcast_to(cells, (count,)))
    start, budget = 0, max(n ** 3, _CELL_BUDGET)
    while start < count:
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + budget, side="right")))
        yield slice(start, stop)
        start = stop


def _product_cells(k: np.ndarray, *masks: np.ndarray, members=()) -> tuple[np.ndarray, list]:
    """Flat cells (k, *members, x_1, ..., x_d): each cell of (k, *members)
    repeated for every choice of x_i with masks[i][k, x_i] true.  Expanding
    through masks[i] scans n cells of it per cell so far."""
    members = list(members)
    for mask in masks:
        cell, x = np.nonzero(mask[k])
        k, members = k[cell], [m[cell] for m in members] + [x]
    return k, members


def _classes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The class of each row of a 2-d array, equal rows sharing one, and the
    distinct rows in class order."""
    buf, width = rows.tobytes(), rows.shape[1] * rows.itemsize
    ids: dict[bytes, int] = {}
    of = np.array([ids.setdefault(buf[i:i + width], len(ids))
                   for i in range(0, len(buf), width)], dtype=np.intp)
    return of, np.frombuffer(b"".join(ids), dtype=rows.dtype).reshape(len(ids), rows.shape[1])


def _cells(mask: np.ndarray) -> list[list[int]]:
    """Indices of the true cells of mask, as Python ints."""
    return np.argwhere(mask).tolist() if mask.any() else []


def verify_equivalence_suite(ring: RingDescriptor,
                             size_cap: int = DEFAULT_RING_CAP) -> LabReport:
    """Sixteen ideal/annihilator characterizations of one outer inverse.

    Sweeps every (a, b, c, y); statements s01-s04 must agree for every
    outer inverse y, s05-s16 additionally whenever b and c are regular.
    Also certifies that the defining, image-kernel and annihilator forms
    of the inverse exist together and coincide for regular b, c.

    Only s01 involves a; s02-s16 are evaluated once per (b, c, y) and
    compared against every a for which y is an outer inverse.
    """
    t = RingTable(ring, size_cap)
    n = t.n
    mul, ys = t.mul, np.arange(n)
    regular = np.array([bool(g) for g in t.inner])
    outer = mul[mul.T, ys] == ys                 # [a, y]: y·a·y = y
    weight = np.count_nonzero(outer, axis=0)     # [y]: number of a with y outer
    # [x, y] tables per family: ideal(y) = / ⊆ / ⊇ ideal(x)
    eq, sub, sup = {}, {}, {}
    for name, (e, le) in t.comparison_tables().items():
        eq[name], sub[name], sup[name] = e, le.T, le
    report = LabReport(ring.name, "outer-inverse-equivalences",
                       examined=0, space=n ** 4)
    stmt_true = np.zeros(16, dtype=np.int64)
    coincidence_checked = 0

    for rows, s01 in _definition_hits(t, ys, ys):          # s01[b, c, a, y]
        bs = ys[rows]

        def at_b(table, name):
            return table[name][bs][:, None, :]   # a [b, y] relation seen over (b, c, y)

        # s02-s16 over (b, c, y)
        s = np.stack([
            eq["li"] & at_b(sub, "ri") & at_b(sub, "lk"),
            at_b(eq, "ri") & sub["li"] & sub["rk"],
            sub["li"] & at_b(sub, "ri") & at_b(sub, "lk") & sub["rk"],
            eq["li"] & at_b(sup, "ri") & at_b(sup, "lk"),
            at_b(eq, "ri") & sup["li"] & sup["rk"],
            eq["li"] & at_b(eq, "lk"),
            sub["li"] & at_b(sup, "ri") & sub["rk"] & at_b(sup, "lk"),
            sup["li"] & at_b(sub, "ri") & at_b(sub, "lk") & sup["rk"],
            sup["li"] & at_b(sup, "ri") & sup["rk"] & at_b(sup, "lk"),
            at_b(eq, "ri") & eq["rk"],
            sub["li"] & sub["rk"] & at_b(eq, "lk"),
            sup["li"] & sup["rk"] & at_b(eq, "lk"),
            at_b(sup, "ri") & at_b(sup, "lk") & eq["rk"],
            at_b(sub, "ri") & at_b(sub, "lk") & eq["rk"],
            eq["rk"] & at_b(eq, "lk"),
        ])
        defining = s01 & outer                   # [b, c, a, y]
        report.examined += s01.size
        stmt_true[0] += np.count_nonzero(defining)
        stmt_true[1:] += s.sum(axis=(1, 2)) @ weight
        pairs = regular[bs, None] & regular      # [b, c]: both regular
        # (tag, statements that must equal s01, statements reported, (b, c) range)
        checks = [("equivalence-1-4", s[:3], s[:3], np.ones_like(pairs)),
                  ("equivalence-5-16", s[3:], s, pairs)]
        for tag, group, shown, frames in checks:
            disagree = outer & frames[:, :, None, None] & np.where(
                s01, ~group.all(axis=0)[:, :, None, :], group.any(axis=0)[:, :, None, :])
            for i, c, a, y in _cells(disagree):
                stmts = (bool(s01[i, c, a, y]),) + tuple(shown[:, i, c, y].tolist())
                report.counterexamples.append((tag, int(bs[i]), c, a, y, stmts))
        coincidence_checked += n * int(np.count_nonzero(pairs))
        # s01, s11, s16 over (b, c, a, y)
        hits = (defining, outer & s[9][:, :, None, :], outer & s[14][:, :, None, :])
        counts = [np.count_nonzero(h, axis=3) for h in hits]
        found = [k > 0 for k in counts]
        first = [h.argmax(axis=3) for h in hits]
        several = (counts[0] > 1) | (counts[1] > 1) | (counts[2] > 1)
        unequal = (found[0] != found[1]) | (found[0] != found[2])
        apart = found[0] & ((first[0] != first[1]) | (first[0] != first[2]))
        pairs = pairs[:, :, None]
        live = pairs & ~several
        for tag, mask in (("uniqueness", pairs & several),
                          ("existence", live & unequal),
                          ("coincidence", live & ~unequal & apart)):
            for i, c, a in _cells(mask):
                report.counterexamples.append(
                    (tag, int(bs[i]), c, a,
                     tuple(np.flatnonzero(h[i, c, a]).tolist() for h in hits)))
    report.statements = {f"s{i:02d}": int(v) for i, v in enumerate(stmt_true, start=1)}
    report.statements["coincidence_checked"] = coincidence_checked
    return report.finish()


def _corner_ring_units(t: RingTable) -> tuple[np.ndarray, np.ndarray]:
    """[e, u]: u is a unit of the corner ring eRe (unit element e), and [e, u]
    its smallest inverse there."""
    mul, es = t.mul, np.arange(t.n)
    corner = np.zeros((t.n, t.n), dtype=bool)
    corner[es[:, None], mul[mul, es[:, None]]] = True
    ok = (corner[:, :, None] & corner[:, None, :]
          & (mul == es[:, None, None]) & (mul.T == es[:, None, None]))
    return ok.any(axis=2), ok.argmax(axis=2)


def _key_findings(t: RingTable, inv_of: np.ndarray, brc_of: np.ndarray, kc: np.ndarray,
                  kp: np.ndarray, kq: np.ndarray, swapped: np.ndarray) -> list[tuple]:
    """Counterexamples (key, tag, rest) of the stacked keys: key k takes the
    pairs (b, c) of class kc[k], whose inverse map is inv_of[kc[k]] and whose
    bRc is brc_of[kc[k]], with the frame (kp[k], kq[k]); swapped[k] is the
    (q,p)-inverse map.  The caller inserts b, c, p, q after the tag."""
    mul, add, n = t.mul, t.add, t.n
    inv, brc = inv_of[kc], brc_of[kc]
    out = []

    def emit(tag, k, *rest):
        out.extend((row[0], tag, row[1:]) for row in zip(k.tolist(), *(x.tolist() for x in rest)))

    keys = np.arange(len(kp))
    qmp = mul[mul[kq], kp[:, None]]                           # [k, m]: q·m·p
    comp = qmp == t.zero                                      # invariant complement
    in_qrp = np.zeros(qmp.shape, dtype=bool)
    in_qrp[keys[:, None], qmp] = True
    # witnesses: x in qRp with z in bRc, z·x = p and x·z = q
    witness, z_of = np.zeros(qmp.shape, dtype=bool), np.zeros(qmp.shape, dtype=np.intp)
    for s in _blocks(len(kp), n * n, n):
        ok = (in_qrp[s, :, None] & brc[s, None, :]
              & (mul == kq[s, None, None]) & (mul.T == kp[s, None, None]))       # [k, x, z]
        witness[s], z_of[s] = ok.any(axis=2), ok.argmax(axis=2)
    invertible = inv >= 0
    k, (x, m) = _product_cells(keys, witness, comp)
    rhs = np.zeros(qmp.shape, dtype=bool)
    rhs[k, add[x, m]] = True
    differ = invertible != rhs
    unequal = differ.any(axis=1)
    for k in np.flatnonzero(unequal).tolist():
        out.append((k, "set-equality", (tuple(np.flatnonzero(differ[k]).tolist()),)))
    # the remaining checks run where the set equality holds
    good = np.flatnonzero(~unequal)
    units, unit_inv = _corner_ring_units(t)
    units_p, units_q, inv_p, inv_q = units[kp], units[kq], unit_inv[kp], unit_inv[kq]
    comp_swapped = mul[mul[kp], kq[:, None]] == t.zero        # [k, m]: p·m·q = 0
    scaled, vx = np.zeros(qmp.shape, dtype=bool), np.zeros(qmp.shape, dtype=bool)
    # [class, a, m]: a is invertible and a + m has another inverse
    moved = (inv_of[:, add] != inv_of[:, :, None]) & (inv_of >= 0)[:, :, None]
    # cells scanned per key, led by the corner-scaling value check
    count = partial(np.count_nonzero, axis=1)
    nw, nc, nu = count(witness), count(comp), count(units_q)
    cells = n * (nu * nw * (nc + 1) + count(invertible) + nu + 2 * n)
    for s in _blocks(len(good), cells[good], n):
        ks = good[s]
        # corner scaling: v·x·u over the corner units v of qRq and u of pRp
        k, (v, x) = _product_cells(ks, units_q, witness)
        vx[k, mul[v, x]] = True
        k2, (w, u) = _product_cells(ks, vx, units_p)
        scaled[k2, mul[w, u]] = True
        emit("corner-scaling-set", ks[(scaled[ks] != witness[ks]).any(axis=1)])
        # ... and v·x·u + m, m in the complement, has the inverse u⁻¹·z·v⁻¹
        k, (v, x, m, u) = _product_cells(k, comp, units_p, members=(v, x))
        expected = mul[mul[inv_p[k, u], z_of[k, x]], inv_q[k, v]]
        bad = inv[k, add[mul[mul[v, x], u], m]] != expected
        emit("corner-scaling-value", k[bad], x[bad], u[bad], v[bad], m[bad])
        # perturbation: a + m has the inverse of a, m in the complement
        k, a, m = np.nonzero(moved[kc[ks]] & comp[ks, None, :])
        emit("perturbation", ks[k], a, m)
        # inverse of the inverse: the (q,p)-inverse of y + m is q·a·p, m in the
        # swapped complement
        k, (a,) = _product_cells(ks, invertible)
        y, qap = inv[k, a], qmp[k, a]
        cell, m = np.nonzero(comp_swapped[k])
        bad = swapped[k[cell], add[y[cell], m]] != qap[cell]
        cell, m = cell[bad], m[bad]
        emit("inverse-of-inverse", k[cell], a[cell], m)
        # compressions q·a, a·p and q·a·p have the inverse of a
        variants = np.stack((mul[kq[ks]], mul[:, kp[ks]].T, qmp[ks]), axis=2)   # [k, a, idx]
        k, a, idx = np.nonzero(inv[ks[:, None, None], variants] != inv[ks, :, None])
        emit("compression", ks[k], a, idx)
    return out


def verify_set_decomposition(ring: RingDescriptor,
                             size_cap: int = DEFAULT_RING_CAP) -> LabReport:
    """Invertible-element set = corner units + invariant complement.

    For every regular pair (b, c) and every corner-idempotent pair (p, q)
    realized by inner inverses, checks the set equality, the two-sided
    corner scaling identity, and the pointwise invariance statements
    (perturbation, one-sided compressions, inverse of the inverse).

    The checks of a frame read (b, c) only through its inverse map and the
    set bRc.  The regular pairs are grouped into classes by (inverse map,
    bRc), deduplicated as row bytes, and each distinct key (class, p, q) is
    evaluated once: M2(F2) has 256 regular pairs in 18 classes and 64 keys,
    M2(F3) 6,561 pairs and 21,025 frames in 27 classes and 196 keys.  All
    keys are stacked on one axis.  The checks that range over members
    (witnesses, corner units, complement, invertible elements) gather just
    those cells, in blocks of keys weighted by the cells each key scans;
    the perturbation check compares each class once over all (a, m) and
    masks the result by each key's complement.  Only the keys with findings
    are expanded back to the pairs (b, c) that share them.

    The suite reads one inverse table of all n² pairs, taken first.  The
    (b,c)-inverse is unique in every ring, so a table with two inverses for
    some pair is no ring's, and the suite raises BcinvError on it, also for
    a pair no statement reads; the loop sweeps of tests/lab_reference.py
    build a pair's map only when a statement reads it, and report such a
    fault as the counterexamples it causes elsewhere (tests/test_lab.py
    pins both on Z9 with 3·0 = 1 planted).
    """
    t = RingTable(ring, size_cap)
    n, mul = t.n, t.mul
    maps = _all_inverse_maps(t)
    left, right = _realized_frames(t)
    lb, lp = np.nonzero(left)                   # left frames: p = b·g
    rc, rq = np.nonzero(right)                  # right frames: q = h·c
    regular = np.flatnonzero(left.any(axis=1))
    r = np.arange(len(regular))
    # bRc = (bR)·c: a [c, x] table per distinct right ideal bR
    right_ideal = np.zeros((len(r), n), dtype=bool)
    right_ideal[r[:, None], mul[regular]] = True
    ideal_of, ideals = _classes(right_ideal)
    ideal, member = np.nonzero(ideals)
    by_ideal = np.zeros((len(ideals), n, n), dtype=bool)
    by_ideal[ideal[:, None], np.arange(n), mul[member]] = True
    # classes of regular pairs by the rows 2·y + [x ∈ bRc] over x
    dtype = np.min_scalar_type(-2 * n)
    rows = 2 * maps.astype(dtype)[regular[:, None], regular] + by_ideal[ideal_of[:, None], regular]
    pair_class, classes = _classes(rows.reshape(-1, n))
    # [left frame, right frame] -> key (class, p, q) as one code
    at = np.zeros(n, dtype=np.intp)
    at[regular] = r
    code = (pair_class.reshape(len(r), len(r))[at[lb][:, None], at[rc]] * n
            + lp[:, None]) * n + rq
    seen = np.zeros(len(classes) * n * n, dtype=bool)
    seen[code] = True
    keys = np.flatnonzero(seen)
    kc, kp, kq = keys // (n * n), keys // n % n, keys % n
    swapped = maps[kq, kp]                      # the (q,p)-inverse map of each key
    del maps, rows                              # the key stage holds no n³ array
    findings = _key_findings(t, (classes >> 1).astype(np.intp), (classes & 1).astype(bool),
                             kc, kp, kq, swapped)
    by_key: dict[int, list[tuple]] = {}
    for k, tag, rest in findings:
        by_key.setdefault(k, []).append((tag, rest))
    bad = np.zeros_like(seen)
    bad[keys[list(by_key)]] = True
    report = LabReport(ring.name, "invertible-set-decomposition",
                       examined=n * n, space=n ** 2)
    i, j = np.nonzero(bad[code])
    for b, c, p, q, k in zip(lb[i].tolist(), rc[j].tolist(), lp[i].tolist(), rq[j].tolist(),
                             np.searchsorted(keys, code[i, j]).tolist()):
        report.counterexamples.extend((tag, b, c, p, q) + rest for tag, rest in by_key[k])
    report.statements = {"regular_pairs": len(r) ** 2, "frames": len(lb) * len(rc)}
    return report.finish()


def verify_bott_duffin_section(ring: RingDescriptor,
                               size_cap: int = DEFAULT_RING_CAP) -> LabReport:
    """Split-sum equivalence, block equations and frame reduction.

    Part 1: over all idempotent pairs (p, q) and all a with a*p = q*a,
    invertibility of a is equivalent to both split constituents existing,
    and then their sum is a^{-1} and satisfies the block equations.
    Part 2: for regular (b, c), the inverse map of the frame equals the
    inverse map of every realized idempotent frame (b*g, h*c).

    Like verify_set_decomposition, the suite takes the inverse table of all
    n² pairs first, and raises BcinvError on a table with two inverses for
    some pair, also a pair no statement reads.
    """
    t = RingTable(ring, size_cap)
    n = t.n
    idem = np.array(t.idempotents)
    mul, add, ys = t.mul, t.add, np.arange(n)
    maps = _all_inverse_maps(t)
    comp = _complements(t, idem)
    unit_inv = np.full(n, -1)
    unit_inv[list(t.units)] = list(t.units.values())
    has_inv = unit_inv >= 0
    report = LabReport(ring.name, "projection-split",
                       examined=0, space=len(idem) ** 2 * n + n ** 2)
    intertwined = 0
    split_ok = 0

    # [i, x, w]: x·w·e = e, for e = idem[i] and for e = comp[i]
    fixes = mul[mul[None], idem[:, None, None]] == idem[:, None, None]
    fixes_comp = mul[mul[None], comp[:, None, None]] == comp[:, None, None]
    ix = np.arange(len(idem))
    q_rows = ix[:, None, None]
    for rows in _blocks(len(idem), len(idem) * n * n, n):     # cells [p, q, a(, z)]
        ps, cps, p_rows = idem[rows], comp[rows], ix[rows, None, None, None]
        twined = mul[:, ps].T[:, None, :] == mul[idem]
        report.examined += twined.size
        # block equations for every z
        pzq = mul[mul[ps][:, None, :], idem[:, None]]                    # [p, q, z]
        cpzcq = mul[mul[cps][:, None, :], comp[:, None]]
        qap = mul[mul[idem], ps[:, None, None]]                           # [p, q, a]
        cqacp = mul[mul[comp], cps[:, None, None]]
        holds = ((mul[:, idem].T == mul[ps][:, None, :])[:, :, None, :]
                 & fixes[p_rows, pzq[:, :, None, :], ys[:, None]]
                 & fixes_comp[p_rows, cpzcq[:, :, None, :], ys[:, None]]
                 & fixes[q_rows, qap[..., None], ys]
                 & fixes_comp[q_rows, cqacp[..., None], ys])
        y1, y2 = maps[ps[:, None], idem], maps[cps[:, None], comp]      # [p, q, a]
        both = (y1 >= 0) & (y2 >= 0)
        intertwined += int(np.count_nonzero(twined))
        mismatch = twined & (has_inv != both)
        ok = twined & ~mismatch
        split = ok & both
        split_ok += int(np.count_nonzero(split))
        sums = add[y1, y2]
        held = np.take_along_axis(holds, sums[..., None], axis=3)[..., 0]
        witnessed = holds.any(axis=3)
        stray = (holds & (ys != unit_inv[:, None])).any(axis=3)
        for tag, mask in (("split-existence", mismatch),
                          ("block-equations", split & ~held),
                          ("block-existence", ok & (witnessed != has_inv)),
                          ("block-uniqueness", ok & (witnessed == has_inv) & stray)):
            for pi, qi, a in _cells(mask):
                report.counterexamples.append((tag, int(ps[pi]), int(idem[qi]), a))
        for pi, qi, a in _cells(split & (sums != unit_inv)):
            report.counterexamples.append(("split-sum", int(ps[pi]), int(idem[qi]), a,
                                           int(sums[pi, qi, a]), int(unit_inv[a])))

    left, right = _realized_frames(t)
    lb, lp = np.nonzero(left)                   # left frames: p = b·g
    rc, rq = np.nonzero(right)                  # right frames: q = h·c
    report.examined += n * n
    reductions = len(lb) * len(rc)
    for s in _blocks(len(lb), len(rc) * n, n):
        differ = (maps[lp[s, None], rq] != maps[lb[s, None], rc]).any(axis=2)   # [left, right]
        for i, j in _cells(differ):
            report.counterexamples.append(("frame-reduction", int(lb[s][i]), int(rc[j]),
                                           int(lp[s][i]), int(rq[j])))
    report.statements = {"intertwined": intertwined, "split_invertible": split_ok,
                         "frame_reductions": reductions}
    return report.finish()


def _reverse_order_cells(t: RingTable, maps: np.ndarray, b1, c1, b2, c2, q1, cp1, p2):
    """Yield (cells, k, a1, a2, condition, law) over blocks of rows.

    Row k takes a1 in the frame (b1, c1) and a2 in (b2, c2), with the corner
    idempotents q1 = h1·c1, 1 - p1 = cp1 and p2 = b2·g2.  Of the `cells`
    [row, a1, a2] of a block, only the valid ones, where a1 and a2 have
    inverses y1 and y2, are returned, as the flat index arrays k (absolute
    rows), a1 and a2.  condition: q1·a1·(1-p1)·a2·p2 = 0; law: the
    (b2,c1)-inverse of a1·a2 is y2·y1; both are evaluated on the valid
    cells only.
    """
    mul, n = t.mul, t.n
    for s in _blocks(len(q1), n * n, n):
        y1, y2 = maps[b1[s], c1[s]], maps[b2[s], c2[s]]             # [k, a]
        k, a1, a2 = np.nonzero((y1 >= 0)[:, :, None] & (y2 >= 0)[:, None, :])
        left = mul[mul[q1[s]], cp1[s, None]]                         # [k, a1]
        right = mul[:, p2[s]].T                                      # [k, x]: x·p2
        condition = right[k, mul[left[k, a1], a2]] == t.zero
        reverse = mul[y2[k, a2], y1[k, a1]]                          # y2·y1
        target = maps[b2[s], c1[s]][k, mul[a1, a2]]                  # (a1·a2)^(b2,c1)
        law = (target >= 0) & (target == reverse)
        del reverse, target              # not held across the yield
        yield y1.size * n, k + s.start, a1, a2, condition, law


def verify_reverse_order(ring: RingDescriptor,
                         size_cap: int = DEFAULT_RING_CAP) -> LabReport:
    """Zero chain obstruction iff the product inverse reverses.

    Frames are swept through their corner idempotents (p1, q1, p2) with the
    chain q2 = p1; this covers every inner-inverse choice because both the
    obstruction and every inverse involved depend on the frame only through
    (b*g, h*c).  For rings of at most 8 elements an additional literal
    sweep over all (b, g, c, h) tuples cross-checks that reduction; it
    evaluates each (b, b*g, c, h*c) combination once and counts it for
    every (g, h) giving it.
    """
    t = RingTable(ring, size_cap)
    n = t.n
    idem = np.array(t.idempotents)
    maps = _all_inverse_maps(t)
    comp = _complements(t, idem)
    report = LabReport(ring.name, "reverse-order-law",
                       examined=0, space=len(idem) ** 3 * n ** 2)
    cases = 0
    failures_witnessed = 0

    i1, j1, i2 = (ix.ravel() for ix in np.indices((len(idem),) * 3))
    p1, q1, p2 = idem[i1], idem[j1], idem[i2]
    for cells, k, a1, a2, condition, law in _reverse_order_cells(
            t, maps, p1, q1, p2, p1, q1, comp[i1], p2):
        report.examined += cells
        cases += len(k)
        failures_witnessed += int(np.count_nonzero(~condition & ~law))
        bad = condition != law
        for k, a1, a2 in zip(k[bad].tolist(), a1[bad].tolist(), a2[bad].tolist()):
            report.counterexamples.append(
                ("obstruction-iff", int(p1[k]), int(q1[k]), int(p2[k]), a1, a2))

    literal_cases = 0
    if n <= 8:
        # frames (b, g) enter only through p = b·g, and (c, h) through q = h·c
        lframes: dict[tuple[int, int], list[int]] = {}
        rframes: dict[tuple[int, int], list[int]] = {}
        for x, gs in enumerate(t.inner):
            for g in gs:
                lframes.setdefault((x, int(t.mul[x, g])), []).append(g)
                rframes.setdefault((x, int(t.mul[g, x])), []).append(g)
        ending_in: dict[int, list] = {}                     # q -> [(c, hs)] with h·c = q
        for (c, q), hs in rframes.items():
            ending_in.setdefault(q, []).append((c, hs))
        combos = [((b1, p1, c1, q1, b2, p2, c2), (g1s, h1s, g2s, h2s))
                  for ((b1, p1), g1s), ((c1, q1), h1s), ((b2, p2), g2s)
                  in product(lframes.items(), rframes.items(), lframes.items())
                  for c2, h2s in ending_in.get(p1, ())]
        rows = np.array([row for row, _ in combos], dtype=np.intp).reshape(-1, 7)
        b1, p1, c1, q1, b2, p2, c2 = rows.T
        literal = np.array([prod(map(len, frames)) for _, frames in combos])
        for _, k, a1, a2, condition, law in _reverse_order_cells(
                t, maps, b1, c1, b2, c2, q1, _complements(t, p1), p2):
            literal_cases += int(literal[k].sum())
            bad = condition != law
            for k, a1, a2 in zip(k[bad].tolist(), a1[bad].tolist(), a2[bad].tolist()):
                (b1k, _, c1k, _, b2k, _, c2k), frames = combos[k]
                report.counterexamples.extend(
                    ("obstruction-iff-literal", b1k, g1, c1k, h1, b2k, g2, c2k, h2, a1, a2)
                    for g1, h1, g2, h2 in product(*frames))
    report.statements = {"cases": cases, "failures_witnessed": failures_witnessed,
                         "literal_cases": literal_cases}
    return report.finish()
