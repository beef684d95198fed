"""Loop-based reference implementation of the four lab suites.

The suites of `bcinv.lab` as plain Python loops over list-of-lists tables,
one tuple at a time.  Tests compare the array engine against them, also on
deliberately corrupted tables, where both must report the same
counterexamples.  Suites build their table through the module attribute
`Table`, which a test may replace by a subclass that corrupts `mul` after
construction, or corrupts `_products()` so that every derived attribute
sees the fault.
"""

from __future__ import annotations

from bcinv.errors import BcinvError, CapExceeded, PreconditionFailed
from bcinv.lab import DEFAULT_RING_CAP, LabReport
from bcinv.rings import RingDescriptor

# The loop engine's own budget of elementary operations per suite.
DEFAULT_OP_CAP = 10 ** 8


class LoopTable:
    """Integer-indexed multiplication/addition tables as lists of lists."""

    def __init__(self, ring: RingDescriptor, size_cap: int = DEFAULT_RING_CAP):
        if not ring.is_finite:
            raise PreconditionFailed(f"{ring.name} is not finite")
        if ring.size > size_cap:
            raise CapExceeded(f"|{ring.name}| = {ring.size} exceeds cap {size_cap}")
        self.ring = ring
        self.elems = list(ring.elements())
        self.n = len(self.elems)
        index = {v.key(): i for i, v in enumerate(self.elems)}
        self.index = index
        self.zero = index[ring.zero().key()]
        self.one = index[ring.one().key()]
        n = self.n
        self.mul = self._products()
        self.add = [[index[(self.elems[i] + self.elems[j]).key()] for j in range(n)]
                    for i in range(n)]
        self.neg = [index[(-self.elems[i]).key()] for i in range(n)]
        mul = self.mul
        self.right_image = [frozenset(mul[i]) for i in range(n)]
        self.left_image = [frozenset(mul[j][i] for j in range(n)) for i in range(n)]
        self.right_kernel = [frozenset(j for j in range(n) if mul[i][j] == self.zero)
                             for i in range(n)]
        self.left_kernel = [frozenset(j for j in range(n) if mul[j][i] == self.zero)
                            for i in range(n)]
        self.idempotents = [i for i in range(n) if mul[i][i] == i]
        self.units = {}
        for i in range(n):
            for j in range(n):
                if mul[i][j] == self.one and mul[j][i] == self.one:
                    self.units[i] = j
                    break
        self.inner = [tuple(g for g in range(n) if mul[mul[i][g]][i] == i)
                      for i in range(n)]

    def _products(self) -> list[list[int]]:
        """The multiplication table that every other attribute is derived from."""
        return [[self.index[(x * y).key()] for y in self.elems] for x in self.elems]

    def m3(self, i: int, j: int, k: int) -> int:
        return self.mul[self.mul[i][j]][k]

    def sub(self, i: int, j: int) -> int:
        return self.add[i][self.neg[j]]

    def comparison_tables(self):
        """(eq, leq) lookup tables for the four ideal families."""
        n = self.n
        out = {}
        for name, fam in (("ri", self.right_image), ("li", self.left_image),
                          ("rk", self.right_kernel), ("lk", self.left_kernel)):
            eq = [[fam[i] == fam[j] for j in range(n)] for i in range(n)]
            le = [[fam[i] <= fam[j] for j in range(n)] for i in range(n)]
            out[name] = (eq, le)
        return out

    def bc_inverse_map(self, b: int, c: int) -> dict[int, int]:
        """a -> y for the (b,c)-inverse, straight from the definition."""
        n, mul = self.n, self.mul
        bry = [any(mul[mul[b][m]][y] == y for m in range(n)) for y in range(n)]
        yrc = [any(mul[y][mul[m][c]] == y for m in range(n)) for y in range(n)]
        out = {}
        for a in range(n):
            match = None
            for y in range(n):
                if not (bry[y] and yrc[y]):
                    continue
                if mul[mul[y][a]][b] != b or mul[mul[c][a]][y] != c:
                    continue
                if match is not None:
                    raise BcinvError("two distinct (b,c)-inverses found")
                match = y
            if match is not None:
                out[a] = match
        return out


Table = LoopTable


class _MapCache:
    def __init__(self, table: LoopTable):
        self.table = table
        self._maps: dict[tuple[int, int], dict[int, int]] = {}

    def get(self, b: int, c: int) -> dict[int, int]:
        key = (b, c)
        if key not in self._maps:
            self._maps[key] = self.table.bc_inverse_map(b, c)
        return self._maps[key]


def _check_op_budget(estimated: int, op_cap: int) -> None:
    if estimated > op_cap:
        raise CapExceeded(f"estimated {estimated} elementary operations exceed {op_cap}")


def verify_equivalence_suite(ring: RingDescriptor, size_cap: int = DEFAULT_RING_CAP,
                             op_cap: int = DEFAULT_OP_CAP) -> LabReport:
    """Sixteen ideal/annihilator characterizations of one outer inverse.

    Sweeps every (a, b, c, y); statements s01-s04 must agree for every
    outer inverse y, s05-s16 additionally whenever b and c are regular.
    Also certifies that the defining, image-kernel and annihilator forms
    of the inverse exist together and coincide for regular b, c.
    """
    t = Table(ring, size_cap)
    n = t.n
    _check_op_budget(40 * n ** 4, op_cap)
    mul = t.mul
    cmp = t.comparison_tables()
    ri_eq, ri_le = cmp["ri"]
    li_eq, li_le = cmp["li"]
    rk_eq, rk_le = cmp["rk"]
    lk_eq, lk_le = cmp["lk"]
    outer = [[t.m3(y, a, y) == y for y in range(n)] for a in range(n)]
    report = LabReport(ring.name, "outer-inverse-equivalences",
                       examined=0, space=n ** 4)
    stmt_true = {f"s{i:02d}": 0 for i in range(1, 17)}
    coincidence_checked = 0

    for b in range(n):
        bry = [any(mul[mul[b][m]][y] == y for m in range(n)) for y in range(n)]
        breg = bool(t.inner[b])
        for c in range(n):
            creg = bool(t.inner[c])
            yrc = [any(mul[y][mul[m][c]] == y for m in range(n)) for y in range(n)]
            for a in range(n):
                defining_hits = []
                hybrid_hits = []
                annihilator_hits = []
                for y in range(n):
                    report.examined += 1
                    if not outer[a][y]:
                        continue
                    s01 = (bry[y] and yrc[y]
                           and mul[mul[y][a]][b] == b and mul[mul[c][a]][y] == c)
                    s02 = li_eq[y][c] and ri_le[y][b] and lk_le[y][b]
                    s03 = ri_eq[y][b] and li_le[y][c] and rk_le[y][c]
                    s04 = li_le[y][c] and ri_le[y][b] and lk_le[y][b] and rk_le[y][c]
                    s05 = li_eq[y][c] and ri_le[b][y] and lk_le[b][y]
                    s06 = ri_eq[y][b] and li_le[c][y] and rk_le[c][y]
                    s07 = li_eq[y][c] and lk_eq[y][b]
                    s08 = li_le[y][c] and ri_le[b][y] and rk_le[y][c] and lk_le[b][y]
                    s09 = li_le[c][y] and ri_le[y][b] and lk_le[y][b] and rk_le[c][y]
                    s10 = li_le[c][y] and ri_le[b][y] and rk_le[c][y] and lk_le[b][y]
                    s11 = ri_eq[y][b] and rk_eq[y][c]
                    s12 = li_le[y][c] and rk_le[y][c] and lk_eq[y][b]
                    s13 = li_le[c][y] and rk_le[c][y] and lk_eq[y][b]
                    s14 = ri_le[b][y] and lk_le[b][y] and rk_eq[y][c]
                    s15 = ri_le[y][b] and lk_le[y][b] and rk_eq[y][c]
                    s16 = rk_eq[y][c] and lk_eq[y][b]
                    stmts = (s01, s02, s03, s04, s05, s06, s07, s08,
                             s09, s10, s11, s12, s13, s14, s15, s16)
                    for i, val in enumerate(stmts, start=1):
                        if val:
                            stmt_true[f"s{i:02d}"] += 1
                    if any(v != s01 for v in stmts[1:4]):
                        report.counterexamples.append(
                            ("equivalence-1-4", b, c, a, y, stmts[:4]))
                    if breg and creg and any(v != s01 for v in stmts[4:]):
                        report.counterexamples.append(
                            ("equivalence-5-16", b, c, a, y, stmts))
                    if s01:
                        defining_hits.append(y)
                    if s11:
                        hybrid_hits.append(y)
                    if s16:
                        annihilator_hits.append(y)
                if breg and creg:
                    coincidence_checked += 1
                    hits = (defining_hits, hybrid_hits, annihilator_hits)
                    if any(len(h) > 1 for h in hits):
                        report.counterexamples.append(("uniqueness", b, c, a, hits))
                    elif len({bool(h) for h in hits}) != 1:
                        report.counterexamples.append(("existence", b, c, a, hits))
                    elif defining_hits and len({h[0] for h in hits}) != 1:
                        report.counterexamples.append(("coincidence", b, c, a, hits))
    report.statements = dict(stmt_true, coincidence_checked=coincidence_checked)
    return report.finish()


def _corner_units(t: LoopTable, p: int, q: int, brc: frozenset) -> dict[int, int]:
    """x in qRp with a witness z in bRc (z*x = p, x*z = q), as x -> z."""
    units = {}
    for m in range(t.n):
        x = t.m3(q, m, p)
        if x in units:
            continue
        for z in brc:
            if t.mul[z][x] == p and t.mul[x][z] == q:
                units[x] = z
                break
    return units


def _corner_ring_units(t: LoopTable, p: int) -> dict[int, int]:
    """Units of the corner ring pRp (unit element p), as u -> inverse."""
    corner = sorted({t.m3(p, m, p) for m in range(t.n)})
    out = {}
    for u in corner:
        for w in corner:
            if t.mul[u][w] == p and t.mul[w][u] == p:
                out[u] = w
                break
    return out


def verify_set_decomposition(ring: RingDescriptor, size_cap: int = DEFAULT_RING_CAP,
                             op_cap: int = DEFAULT_OP_CAP) -> LabReport:
    """Invertible-element set = corner units + invariant complement.

    For every regular pair (b, c) and every corner-idempotent pair (p, q)
    realized by inner inverses, checks the set equality, the two-sided
    corner scaling identity, and the pointwise invariance statements
    (perturbation, one-sided compressions, inverse of the inverse).
    """
    t = Table(ring, size_cap)
    n = t.n
    _check_op_budget(60 * n ** 4, op_cap)
    cache = _MapCache(t)
    report = LabReport(ring.name, "invertible-set-decomposition",
                       examined=0, space=n ** 2)
    pairs_regular = 0
    frames_checked = 0

    for b in range(n):
        for c in range(n):
            report.examined += 1
            if not (t.inner[b] and t.inner[c]):
                continue
            pairs_regular += 1
            inv_map = cache.get(b, c)
            lhs = frozenset(inv_map)
            brc = frozenset(t.m3(b, w, c) for w in range(n))
            realized = sorted({(t.mul[b][g], t.mul[h][c])
                               for g in t.inner[b] for h in t.inner[c]})
            for p, q in realized:
                frames_checked += 1
                witnesses = _corner_units(t, p, q, brc)
                complement = [m for m in range(n) if t.m3(q, m, p) == t.zero]
                rhs = frozenset(t.add[x][m] for x in witnesses for m in complement)
                if lhs != rhs:
                    report.counterexamples.append(
                        ("set-equality", b, c, p, q,
                         tuple(sorted(lhs ^ rhs))))
                    continue
                units_p = _corner_ring_units(t, p)
                units_q = _corner_ring_units(t, q)
                scaled = frozenset(t.m3(v, x, u)
                                   for v in units_q for x in witnesses for u in units_p)
                if scaled != frozenset(witnesses):
                    report.counterexamples.append(
                        ("corner-scaling-set", b, c, p, q))
                for x, z in witnesses.items():
                    for u, u_inv in units_p.items():
                        for v, v_inv in units_q.items():
                            expected = t.m3(u_inv, z, v_inv)
                            for m in complement:
                                target = inv_map.get(t.add[t.m3(v, x, u)][m])
                                if target != expected:
                                    report.counterexamples.append(
                                        ("corner-scaling-value", b, c, p, q, x, u, v, m))
                for a in lhs:
                    ya = inv_map[a]
                    for m in complement:
                        if inv_map.get(t.add[a][m]) != ya:
                            report.counterexamples.append(
                                ("perturbation", b, c, p, q, a, m))
                for a in range(n):
                    variants = (t.mul[q][a], t.mul[a][p], t.m3(q, a, p))
                    base = inv_map.get(a)
                    for idx, var in enumerate(variants):
                        if inv_map.get(var) != base:
                            report.counterexamples.append(
                                ("compression", b, c, p, q, a, idx))
                swap_map = cache.get(q, p)
                complement_swapped = [m for m in range(n) if t.m3(p, m, q) == t.zero]
                for a in lhs:
                    expected = t.m3(q, a, p)
                    ya = inv_map[a]
                    for m in complement_swapped:
                        if swap_map.get(t.add[ya][m]) != expected:
                            report.counterexamples.append(
                                ("inverse-of-inverse", b, c, p, q, a, m))
    report.statements = {"regular_pairs": pairs_regular, "frames": frames_checked}
    return report.finish()


def verify_bott_duffin_section(ring: RingDescriptor, size_cap: int = DEFAULT_RING_CAP,
                               op_cap: int = DEFAULT_OP_CAP) -> LabReport:
    """Split-sum equivalence, block equations and frame reduction.

    Part 1: over all idempotent pairs (p, q) and all a with a*p = q*a,
    invertibility of a is equivalent to both split constituents existing,
    and then their sum is a^{-1} and satisfies the block equations.
    Part 2: for regular (b, c), the inverse map of the frame equals the
    inverse map of every realized idempotent frame (b*g, h*c).
    """
    t = Table(ring, size_cap)
    n = t.n
    idem = t.idempotents
    _check_op_budget(10 * (len(idem) ** 2) * n * n + 20 * n ** 3, op_cap)
    cache = _MapCache(t)
    report = LabReport(ring.name, "projection-split",
                       examined=0, space=len(idem) ** 2 * n + n ** 2)
    intertwined = 0
    split_ok = 0

    def blocks_hold(z, p, q, a):
        cp, cq = t.sub(t.one, p), t.sub(t.one, q)
        return (t.mul[z][q] == t.mul[p][z]
                and t.m3(t.m3(p, z, q), a, p) == p
                and t.m3(t.m3(cp, z, cq), a, cp) == cp
                and t.m3(t.m3(q, a, p), z, q) == q
                and t.m3(t.m3(cq, a, cp), z, cq) == cq)

    for p in idem:
        for q in idem:
            cp, cq = t.sub(t.one, p), t.sub(t.one, q)
            m_pq = cache.get(p, q)
            m_cpq = cache.get(cp, cq)
            for a in range(n):
                report.examined += 1
                if t.mul[a][p] != t.mul[q][a]:
                    continue
                intertwined += 1
                y1 = m_pq.get(a)
                y2 = m_cpq.get(a)
                a_inv = t.units.get(a)
                both = y1 is not None and y2 is not None
                if (a_inv is not None) != both:
                    report.counterexamples.append(("split-existence", p, q, a))
                    continue
                if both:
                    split_ok += 1
                    s = t.add[y1][y2]
                    if s != a_inv:
                        report.counterexamples.append(("split-sum", p, q, a, s, a_inv))
                    if not blocks_hold(s, p, q, a):
                        report.counterexamples.append(("block-equations", p, q, a))
                witnesses = [z for z in range(n) if blocks_hold(z, p, q, a)]
                if bool(witnesses) != (a_inv is not None):
                    report.counterexamples.append(("block-existence", p, q, a))
                elif witnesses and any(z != a_inv for z in witnesses):
                    report.counterexamples.append(("block-uniqueness", p, q, a))

    reductions = 0
    for b in range(n):
        for c in range(n):
            report.examined += 1
            if not (t.inner[b] and t.inner[c]):
                continue
            base = cache.get(b, c)
            realized = sorted({(t.mul[b][g], t.mul[h][c])
                               for g in t.inner[b] for h in t.inner[c]})
            for p, q in realized:
                reductions += 1
                if cache.get(p, q) != base:
                    report.counterexamples.append(("frame-reduction", b, c, p, q))
    report.statements = {"intertwined": intertwined, "split_invertible": split_ok,
                         "frame_reductions": reductions}
    return report.finish()


def verify_reverse_order(ring: RingDescriptor, size_cap: int = DEFAULT_RING_CAP,
                         op_cap: int = DEFAULT_OP_CAP,
                         full_frames: bool | None = None) -> LabReport:
    """Zero chain obstruction iff the product inverse reverses.

    Frames are swept through their corner idempotents (p1, q1, p2) with the
    chain q2 = p1; this covers every inner-inverse choice because both the
    obstruction and every inverse involved depend on the frame only through
    (b*g, h*c).  For tiny rings an additional literal sweep over all
    (b, g, c, h) tuples cross-checks that reduction.
    """
    t = Table(ring, size_cap)
    n = t.n
    idem = t.idempotents
    _check_op_budget(10 * len(idem) ** 3 * n * n, op_cap)
    cache = _MapCache(t)
    report = LabReport(ring.name, "reverse-order-law",
                       examined=0, space=len(idem) ** 3 * n ** 2)
    cases = 0
    failures_witnessed = 0

    for p1 in idem:
        cp1 = t.sub(t.one, p1)
        for q1 in idem:
            m1 = cache.get(p1, q1)
            for p2 in idem:
                m2 = cache.get(p2, p1)
                m12 = cache.get(p2, q1)
                for a1 in range(n):
                    y1 = m1.get(a1)
                    if y1 is None:
                        report.examined += n
                        continue
                    left = t.m3(q1, a1, cp1)
                    for a2 in range(n):
                        report.examined += 1
                        y2 = m2.get(a2)
                        if y2 is None:
                            continue
                        cases += 1
                        condition = t.m3(left, a2, p2) == t.zero
                        target = m12.get(t.mul[a1][a2])
                        law = target is not None and target == t.mul[y2][y1]
                        if condition != law:
                            report.counterexamples.append(
                                ("obstruction-iff", p1, q1, p2, a1, a2))
                        elif not condition:
                            failures_witnessed += 1

    if full_frames is None:
        full_frames = n <= 8
    literal_cases = 0
    if full_frames:
        frames = [(b, g, t.mul[b][g]) for b in range(n) for g in t.inner[b]]
        cframes = [(c, h, t.mul[h][c]) for c in range(n) for h in t.inner[c]]
        for b1, g1, p1 in frames:
            cp1 = t.sub(t.one, p1)
            for c1, h1, q1 in cframes:
                m1 = cache.get(b1, c1)
                for b2, g2, p2 in frames:
                    for c2, h2, q2 in cframes:
                        if q2 != p1:
                            continue
                        m2 = cache.get(b2, c2)
                        m12 = cache.get(b2, c1)
                        for a1, y1 in m1.items():
                            left = t.m3(q1, a1, cp1)
                            for a2, y2 in m2.items():
                                literal_cases += 1
                                condition = t.m3(left, a2, p2) == t.zero
                                target = m12.get(t.mul[a1][a2])
                                law = target is not None and target == t.mul[y2][y1]
                                if condition != law:
                                    report.counterexamples.append(
                                        ("obstruction-iff-literal",
                                         b1, g1, c1, h1, b2, g2, c2, h2, a1, a2))
    report.statements = {"cases": cases, "failures_witnessed": failures_witnessed,
                         "literal_cases": literal_cases}
    return report.finish()
