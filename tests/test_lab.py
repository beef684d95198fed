"""Exhaustive-lab suites: certification, counts, determinism, caps."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bcinv.lab
import lab_reference
from bcinv import (
    BcinvError,
    CapExceeded,
    RingDescriptor,
    RingTable,
    verify_bott_duffin_section,
    verify_equivalence_suite,
    verify_reverse_order,
    verify_set_decomposition,
)
from bcinv.lab import DEFAULT_RINGS

Z4 = RingDescriptor.modular(4)
Z6 = RingDescriptor.modular(6)
M2F2 = RingDescriptor.matrices_over_prime(2, 2)

SUITES = (verify_equivalence_suite, verify_set_decomposition,
          verify_bott_duffin_section, verify_reverse_order)


def test_ring_table_basics():
    t = RingTable(Z6)
    assert t.n == 6
    assert t.mul[5][5] == 1
    assert t.idempotents == [0, 1, 3, 4]
    assert t.units == {1: 1, 5: 5}
    assert t.inner[2] == (2, 5)
    assert t.right_image[2] == frozenset({0, 2, 4})
    assert t.right_kernel[2] == frozenset({0, 3})


@pytest.mark.parametrize("index", [-1, True, 2.0, 6], ids=repr)
def test_bc_inverse_map_rejects_what_is_not_an_element_index(index):
    # -1 would wrap to the unit 5 in numpy indexing, and match no product
    t = RingTable(Z6)
    for b, c in ((index, 1), (1, index)):
        with pytest.raises(ValueError, match="not an element index in range\\(6\\)"):
            t.bc_inverse_map(b, c)
    assert t.bc_inverse_map(5, 5) == {1: 1, 5: 5}


def test_ring_table_does_not_enumerate_elements(monkeypatch):
    def refuse(self):
        raise AssertionError("RingTable enumerated the ring")

    monkeypatch.setattr(RingDescriptor, "elements", refuse)
    for ring in (Z6, M2F2, RingDescriptor.matrices_over_prime(3, 2)):
        t = RingTable(ring, size_cap=81)
        assert t.n == ring.size
        assert t.mul[t.one, t.one] == t.one and t.add[t.zero, t.one] == t.one


ZERO_ONE_RINGS = DEFAULT_RINGS + tuple(
    RingDescriptor.matrices_over_prime(p, k) for p, k in ((3, 2), (2, 1), (3, 1), (5, 1)))


@pytest.mark.parametrize("ring", ZERO_ONE_RINGS, ids=lambda r: r.name)
def test_ring_table_zero_and_one_are_the_enumerated_indices(ring):
    t = RingTable(ring, size_cap=81)
    keys = [v.key() for v in ring.elements()]
    assert (t.zero, t.one) == (keys.index(ring.zero().key()), keys.index(ring.one().key()))


def test_ring_table_m2f2():
    t = RingTable(M2F2)
    assert t.n == 16
    assert len(t.idempotents) == 8
    assert len(t.units) == 6          # |GL_2(F_2)|
    assert all(t.inner[i] for i in range(16))   # every matrix is regular


@pytest.mark.parametrize("ring", [Z4, Z6])
@pytest.mark.parametrize("suite", SUITES)
def test_suites_certify_small_rings(ring, suite):
    report = suite(ring)
    assert report.certified
    assert report.examined == report.space
    assert report.counterexamples == []


def test_equivalence_suite_counts():
    report = verify_equivalence_suite(Z6)
    assert report.space == 6 ** 4
    # every statement column agrees with the defining one in total count
    counts = {k: v for k, v in report.statements.items() if k.startswith("s")}
    assert len(set(counts.values())) == 1


def test_set_decomposition_z6_worked_sets():
    t = RingTable(Z6)
    inv_map = t.bc_inverse_map(4, 4)
    assert set(inv_map) == {1, 2, 4, 5}
    assert inv_map[5] == 2
    # with frame (1, 1) the invertible set is exactly the units
    assert set(t.bc_inverse_map(1, 1)) == {1, 5}
    # with frame (0, 0) every element is invertible with inverse 0
    zero_map = t.bc_inverse_map(0, 0)
    assert set(zero_map) == set(range(6))
    assert set(zero_map.values()) == {0}
    report = verify_set_decomposition(Z6)
    assert report.certified
    assert report.statements["regular_pairs"] == 36


def test_bott_duffin_suite_z6():
    report = verify_bott_duffin_section(Z6)
    assert report.certified
    assert report.statements["intertwined"] > 0
    assert report.statements["split_invertible"] > 0
    assert report.statements["frame_reductions"] == 36


def test_reverse_order_suite_z6_trivial_frames_hold():
    report = verify_reverse_order(Z6)
    assert report.certified
    assert report.statements["cases"] > 0
    # the literal frame sweep ran on this small ring
    assert report.statements["literal_cases"] > 0


def test_m2f2_suites_certify():
    for suite in SUITES:
        report = suite(M2F2)
        assert report.certified, report.counterexamples[:3]
    rol = verify_reverse_order(M2F2)
    assert rol.statements["failures_witnessed"] > 0


def test_default_rings_roster():
    names = [r.name for r in DEFAULT_RINGS]
    assert names == ["Zn:4", "Zn:6", "Zn:8", "Zn:9", "Zn:12", "MFp:2:2"]


def test_caps():
    with pytest.raises(CapExceeded):
        RingTable(RingDescriptor.modular(17))
    with pytest.raises(CapExceeded):
        verify_equivalence_suite(RingDescriptor.matrices_over_prime(3, 2))


def test_determinism():
    a = verify_set_decomposition(Z6)
    b = verify_set_decomposition(Z6)
    assert a == b
    a = verify_reverse_order(Z4)
    b = verify_reverse_order(Z4)
    assert a == b


# LabReport.to_dict() of every DEFAULT_RINGS x suite pair as the loop-based
# sweeps produced it, serialized with sort_keys.
GOLDEN = json.loads((Path(__file__).parent / "data" / "lab_reports.json").read_text())


@pytest.mark.parametrize("ring", DEFAULT_RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("suite", SUITES, ids=lambda s: s.__name__)
def test_reports_match_the_loop_based_sweeps(ring, suite):
    expected = GOLDEN[f"{ring.name}/{suite.__name__}"]
    # json.dumps also rejects numpy integers, which would leak into a report
    assert (json.dumps(suite(ring).to_dict(), sort_keys=True)
            == json.dumps(expected, sort_keys=True))


def _corrupted(table, i, j, value):
    """Subclass of table whose product i*j is value."""
    class Corrupted(table):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.mul[i][j] = value

    return Corrupted


def _plain(value):
    if isinstance(value, (tuple, list)):
        return all(_plain(v) for v in value)
    return type(value) in (int, bool, str)


def _plant(monkeypatch, i, j, value, before):
    """Corrupt i*j = value in both engines' tables: after construction, or
    before anything (ideals, idempotents, units, inner inverses) is derived."""
    if before:
        tables = bcinv.lab._tables

        def corrupted_tables(ring):
            mul, add = tables(ring)
            mul[i, j] = value
            return mul, add

        class Reference(lab_reference.LoopTable):
            def _products(self):
                mul = super()._products()
                mul[i][j] = value
                return mul

        monkeypatch.setattr(bcinv.lab, "_tables", corrupted_tables)
    else:
        monkeypatch.setattr(bcinv.lab, "RingTable", _corrupted(RingTable, i, j, value))
        Reference = _corrupted(lab_reference.LoopTable, i, j, value)
    monkeypatch.setattr(lab_reference, "Table", Reference)


# i * j = value in Z6; either way, together they reach every counterexample tag
PLANTED = [(2, 1, 1), (4, 4, 1), (2, 3, 1)]


@pytest.mark.parametrize("before", [False, True], ids=["after", "before"])
@pytest.mark.parametrize("fault", PLANTED, ids=str)
@pytest.mark.parametrize("suite", SUITES, ids=lambda s: s.__name__)
def test_planted_fault_is_reported_as_by_the_loop_sweeps(monkeypatch, suite, fault, before):
    _plant(monkeypatch, *fault, before)
    expected = getattr(lab_reference, suite.__name__)(Z6)
    report = suite(Z6)
    assert not report.certified
    assert report.examined == report.space
    assert report.statements == expected.statements
    assert report.counterexamples == expected.counterexamples       # both sorted
    assert all(_plain(c) for c in report.counterexamples)
    json.dumps(report.to_dict())


# A budget of 1 cell leaves every block at n³ cells (one b at a time in the
# equivalence suite); 2^30 puts each sweep in a single block.
BUDGETS = pytest.mark.parametrize("budget", [1, 1 << 30], ids=["budget-1", "budget-2^30"])


@BUDGETS
def test_reports_do_not_depend_on_the_block_size(monkeypatch, budget):
    monkeypatch.setattr(bcinv.lab, "_CELL_BUDGET", budget)
    for ring in DEFAULT_RINGS:
        for suite in SUITES:
            test_reports_match_the_loop_based_sweeps(ring, suite)


@BUDGETS
@pytest.mark.parametrize("before", [False, True], ids=["after", "before"])
@pytest.mark.parametrize("fault", PLANTED, ids=str)
@pytest.mark.parametrize("suite", SUITES, ids=lambda s: s.__name__)
def test_planted_fault_does_not_depend_on_the_block_size(monkeypatch, suite, fault, before,
                                                         budget):
    monkeypatch.setattr(bcinv.lab, "_CELL_BUDGET", budget)
    test_planted_fault_is_reported_as_by_the_loop_sweeps(monkeypatch, suite, fault, before)


# i * j = value in M2(F2), corrupted after construction.  On a noncommutative
# ring a wrong index order (v·x·u, q·a·p) shows; each fault reaches every
# set-decomposition tag but perturbation.
PLANTED_M2F2 = [((12, 4, 7), 358), ((15, 12, 13), 894)]


@BUDGETS
@pytest.mark.parametrize("fault, count", PLANTED_M2F2, ids=str)
def test_planted_m2f2_fault_in_the_set_decomposition(monkeypatch, fault, count, budget):
    monkeypatch.setattr(bcinv.lab, "_CELL_BUDGET", budget)
    _plant(monkeypatch, *fault, before=False)
    expected = lab_reference.verify_set_decomposition(M2F2)
    report = verify_set_decomposition(M2F2)
    assert report.statements == expected.statements
    assert report.counterexamples == expected.counterexamples       # both sorted
    assert len(report.counterexamples) == count
    assert {c[0] for c in report.counterexamples} == {
        "set-equality", "corner-scaling-set", "corner-scaling-value", "compression",
        "inverse-of-inverse"}
    assert all(_plain(c) for c in report.counterexamples)


_NUMPY_MA_PROBE = """
import sys
from bcinv.lab import DEFAULT_RINGS
from bcinv import (verify_bott_duffin_section, verify_equivalence_suite,
                   verify_reverse_order, verify_set_decomposition)
for ring in DEFAULT_RINGS:
    for suite in (verify_equivalence_suite, verify_set_decomposition,
                  verify_bott_duffin_section, verify_reverse_order):
        assert suite(ring).certified, (ring.name, suite.__name__)
print("numpy.ma" in sys.modules)
"""


def test_lab_suites_do_not_load_numpy_ma():
    # np.unique and friends import numpy.ma, about 1.7 MB of resident memory
    src = str(Path(bcinv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_MA_PROBE], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_planted_duplicate_inverse_raises(monkeypatch):
    # 0 * 0 = 1 in Z6 makes 0 and 1 both (0,0)-inverses of 0
    table = _corrupted(RingTable, 0, 0, 1)
    monkeypatch.setattr(bcinv.lab, "RingTable", table)
    with pytest.raises(BcinvError, match="two distinct"):
        table(Z6).bc_inverse_map(0, 0)
    for suite in (verify_set_decomposition, verify_bott_duffin_section, verify_reverse_order):
        with pytest.raises(BcinvError, match="two distinct"):
            suite(Z6)


def test_m2f3_suites_certify():
    m2f3 = RingDescriptor.matrices_over_prime(3, 2)
    reports = [suite(m2f3, size_cap=81) for suite in SUITES]
    for report in reports:
        assert report.certified, report.counterexamples[:3]
        assert report.examined == report.space
    counts = {k: v for k, v in reports[0].statements.items() if k.startswith("s")}
    assert len(counts) == 16 and len(set(counts.values())) == 1


def test_a_duplicate_inverse_no_statement_reads_stops_the_array_suites(monkeypatch):
    # 3 * 0 = 1 in Z9, planted after construction: only the pair (3, 0),
    # whose b = 3 is not regular, has several (b,c)-inverses (of each unit
    # a).  No
    # statement of `sets` or `bottduffin` reads that pair, and the loop
    # sweeps, which build a pair's inverse map only when a statement reads
    # it, report the other consequences of the fault as counterexamples.
    # The array suites take the inverse table of every pair first, and a
    # table that breaks uniqueness of the inverse is no ring: they refuse it.
    z9 = RingDescriptor.modular(9)
    _plant(monkeypatch, 3, 0, 1, before=False)
    expected = {verify_set_decomposition: 14, verify_bott_duffin_section: 12}
    for suite, count in expected.items():
        assert len(getattr(lab_reference, suite.__name__)(z9).counterexamples) == count
        with pytest.raises(BcinvError, match="two distinct"):
            suite(z9)
    with pytest.raises(BcinvError, match="two distinct"):
        bcinv.lab.RingTable(z9).bc_inverse_map(3, 0)
