"""Finite rings without enumeration: Zn closed forms and MFp elimination.

Zn answers come from gcd closed forms and MFp answers from field
elimination; both are checked against the brute-force oracles in
helpers.py, and a guard makes sure the production routes never walk the
ring.
"""

import numpy as np
import pytest

from bcinv import (
    CapExceeded,
    CornerFrame,
    InverseAbsent,
    NotRegular,
    RingDescriptor,
    annihilator_inverse,
    bc_inverse,
    build_v,
    canonical_inner_inverse,
    group_inverse,
    hybrid_inverse,
    ideal,
    verify_bc_inverse,
)
from bcinv.rings import ENUM_CAP
from helpers import zn_bc_inverse, zn_group_inverse, zn_inner_inverses

SIDES = ("image-right", "image-left", "kernel-right", "kernel-left")


def _members(ideal_):
    """The residues in ideal_, found by testing every one."""
    ring = ideal_.ring
    return {m for m in range(ring.n) if ideal_.contains(ring.element(m))}


def _or_none(fn, *args):
    try:
        return fn(*args).payload
    except InverseAbsent:
        return None


def test_zn_inner_group_and_ideals_match_definitions():
    for n in range(2, 31):
        ring = RingDescriptor.modular(n)
        for x in range(n):
            value = ring.element(x)
            inner = zn_inner_inverses(n, x)
            if inner:
                assert canonical_inner_inverse(value).payload == inner[0]
            else:
                with pytest.raises(NotRegular):
                    canonical_inner_inverse(value)
            assert _or_none(group_inverse, value) == zn_group_inverse(n, x)
            image = frozenset((x * m) % n for m in range(n))
            kernel = frozenset(m for m in range(n) if (x * m) % n == 0)
            for side in SIDES:
                expected = image if side.startswith("image") else kernel
                assert _members(ideal(value, side)) == expected


def test_zn_default_route_matches_oracle():
    for n in range(2, 13):
        ring = RingDescriptor.modular(n)
        regular = [x for x in range(n) if zn_inner_inverses(n, x)]
        for b in regular:
            for c in regular:
                frame = CornerFrame.make(ring.element(b), ring.element(c))
                for a in range(n):
                    expected = zn_bc_inverse(n, a, b, c)
                    for method in (None, "corner"):
                        assert _or_none(bc_inverse, ring.element(a), frame, method) \
                            == expected, (n, a, b, c, method)


def test_zn_hybrid_and_annihilator_match_oracle():
    # In a commutative ring both coincide with the (b,c)-inverse, for any b, c.
    for n in range(2, 11):
        ring = RingDescriptor.modular(n)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    expected = zn_bc_inverse(n, a, b, c)
                    args = (ring.element(a), ring.element(b), ring.element(c))
                    assert _or_none(hybrid_inverse, *args) == expected
                    assert _or_none(annihilator_inverse, *args) == expected


def test_zn_above_enumeration_cap():
    # n = 2^5 * 5^5.  b = 3125 is 0 mod 5^5 and 21 mod 32, with 21^{-1} = 29
    # (mod 32), so g = 29 and p = 3125 * 29 = 90625: 1 mod 32, 0 mod 5^5.
    n = 100000
    assert n > ENUM_CAP
    ring = RingDescriptor.modular(n)
    b = ring.element(3125)
    frame = CornerFrame.make(b, b)
    assert frame.g.payload == 29
    assert frame.p.payload == frame.q.payload == 90625
    assert build_v(frame) == frame.p
    # y = 3^{-1} = 11 (mod 32) and 0 (mod 5^5): y = 3125 * 31 = 96875.
    y = bc_inverse(ring.element(3), frame)
    assert y.payload == 96875
    assert verify_bc_inverse(ring.element(3), frame, y).verdict
    with pytest.raises(InverseAbsent):              # 2 is no unit mod 32
        bc_inverse(ring.element(2), frame)
    # x^# = 29 (mod 32) and 0 (mod 5^5): 3125 * 9 = 28125.
    assert group_inverse(b).payload == 28125
    assert _members(ideal(b, "image-right")) == set(range(0, n, 3125))     # 32 residues
    assert _members(ideal(b, "kernel-left")) == set(range(0, n, 32))        # 3125 residues
    assert _members(ideal(ring.one(), "image-right")) == set(range(n))
    # The hybrid, annihilator and corner routes agree with the default one.
    three = ring.element(3)
    assert hybrid_inverse(three, b, b).payload == 96875
    assert annihilator_inverse(three, b, b).payload == 96875
    y = bc_inverse(three, frame, "corner")
    assert y.payload == 96875
    assert verify_bc_inverse(three, frame, y).verdict
    # c = 32 gives q = 1 mod 5^5, 0 mod 32, so p != q and no inverse exists.
    mixed = CornerFrame.make(b, ring.element(32))
    with pytest.raises(InverseAbsent):
        build_v(mixed)
    with pytest.raises(InverseAbsent):
        bc_inverse(ring.element(3), mixed)
    # Only the definitional scan stays capped.
    with pytest.raises(CapExceeded):
        bc_inverse(ring.element(3), frame, "exhaustive")


def test_mfp_hybrid_and_annihilator_match_bc_inverse():
    rng = np.random.default_rng(8)
    seen = set()
    for p, k in ((2, 2), (3, 2), (2, 3), (5, 2)):
        ring = RingDescriptor.matrices_over_prime(p, k)

        def low_rank():
            r = int(rng.integers(0, k + 1))
            return rng.integers(0, p, (k, r)) @ rng.integers(0, p, (r, k))

        for _ in range(25):
            a = ring.element(rng.integers(0, p, (k, k)))
            b, c = ring.element(low_rank()), ring.element(low_rank())
            expected = _or_none(bc_inverse, a, CornerFrame.make(b, c))
            seen.add(expected is None)
            for fn in (hybrid_inverse, annihilator_inverse):
                got = _or_none(fn, a, b, c)
                assert (got is None) == (expected is None)
                if expected is not None:
                    assert np.array_equal(got, expected)
    assert seen == {True, False}


@pytest.mark.parametrize("ring, a, b", [
    (RingDescriptor.modular(3003), 5, 21),
    (RingDescriptor.matrices_over_prime(3, 2), [[2, 1], [1, 1]], [[1, 0], [0, 0]]),
], ids=["Zn:3003", "MFp:3:2"])
def test_production_routes_never_enumerate(monkeypatch, ring, a, b):
    def refuse(self):
        raise AssertionError(f"{self.name} was enumerated")

    monkeypatch.setattr(RingDescriptor, "elements", refuse)
    a, b = ring.element(a), ring.element(b)
    frame = CornerFrame.make(b, b)
    y = bc_inverse(a, frame)
    assert verify_bc_inverse(a, frame, y).verdict
    assert y == build_v(frame) * group_inverse(a * build_v(frame))
    assert bc_inverse(a, frame, "corner") == y
    assert hybrid_inverse(a, b, b) == y
    assert annihilator_inverse(a, b, b) == y
    for side in SIDES:
        assert ideal(b, side).contains(ring.zero())
