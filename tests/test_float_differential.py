"""The float backend against exact rational arithmetic on integer instances.

On an integer instance Q:k is the float backend's oracle: a float route
must find an inverse exactly when the rational one does, and agree with it
where both exist.  Numerical rank is decided against the scale of the data
a core was built from, so rounding noise in a core never passes for an
invertible one.
"""

from collections import Counter

import numpy as np
import pytest

from bcinv import (
    CornerFrame,
    InverseAbsent,
    RingDescriptor,
    annihilator_inverse,
    bc_inverse,
    group_inverse,
    hybrid_inverse,
    spectrum,
)

R2 = RingDescriptor.float_matrices(2)
# The R:2 job whose core Cr*a*B is rounding noise (see test_cli.py).
NOISE_CORE_JOB = ([[2.0, 3.0], [3.0, -3.0]], [[0.0, 0.0], [6.0, 0.0]], [[-2.0, -2.0], [2.0, 2.0]])

ROUTES = {
    "bc_inverse": lambda a, b, c, frame: bc_inverse(a, frame),
    "group_inverse": lambda a, b, c, frame: group_inverse(a),
    "hybrid_inverse": lambda a, b, c, frame: hybrid_inverse(a, b, c),
    "annihilator_inverse": lambda a, b, c, frame: annihilator_inverse(a, b, c),
}

# The cross-check methods run on every third trial, in the frame the default
# route already solved: they must not read the inverse it keeps on a.
CROSS_CHECKS = {
    f"bc_inverse {method}": lambda a, b, c, frame, method=method: bc_inverse(a, frame, method)
    for method in ("corner", "group")
}


def _or_none(route, *args):
    try:
        return route(*args)
    except InverseAbsent:
        return None


def test_float_routes_agree_with_the_rationals_on_integer_instances():
    # 1,500 seeded trials at k = 2-4 with entries in [-2, 2]; b and c are
    # products of integer k x r and r x k factors.  One frame per trial and
    # backend serves every bc_inverse method.
    rng = np.random.default_rng(1)
    counts = Counter()
    worst = 0.0
    for trial in range(1500):
        k = int(rng.integers(2, 5))
        r = int(rng.integers(1, k + 1))
        a = rng.integers(-2, 3, (k, k))
        b = rng.integers(-2, 3, (k, r)) @ rng.integers(-2, 3, (r, k))
        c = rng.integers(-2, 3, (k, r)) @ rng.integers(-2, 3, (r, k))
        rings = RingDescriptor.float_matrices(k), RingDescriptor.rational_matrices(k)
        values = []
        for ring in rings:
            x, bb, cc = (ring.element(m.tolist()) for m in (a, b, c))
            values.append((x, bb, cc, CornerFrame.make(bb, cc)))
        routes = dict(ROUTES, **(CROSS_CHECKS if trial % 3 == 0 else {}))
        for name, route in routes.items():
            got, want = (_or_none(route, *vals) for vals in values)
            if name == "group_inverse":
                # spectrum's group projection exists exactly where a^# does
                if (spectrum(values[0][0]).group_projection is None) != (want is None):
                    counts["spectrum projection existence"] += 1
            if (got is None) != (want is None):
                counts[f"{name} {'float' if want is None else 'exact'}-only"] += 1
            elif got is not None:
                exact = np.array(want.payload, dtype=float)
                dev = np.linalg.norm(got.payload - exact)
                scale = np.linalg.norm(exact)
                worst = max(worst, dev / scale if scale else dev)
                if dev > 1e-10 * scale:
                    counts[f"{name} deviates"] += 1
    assert not counts, (dict(counts), worst)


def test_group_inverse_refuses_a_nilpotent_float_matrix():
    # x*x = 0, so x has no group inverse; its core G*F is rounding noise
    # against sigma_1(x) = 2.
    x = R2.element([[1.0, -1.0], [1.0, -1.0]])
    with pytest.raises(InverseAbsent):
        group_inverse(x)
    assert spectrum(x).group_projection is None


def test_outer_inverses_refuse_a_float_core_of_rounding_noise():
    a, b, c = (R2.element(m) for m in NOISE_CORE_JOB)
    for route in (hybrid_inverse, annihilator_inverse):
        with pytest.raises(InverseAbsent):
            route(a, b, c)
