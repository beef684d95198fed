"""Hypothesis profiles for the test suite.

``pytest --hypothesis-profile=ci`` runs the exact-kernel property tests in
``test_exactla.py``, the integer-form property test in ``test_rings.py`` and
the exact-route property test in ``test_exact_routes.py`` with 500 examples
each instead of their tier-1 count.
Tests that fix their own ``max_examples`` keep it under every profile.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=500)
