"""The package's public surface."""

from types import ModuleType

import bcinv


def test_all_lists_exactly_the_public_names():
    modules = {name for name, value in vars(bcinv).items() if isinstance(value, ModuleType)}
    # cli is loaded only by command-line jobs (or tests that run them)
    assert modules - {"_exactla", "cli"} == {"analytic", "errors", "inverses", "lab", "rings"}
    public = {name for name in vars(bcinv) if not name.startswith("_")} - modules
    assert len(bcinv.__all__) == len(set(bcinv.__all__))
    assert set(bcinv.__all__) == public
