"""Pivotal-vote probabilities for instant runoff elections.

The package models an electorate as Poisson-distributed counts of each
ballot ranking and answers: with what probability does one additional
ballot change the winner?  It covers IRV (direct and indirect pivotality),
a single-member plurality baseline, a Monte-Carlo oracle on realized
electorates, and a batch harness comparing the two systems.

The public names are each submodule's ``__all__``, re-exported here.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"
__all__ = []

for _name in ("elections", "skellam", "pivotal", "smdp", "oracle", "experiment"):
    _module = _import_module(f".{_name}", __name__)
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
__all__.append("__version__")
del _import_module, _name, _module
