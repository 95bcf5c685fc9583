"""Exact-arithmetic toolkit for computable dynamics.

Modules:

- ``rational``: the repo-wide exact rational text format and helpers.
- ``encoding``: numbering of rationals by naturals via diagonal pairing.
- ``murec``: partial recursive function terms with fuel-bounded evaluation.
- ``realfn``: real numbers and functions given by approximation rules.
- ``baker``: the folded doubling map, exactly, plus sensitivity witnesses.
- ``grid``: the same map on a finite uniform grid (deterministic, total).
- ``readout``: the same map through a d-digit device (nondeterministic).
- ``dissipative``: squaring on [0,1] and its discontinuous limit map.
- ``checks``: the seeded property suites behind ``exactdyn check``
  (not imported with the package; ``import exactdyn.checks`` loads it).
- ``cli``: the ``exactdyn`` command-line tool.
"""

from . import baker, dissipative, encoding, grid, murec, rational, readout, realfn
from .errors import (
    ArityMismatchError,
    DomainError,
    ExactDynError,
    IllFormedError,
    InvalidStateError,
    NotACodeError,
    ProgramParseError,
)

__all__ = [
    "ArityMismatchError",
    "DomainError",
    "ExactDynError",
    "IllFormedError",
    "InvalidStateError",
    "NotACodeError",
    "ProgramParseError",
    "baker",
    "checks",
    "dissipative",
    "encoding",
    "grid",
    "murec",
    "rational",
    "readout",
    "realfn",
]
