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
- ``checks``: the seeded property suites behind ``exactdyn check``.
- ``cli``: the ``exactdyn`` command-line tool.

No submodule is imported with the package: ``exactdyn.baker`` (or
``import exactdyn.baker``) loads ``baker`` and what it uses on first
access, so each ``exactdyn`` call pays only for its subcommand.
"""

import importlib

from .errors import (
    ArityMismatchError,
    DomainError,
    ExactDynError,
    IllFormedError,
    InvalidStateError,
    NotACodeError,
    ProgramParseError,
)

# the shipped corpus, named here so the CLI can offer it without loading murec
BUILTIN_PROGRAMS = (
    "addition",
    "multiplication",
    "predecessor",
    "truncated_subtraction",
    "sign",
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


def __getattr__(name: str):
    """Load the submodule ``name`` in ``__all__`` on first access (PEP 562)."""
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
