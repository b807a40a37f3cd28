"""Error types shared across the package.

The CLI maps these to exit codes: parse errors (2), fuel exhaustion (3),
internal invariant failures (4); check failures are reported, not raised.
"""

from __future__ import annotations


class MucutError(Exception):
    """Base class for package errors."""


class FuelExhausted(MucutError):
    """A fueled transformation ran out of reduction budget."""


class InternalInvariantError(MucutError):
    """A public builder or transformation was handed a proof outside its
    domain, or a construction broke an invariant."""
