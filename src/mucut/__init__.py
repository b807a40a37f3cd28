"""Syntactic cut elimination for the one-variable modal mu-calculus.

The pipeline: finite proofs in the finitary system S are embedded into an
intermediate system with replacement rules (`embed`), cuts are removed by
local head reductions (`eliminate`), the replacement rules are removed by
collapsing (`collapse`), and the resulting cut-free infinitary proof is
inspected to any finite depth (`observe`, `check_observation`).
"""

from __future__ import annotations

from mucut.checker import (
    SYSTEM_S,
    SYSTEM_SINF,
    CheckReport,
    check_bounded,
    check_finite,
    check_observation,
    level_bound,
    omega_system,
    parse_system,
    subformula_report,
)
from mucut.collapse import collapse, pipeline
from mucut.cutelim import cut_rank, eliminate, reduce_head
from mucut.embed import embed
from mucut.errors import FuelExhausted, InternalInvariantError, MucutError
from mucut.kernel import (
    KERNEL_BACKEND,
    TOP,
    iterate,
    level,
    negate,
    prime,
    substitute,
)
from mucut.proofs import (
    Observation,
    Proof,
    is_cut_free_observed,
    observe,
)
from mucut.sequents import Sequent, is_k_positive, seq
from mucut.syntax import ParseError, parse_form, parse_formula, print_form

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "FuelExhausted",
    "InternalInvariantError",
    "KERNEL_BACKEND",
    "MucutError",
    "Observation",
    "ParseError",
    "Proof",
    "SYSTEM_S",
    "SYSTEM_SINF",
    "Sequent",
    "TOP",
    "check_bounded",
    "check_finite",
    "check_observation",
    "collapse",
    "cut_rank",
    "eliminate",
    "embed",
    "is_cut_free_observed",
    "is_k_positive",
    "iterate",
    "level",
    "level_bound",
    "negate",
    "observe",
    "omega_system",
    "parse_form",
    "parse_formula",
    "parse_system",
    "pipeline",
    "prime",
    "print_form",
    "reduce_head",
    "seq",
    "subformula_report",
    "substitute",
    "__version__",
]
