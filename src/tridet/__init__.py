"""Exact Toeplitz-Hessenberg determinants over tribonacci-style entry families.

Everything is integer arithmetic end to end: determinants come from the
entries' linear recurrence (C-finite route), the expansion recurrence, two
Trudi-style summation formulas, and fraction-free elimination; each
identity's right side is one declared C-finite series (CFinite), and
identities are checked by exact equality only.
"""

from .combinatorics import binomial, compositions, multinomial, partitions
from .determinant import (
    EntryRule,
    HessenbergSpec,
    det_dense,
    det_gf,
    det_prefixes,
    det_recurrence,
    det_trudi_compositions,
    det_trudi_partitions,
    make_entries,
)
from .identities import (
    DEFAULT_N_MAX,
    DEFAULT_R_SET,
    IdentityCase,
    IdentityReport,
    VerificationSummary,
    check_all,
    check_sweeps,
    registry,
)
from .sequences import (
    FIXED_FAMILIES,
    PARAMETRIC_FAMILIES,
    SequenceKind,
    seq_range,
    seq_term,
    square_rmino_closed,
    tribonacci_explicit,
)
from .series import GF_FAMILIES, CFinite, expand_rational, gf_catalog
from .tilings import (
    PieceSet,
    count_tilings,
    enumerate_tilings,
    pieces_for,
    uncolored,
)

__version__ = "0.1.0"

__all__ = [
    "binomial",
    "compositions",
    "multinomial",
    "partitions",
    "EntryRule",
    "HessenbergSpec",
    "det_dense",
    "det_gf",
    "det_prefixes",
    "det_recurrence",
    "det_trudi_compositions",
    "det_trudi_partitions",
    "make_entries",
    "DEFAULT_N_MAX",
    "DEFAULT_R_SET",
    "IdentityCase",
    "IdentityReport",
    "VerificationSummary",
    "check_all",
    "check_sweeps",
    "registry",
    "FIXED_FAMILIES",
    "PARAMETRIC_FAMILIES",
    "SequenceKind",
    "seq_range",
    "seq_term",
    "square_rmino_closed",
    "tribonacci_explicit",
    "GF_FAMILIES",
    "CFinite",
    "expand_rational",
    "gf_catalog",
    "PieceSet",
    "count_tilings",
    "enumerate_tilings",
    "pieces_for",
    "uncolored",
    "__version__",
]
