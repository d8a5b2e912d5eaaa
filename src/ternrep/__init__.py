"""Constructive representation of integers by four ternary quadratic forms.

The package decides representability by x^2+2y^2+2z^2 and x^2+y^2+2z^2
exactly, constructs representations for the covered congruence classes of
x^2+y^2+3z^2 and x^2+y^2+7z^2, and ships an independent brute-force oracle
for auditing every claim.
"""

from .arith import PRIMALITY_LIMIT, crt, inv_mod, is_prime, sqrt_mod_prime
from .cases import CaseProfile, PROFILES, select_case
from .descent import compose, represent_binary
from .errors import (
    InternalError,
    NonCoprimeModuliError,
    NonResidueError,
    NotInvertibleError,
    NotRepresentableError,
    ResourceCapError,
    TernrepError,
)
from .factor import RHO_STEP_BUDGET, factorize, ord_p, squarefree_decompose
from .forms import (
    Eligibility,
    EligibilityVerdict,
    TernaryForm,
    eligibility,
    evaluate,
    lift_representation,
    reduce_to_core,
)
from .oracle import (
    ORACLE_STEP_BUDGET,
    POOL_MIN_ROWS,
    SCAN_HI_LIMIT,
    ScanReport,
    ScanRow,
    brute_force_ternary,
    first_triples,
    oracle_triple,
    represented_bits,
    scan_compare,
)
from .lattice import enumerate_point
from .pipeline import (
    Q_CANDIDATE_BUDGET,
    Construction,
    Witness,
    build_witness,
    construction_frame,
    find_q,
    solve_bh,
    solve_t,
    verify_witness,
    witness_fields,
    witness_from_fields,
    witness_problems,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "is_prime", "sqrt_mod_prime", "inv_mod", "crt", "PRIMALITY_LIMIT",
    "factorize", "squarefree_decompose", "ord_p", "RHO_STEP_BUDGET",
    "TernaryForm", "Eligibility", "EligibilityVerdict",
    "eligibility", "evaluate", "reduce_to_core", "lift_representation",
    "CaseProfile", "PROFILES", "select_case",
    "compose", "represent_binary",
    "brute_force_ternary", "first_triples", "oracle_triple", "ORACLE_STEP_BUDGET",
    "represented_bits", "SCAN_HI_LIMIT", "POOL_MIN_ROWS", "ScanRow", "ScanReport",
    "scan_compare",
    "Construction", "Witness", "build_witness", "construction_frame", "find_q",
    "solve_t", "solve_bh", "enumerate_point", "Q_CANDIDATE_BUDGET",
    "verify_witness",
    "witness_problems", "witness_fields", "witness_from_fields",
    "TernrepError", "NonResidueError", "NotInvertibleError",
    "NonCoprimeModuliError", "NotRepresentableError",
    "ResourceCapError", "InternalError",
]
