"""Exact-arithmetic engine for symmetric-group characters of rectangular
shapes: border-strip evaluation, the pair-sum factorization of normalized
characters on p x q boxes, hook-product identities, residue formulas for
multi-rectangle shapes, their leading terms and lattice-path specializations,
and a polynomial-interpolation checker for the positivity conjecture."""

from .characters import mn_character, normalized_character
from .factorization import (
    catalan_pair_count,
    factorization_poly,
    narayana_refinement,
    sss_identity_check,
    theorem1_check,
)
from .frobenius import (
    f_k_polynomial,
    f_k_special_value,
    flipped_polynomial,
    frobenius_normalized,
    integrality_witness,
    rational_x_inverse_coefficient,
)
from .interpolation import (
    ConjectureReport,
    conjecture1_check,
    f_mu_interpolate,
    interpolation_grid,
    off_grid_fidelity,
)
from .leading import (
    elizalde_formula,
    g_k_leading,
    g_k_via_lagrange,
    gk_generating_check,
    narayana_check,
    narayana_number,
    s_k_from_coefficient_sums,
    s_k_sequence,
)
from .partitions import (
    cellset_hooks,
    cells,
    complement,
    conjugate,
    content,
    fits_in_box,
    format_partition,
    hook_lengths,
    hook_product,
    parse_partition,
    partitions_in_box,
    partitions_of,
    rectangle,
    sq_shape,
    syt_count,
)
from .permutations import canonical_permutation
from .polynomials import MultivarPoly, default_names
from .schur import lemma_check
from .series import PowerSeries
from .verify import VerifyReport, run_criteria

__version__ = "0.1.0"

__all__ = [
    "ConjectureReport",
    "MultivarPoly",
    "PowerSeries",
    "VerifyReport",
    "canonical_permutation",
    "catalan_pair_count",
    "cells",
    "cellset_hooks",
    "complement",
    "conjecture1_check",
    "conjugate",
    "content",
    "default_names",
    "elizalde_formula",
    "f_k_polynomial",
    "f_k_special_value",
    "f_mu_interpolate",
    "factorization_poly",
    "fits_in_box",
    "flipped_polynomial",
    "format_partition",
    "frobenius_normalized",
    "g_k_leading",
    "g_k_via_lagrange",
    "gk_generating_check",
    "hook_lengths",
    "hook_product",
    "integrality_witness",
    "interpolation_grid",
    "lemma_check",
    "mn_character",
    "narayana_check",
    "narayana_number",
    "narayana_refinement",
    "normalized_character",
    "off_grid_fidelity",
    "parse_partition",
    "partitions_in_box",
    "partitions_of",
    "rational_x_inverse_coefficient",
    "rectangle",
    "run_criteria",
    "s_k_from_coefficient_sums",
    "s_k_sequence",
    "sq_shape",
    "sss_identity_check",
    "syt_count",
    "theorem1_check",
]
