"""Exact homological calculator for FI-modules and FI-chain complexes.

Everything is truncated matrix data over Z or Q: an FI-module is its
levels up to a truncation N with inclusion and transposition matrices,
homology is computed by the cube complex over subsets, and the bound
calculus evaluates the closed-form degree inequalities.  All arithmetic
is exact (int / Fraction); nothing here floats.
"""

from .linalg import (
    AbelianClass, CompositionError, Matrix, QQ, QuotientCoords, SNFResult,
    ZZ, block_matrix, det, elementary_divisors, homology_class, kernel_basis,
    rank, rref, snf, solve_matrix,
)
from .fimodule import (
    CokernelTorsionError, FBData, FIModule, FIMorphism, ShiftData,
    colim_compare, direct_sum, face_matrices, fi_coker, free_fi_module,
    free_morphism, regular_fbdata, representable,
    representable_basis_injections, shift_module, truncate, validate,
    validate_morphism, zero_module,
)
from .homology import (
    DegreeProfile, Estimate, FIHComplexAt, degrees, delta_estimate,
    fih_chain_complex, fih_group, hmax_estimate, subset_layout,
)
from .complexes import (
    FIComplex, TotalComplexAt, complex_from_morphisms, hyper_degrees,
    hyper_total_complex, levelwise_homology_module, validate_complex,
)
from .bounds import (
    BoundReport, CubeSpec, DegreeSeq, NEG_INF, POS_INF, bahran_bounds,
    ce_propagate, chain_cube_min, chain_cube_spec, cohomology_bounds,
    conf_bounds, cube_cartesianity, gan_li_bounds, going_down_bounds,
    going_up_bound, is_finite, partition_min, partition_min_exhaustive,
    set_partitions, strongly_cocartesian_spec,
)
from .io import ParseError, ValidationError, parse, serialize
from .generate import gen_coker, gen_complex, gen_free, generate
from .verify import SUITES, SuiteReport, run_suite

__version__ = "0.1.0"
