"""Exact Ramanujan-type sums over free abelian monoids with multiplicative
norms, with built-in rational-integer and quadratic-field instances."""

from .arith import (
    COMPLEX,
    FLOAT,
    INT,
    RATIONAL,
    ArithFn,
    DownsetTable,
    abel_sum,
    convolve,
    delta,
    dirichlet_inverse,
    jordan_totient,
    mobius,
    mobius_fn,
    norm_fn,
    one,
    von_mangoldt,
    von_mangoldt_by_divisors,
)
from .csums import (
    DoubleSumReport,
    IdentityReport,
    ZetaTruncation,
    common_divisor_sum,
    density_fit,
    divisibility_identity,
    divisor_sum_identity,
    double_sum,
    first_argument_convolution,
    fit_bound_constant,
    fixed_k_partial,
    harmonic_partial,
    jordan_like_local_form,
    mobius_pair_profile,
    ramanujan_sum,
    residue_series,
    residue_target,
    second_argument_convolution,
    zeta_partial,
)
from .fields import (
    FieldInvariants,
    InconclusiveEstimateError,
    QuadraticFieldDescriptor,
    SplittingRecord,
    class_number_from_counting,
    class_number_imaginary,
    factor_integer,
    fundamental_unit,
    kronecker,
    quadratic_field,
    rational_integers,
    regulator_real,
    residue_constant,
    split_prime,
)
from .monoid import ZERO, Atom, DensityMeta, Element, MonoidInstance

__version__ = "0.1.0"
