"""Exact Ramanujan-type sums over free abelian monoids with multiplicative
norms, with built-in rational-integer and quadratic-field instances."""

import os

# Nothing here needs threaded BLAS (one small least-squares fit), but when
# numpy loads, OpenBLAS starts a worker for each further core, which spins
# for about 0.1 s before it sleeps and competes with the main thread.  Load
# it with one thread unless the caller has chosen a count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
    divisibility_sums,
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
from .monoid import ZERO, Atom, DensityMeta, Element, LabelCodec, MonoidInstance

__version__ = "0.1.0"
