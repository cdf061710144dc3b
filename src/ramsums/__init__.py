"""Exact Ramanujan-type sums over free abelian monoids with multiplicative
norms, with built-in rational-integer and quadratic-field instances.

The public names are imported from their submodules on first access (PEP
562): a command loads only the modules its work needs, and numpy only with
its first array.
"""

import importlib
import os

# Nothing here needs threaded BLAS (one small least-squares fit), but when
# numpy loads, OpenBLAS starts a worker for each further core, which spins
# for about 0.1 s before it sleeps and competes with the main thread.  Load
# it with one thread unless the caller has chosen a count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "arith": "COMPLEX FLOAT INT RATIONAL ArithFn DownsetTable abel_sum convolve delta"
        " dirichlet_inverse jordan_totient mobius mobius_fn norm_fn one von_mangoldt"
        " von_mangoldt_by_divisors",
        "csums": "DivisorDownset DoubleSumReport IdentityReport common_divisor_sum csum_block"
        " divisibility_identity divisor_sum_identity double_sum double_sums"
        " first_argument_convolution jordan_like_local_form ramanujan_sum"
        " second_argument_convolution",
        "fields": "FieldInvariants InconclusiveEstimateError QuadraticFieldDescriptor"
        " SplittingRecord class_number_from_counting class_number_imaginary factor_integer"
        " fundamental_unit kronecker quadratic_field rational_integers regulator_real"
        " residue_constant split_prime",
        "series": "ZetaTruncation density_fit fit_bound_constant fixed_k_partial"
        " harmonic_partial mobius_pair_profile residue_scan residue_series residue_target"
        " zeta_partial",
        "monoid": "ZERO Atom DensityMeta Element LabelCodec MonoidInstance",
    }.items()
    for name in names.split()
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
