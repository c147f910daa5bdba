"""Numerics for two-base deformed oscillator algebras.

The library evaluates the five-parameter structure function and its
classical special cases, builds truncated Fock-space matrix
representations of the ladder algebra, realizes the same algebra by
difference operators on exponent series, computes the deformed
Hamiltonian spectrum in closed form, and solves and verifies the
coproduct coefficient system.  Every algebraic identity involved is
checked numerically to floating-point tolerance and reported as a
named-residual CheckReport.
"""

from .params import (
    DeformationParams,
    DegenerateDenominatorError,
    NegativeWeightError,
    NonPositiveBaseError,
    NotLowestWeightError,
    ParameterError,
    ZeroAlphaError,
    dual,
    validate,
)
from .structure import (
    ExponentOverflowError,
    arik_coon,
    arik_coon_generalized,
    biedenharn_macfarlane,
    bm_symmetric_generalized,
    bracket,
    checked_exp,
    f_general,
    pq_sum_oracle,
    standard_qm,
    two_parameter,
    two_parameter_symmetric_generalized,
)
from .report import CheckEntry, CheckReport
from .calculus import ExpSeries, check_realization, d_op, dilation_op, euler_op, mult_op
from .spectrum import (
    SpectrumTable,
    check_pq_inversion,
    hamiltonian_eigs,
    lambda_forms,
    lambda_n,
    spectrum_table,
)
from .coefficients import (
    ADegenerateError,
    Beta1Beta2MismatchError,
    GammaUndefinedError,
    HopfCoefficients,
    HopfParams,
    check_constraints,
    solve_coefficients,
    validate_hopf,
)

# Names whose modules import numpy load on first access (PEP 562), so that
# `import pqosc` and the scalar CLI commands never import it.
_LAZY = {
    "FockRep": "fock",
    "apply_word": "fock",
    "check_relations": "fock",
    "coproduct_matrix": "hopf",
    "check_coassociativity": "hopf",
    "check_counit": "hopf",
    "check_antipode": "hopf",
    "check_homomorphism": "hopf",
}
_LAZY_MODULES = ("fock", "hopf")


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY_MODULES:
        return import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_MODULES})


__version__ = "0.1.0"

__all__ = [
    "DeformationParams",
    "ParameterError",
    "NonPositiveBaseError",
    "DegenerateDenominatorError",
    "ZeroAlphaError",
    "validate",
    "dual",
    "bracket",
    "f_general",
    "checked_exp",
    "pq_sum_oracle",
    "standard_qm",
    "arik_coon",
    "arik_coon_generalized",
    "biedenharn_macfarlane",
    "bm_symmetric_generalized",
    "two_parameter",
    "two_parameter_symmetric_generalized",
    "ExponentOverflowError",
    "CheckEntry",
    "CheckReport",
    "FockRep",
    "NegativeWeightError",
    "NotLowestWeightError",
    "check_relations",
    "apply_word",
    "ExpSeries",
    "d_op",
    "mult_op",
    "euler_op",
    "dilation_op",
    "check_realization",
    "SpectrumTable",
    "spectrum_table",
    "lambda_n",
    "lambda_forms",
    "hamiltonian_eigs",
    "check_pq_inversion",
    "HopfParams",
    "HopfCoefficients",
    "validate_hopf",
    "solve_coefficients",
    "check_constraints",
    "coproduct_matrix",
    "check_coassociativity",
    "check_counit",
    "check_antipode",
    "check_homomorphism",
    "GammaUndefinedError",
    "ADegenerateError",
    "Beta1Beta2MismatchError",
    "__version__",
]
