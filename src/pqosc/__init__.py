"""Numerics for two-base deformed oscillator algebras.

The library evaluates the five-parameter structure function, whose
points at fixed parameters are the classical schemes, builds truncated
Fock-space matrix representations of the ladder algebra, realizes the
same algebra by difference operators on monomials z**e, computes the
deformed Hamiltonian spectrum in closed form, and solves and verifies
the coproduct coefficient system.  Every algebraic identity involved is
checked numerically to floating-point tolerance and reported as a
named-residual CheckReport.
"""

# Every public name loads its module on first access (PEP 562) and is then
# stored here, so `import pqosc` imports no submodule and a command loads only
# the modules it runs.  No module imports numpy.
_EXPORTS = {
    "params": (
        "DeformationParams",
        "ParameterError",
        "NonPositiveBaseError",
        "DegenerateDenominatorError",
        "ZeroAlphaError",
        "NotLowestWeightError",
        "GammaUndefinedError",
        "ADegenerateError",
        "Beta1Beta2MismatchError",
        "validate",
        "dual",
    ),
    "structure": (
        "bracket",
        "brackets",
        "f_general",
        "checked_exp",
        "pq_sum_oracle",
        "ExponentOverflowError",
    ),
    "report": ("CheckEntry", "CheckReport"),
    "fock": ("FockRep", "check_relations", "apply_word"),
    "calculus": ("check_realization",),
    "spectrum": (
        "SpectrumTable",
        "spectrum_table",
        "lambda_n",
        "lambda_forms",
        "hamiltonian_eigs",
        "check_pq_inversion",
    ),
    "coefficients": (
        "HopfParams",
        "HopfCoefficients",
        "validate_hopf",
        "solve_coefficients",
        "check_constraints",
    ),
    "hopf": (
        "check_coassociativity",
        "check_counit",
        "check_antipode",
        "check_homomorphism",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module: -X importtime logs only the
    # former, and `from . import spectrum` in cli comes through here.
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})


__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]
