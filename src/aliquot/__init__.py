"""Certified bounds for the aliquot growth constant and supporting tools.

The package computes, with rigorous error accounting:

* an upper bound for the constant alpha (per-prime logarithmic series),
* a lower bound for the constant beta (signed multiplicative series),
* their difference lambda = alpha - beta, whose negativity means even
  aliquot sequences shrink on geometric average,
* empirical arithmetic and logarithmic means of s(n)/n by residue class,
* aliquot sequence traces with cycle and parity-change classification.

s(n) is the sum of divisors of n below n.
"""

from importlib import import_module

# Each public name and the submodule that defines it.  A name's submodule is
# imported on first access (PEP 562), so ``import aliquot`` and the verbs that
# need no numeric module (trace, help, usage errors) never load numpy.
_EXPORTS = {
    "AlphaParams": "alpha",
    "AlphaResult": "alpha",
    "alpha_upper_bound": "alpha",
    "Factorization": "arith",
    "aliquot_sum": "arith",
    "factorize": "arith",
    "is_prime": "arith",
    "nu": "arith",
    "sigma": "arith",
    "sigma_oracle": "arith",
    "BetaSummary": "beta",
    "beta_lower": "beta",
    "ParameterError": "errors",
    "ResourceError": "errors",
    "SSetBudgetExceeded": "errors",
    "UnresolvedCofactorError": "errors",
    "arithmetic_mean": "means",
    "closed_form": "means",
    "log_mean": "means",
    "CertifiedValue": "numerics",
    "certified_combine": "numerics",
    "compensated_sum": "numerics",
    "factored_range": "primes",
    "primes_in_range": "primes",
    "TrajectoryRecord": "trajectory",
    "trace": "trajectory",
}

__version__ = "0.1.0"

__all__ = [
    "AlphaParams",
    "AlphaResult",
    "BetaSummary",
    "CertifiedValue",
    "Factorization",
    "ParameterError",
    "ResourceError",
    "SSetBudgetExceeded",
    "TrajectoryRecord",
    "UnresolvedCofactorError",
    "aliquot_sum",
    "alpha_upper_bound",
    "arithmetic_mean",
    "beta_lower",
    "certified_combine",
    "closed_form",
    "compensated_sum",
    "factored_range",
    "factorize",
    "is_prime",
    "log_mean",
    "nu",
    "primes_in_range",
    "sigma",
    "sigma_oracle",
    "trace",
    "__version__",
]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
