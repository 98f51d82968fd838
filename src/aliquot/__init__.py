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

from .alpha import AlphaParams, AlphaResult, alpha_upper_bound
from .arith import Factorization, aliquot_sum, factorize, is_prime, nu, sigma, sigma_oracle
from .beta import BetaSummary, beta_lower
from .errors import ParameterError, ResourceError, SSetBudgetExceeded, UnresolvedCofactorError
from .means import arithmetic_mean, closed_form, log_mean
from .numerics import CertifiedValue, certified_combine, compensated_sum
from .primes import factored_range, primes_in_range
from .trajectory import TrajectoryRecord, trace

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
