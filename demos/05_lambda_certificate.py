# End-to-end certificate that the aliquot growth constant is negative.
#
# lambda = alpha - beta.  alpha gets a certified upper bound, beta a
# certified lower bound, and the difference is rounded pessimistically.
# Each j-term of beta is (z_j/j) * prod over odd primes p of beta_j(p):
# the product runs over the primes p <= P as a certified sum of
# log beta_j(p), and the primes past P cost at most a factor 1 - j T(P),
# T(P) = 2 * 1.25506 / (P log P).
# lambda < 0 means mu = e^lambda < 1: even aliquot sequences shrink on
# geometric average.
#
# This demo runs a reduced configuration (alpha N=1e5, beta P=1e5, J=16)
# in about a second; the package defaults (alpha N=1e6, beta P=1e6,
# J=32) certify lambda <= -0.033258 in under a second via `alq lambda`.

from aliquot.alpha import alpha_upper_bound
from aliquot.beta import beta_lower
from aliquot.cli import combine_lambda

alpha_result = alpha_upper_bound(10**5)
print(f"alpha <= {alpha_result.upper_bound:.8f}")

beta_result = beta_lower(16, 10**5)
print(f"beta  >= {beta_result.lower_bound:.8f}")
for r in beta_result.reports:
    print(
        f"   j={r.j:2d}: log-product={r.log_product.value:+.8f}"
        f"  term={r.main.value:.3e}"
        f"  primes past P: x(1 - {r.tail_charge:.2e})"
        f"  contributes >= {r.contribution_lower:.3e}"
    )

report = combine_lambda(alpha_result, beta_result)
print(f"\nlambda <= {report.lambda_upper:.8f}")
print(f"mu     <= {report.mu_upper:.8f}  (< 1: shrinking on average)")
