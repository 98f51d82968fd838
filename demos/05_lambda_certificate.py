# End-to-end certificate that the aliquot growth constant is negative.
#
# lambda = alpha - beta.  alpha gets a certified upper bound, beta a
# certified lower bound (main terms over odd n <= N_j, each odd tail past
# N_j charged one moment bound, Rankin's device), and the difference is
# rounded pessimistically.
# lambda < 0 means mu = e^lambda < 1: even aliquot sequences shrink on
# geometric average.
#
# This demo runs a reduced configuration in about a second; the package
# defaults (alpha N=1e6, beta N_j=1e7) certify lambda <= -0.031565 in a
# few seconds via `alq lambda`.

from aliquot.alpha import AlphaParams, alpha_upper_bound
from aliquot.beta import BetaJConfig, beta_lower
from aliquot.cli import combine_lambda

alpha_result = alpha_upper_bound(AlphaParams(10**5, 15, 15))
print(f"alpha <= {alpha_result.upper_bound:.8f}")

configs = [BetaJConfig(j, 10**6) for j in range(1, 9)]
beta_result = beta_lower(configs)
print(f"beta  >= {beta_result.lower_bound:.8f}")
for r in beta_result.reports:
    print(
        f"   j={r.config.j}: main={r.main.value:+.6f}"
        f"  tail bound={r.s_bound:.2e}"
        f"  contributes >= {r.contribution_lower:.6f}"
    )

report = combine_lambda(alpha_result, beta_result)
print(f"\nlambda <= {report.lambda_upper:.8f}")
print(f"mu     <= {report.mu_upper:.8f}  (< 1: shrinking on average)")
