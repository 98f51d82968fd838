"""Exception types shared across the package."""

from __future__ import annotations


class ParameterError(ValueError):
    """A caller-supplied parameter is outside the supported domain."""


class ResourceError(RuntimeError):
    """A computation would exceed a configured memory or size limit."""


class SSetBudgetExceeded(ResourceError):
    """Exceptional-set enumeration ran past its node budget.

    Raised only by beta.s_set, the paper's exhaustive search; the
    certificate never searches.  Carries the number of set members found
    before the budget ran out, for error reports.
    """

    def __init__(self, message: str, partial_count: int):
        super().__init__(message)
        self.partial_count = partial_count


class UnresolvedCofactorError(RuntimeError):
    """Factorization effort was exhausted on a composite cofactor.

    The partial factorization found so far is preserved in ``entries``
    (sorted (prime, exponent) pairs) together with the unfactored composite
    ``cofactor``; ``entries`` times ``cofactor`` equals the original input.
    Never raised with a wrong answer: the cofactor is guaranteed composite.
    """

    def __init__(self, n: int, entries: tuple, cofactor: int):
        super().__init__(
            f"factorization effort exhausted on {n}: composite cofactor {cofactor} unresolved"
        )
        self.n = n
        self.entries = entries
        self.cofactor = cofactor
