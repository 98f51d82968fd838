"""The package's exception types, and how a domain error is raised and shows its value."""

from __future__ import annotations

import math


class ParameterError(ValueError):
    """A caller-supplied parameter is outside the supported domain."""


class ResourceError(RuntimeError):
    """A computation would exceed a configured memory or size limit."""


def shown(value, form=str) -> str:
    """form(value), for an error message; an int too long for str() (past
    4,300 digits by default) is shown by its sign and its number of digits."""
    try:
        return form(value)
    except ValueError:
        if not isinstance(value, int):
            raise
    size = abs(value)
    digits = int(math.log10(size))  # floor(log10(size)), give or take one
    digits += (size >= 10**digits) + (size >= 10 ** (digits + 1))
    return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"


def reject(bad: bool, message: str, value, form=str) -> None:
    """Raise ParameterError("<message>, got <shown(value, form)>") if bad; format nothing if not."""
    if bad:
        raise ParameterError("%s, got %s" % (message, shown(value, form)))


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
            f"factorization effort exhausted on {shown(n)}: "
            f"composite cofactor {shown(cofactor)} unresolved"
        )
        self.n = n
        self.entries = entries
        self.cofactor = cofactor
