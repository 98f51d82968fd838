"""Aliquot sequence tracing.

Iterates n -> s(n) (sum of divisors below n) from a starting value,
recording the orbit until it reaches 1, enters a cycle, exhausts the
factoring effort, or hits the step limit.  Terms are arbitrary-size
integers; sequences routinely outgrow 64 bits.

Each recorded index whose term is a square or twice a square is flagged:
those are exactly the places where the parity of the next term may flip,
since sigma(n) is odd only for such n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .arith import aliquot_sum
from .errors import ParameterError, UnresolvedCofactorError

TERMINATES_AT_1 = "terminates_at_1"
CYCLE = "cycle"
EFFORT_EXHAUSTED = "effort_exhausted"
STEP_LIMIT_REACHED = "step_limit_reached"


@dataclass(frozen=True)
class Classification:
    kind: str
    cycle_length: int | None = None
    cycle_entry: int | None = None


@dataclass
class TrajectoryRecord:
    """One aliquot sequence run.

    terms[0] is the start; terms[i+1] = s(terms[i]) for every recorded
    step.  For a cycle classification the final term repeats the term at
    index cycle_entry, and cycle_length is minimal.  parity_events lists
    every index whose term is a perfect square or twice one.
    """

    start: int
    terms: list[int]
    classification: Classification
    parity_events: list[int] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        """JSON-ready dict; integers as decimal strings (they can be huge)."""
        return {
            "schema_version": 1,
            "start": str(self.start),
            "terms": [str(t) for t in self.terms],
            "classification": {
                "kind": self.classification.kind,
                "cycle_length": self.classification.cycle_length,
                "cycle_entry": self.classification.cycle_entry,
            },
            "parity_events": list(self.parity_events),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def is_square_or_twice_square(n: int) -> bool:
    r = math.isqrt(n)
    if r * r == n:
        return True
    if n % 2 == 0:
        h = n // 2
        r = math.isqrt(h)
        return r * r == h
    return False


def trace(start: int, max_steps: int = 1000, rho_budget: int = 500_000) -> TrajectoryRecord:
    """Trace the aliquot sequence from ``start``.

    Stops when a term reaches 1, when the current term was seen before
    (cycle, detected by membership in the set of previous terms), when a
    term cannot be factored within ``rho_budget`` rho iterations per term
    (classification effort_exhausted, not an error), or after max_steps
    applications of s.
    """
    if start < 2:
        raise ParameterError(f"trace requires start >= 2, got {start}")
    if max_steps < 0:
        raise ParameterError(f"max_steps must be >= 0, got {max_steps}")
    if rho_budget < 0:
        raise ParameterError(f"rho_budget must be >= 0, got {rho_budget}")
    terms = [start]
    seen = {start: 0}
    parity_events = []
    if is_square_or_twice_square(start):
        parity_events.append(0)
    classification = Classification(STEP_LIMIT_REACHED)
    for _ in range(max_steps):
        current = terms[-1]
        if current == 1:
            classification = Classification(TERMINATES_AT_1)
            break
        try:
            nxt = aliquot_sum(current, rho_budget)
        except UnresolvedCofactorError:
            classification = Classification(EFFORT_EXHAUSTED)
            break
        terms.append(nxt)
        if is_square_or_twice_square(nxt):
            parity_events.append(len(terms) - 1)
        if nxt in seen:
            entry = seen[nxt]
            classification = Classification(
                CYCLE, cycle_length=len(terms) - 1 - entry, cycle_entry=entry
            )
            break
        seen[nxt] = len(terms) - 1
        if nxt == 1:
            classification = Classification(TERMINATES_AT_1)
            break
    else:
        classification = Classification(STEP_LIMIT_REACHED)
    return TrajectoryRecord(start, terms, classification, parity_events)
