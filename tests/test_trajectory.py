import json
import random

import pytest

from aliquot.arith import aliquot_sum, factorize, sigma
from aliquot.errors import ParameterError
from aliquot.trajectory import (
    Classification,
    TrajectoryRecord,
    is_square_or_twice_square,
    trace,
)


class TestFixtures:
    def test_twelve_terminates(self):
        r = trace(12, 50)
        assert r.terms == [12, 16, 15, 9, 4, 3, 1]
        assert r.classification.kind == "terminates_at_1"
        # 16, 9 and 4 are squares; the parity of the next term flips there.
        assert {1, 3, 4} <= set(r.parity_events)

    def test_perfect_number_cycle(self):
        r = trace(6, 50)
        assert r.classification.kind == "cycle"
        assert r.classification.cycle_length == 1
        assert r.classification.cycle_entry == 0
        assert r.terms == [6, 6]

    def test_amicable_pair(self):
        assert sigma(factorize(220)) == sigma(factorize(284)) == 504
        r = trace(220, 50)
        assert r.classification.kind == "cycle"
        assert r.classification.cycle_length == 2
        assert r.terms == [220, 284, 220]

    def test_square_start_changes_parity(self):
        r = trace(25, 50)
        assert r.terms == [25, 6, 6]
        assert r.classification.kind == "cycle"
        assert r.classification.cycle_entry == 1
        assert 0 in r.parity_events

    def test_second_amicable_pair(self):
        r = trace(1184, 50)
        assert r.terms == [1184, 1210, 1184]
        assert r.classification.cycle_length == 2

    def test_all_perfect_numbers_to_1e4(self):
        for p in (6, 28, 496, 8128):
            r = trace(p, 5)
            assert r.classification.kind == "cycle"
            assert r.classification.cycle_length == 1


class TestContracts:
    def test_replay_reproduces_terms(self):
        r = trace(138, 30)
        for i in range(len(r.terms) - 1):
            assert r.terms[i + 1] == aliquot_sum(r.terms[i])

    def test_step_limit(self):
        r = trace(138, 3)
        assert r.classification.kind == "step_limit_reached"
        assert len(r.terms) == 4

    def test_effort_exhausted_is_classification(self):
        p = 1000000000000066600000000000001
        q = 100000000000000000000000000000253
        r = trace(p * q, 10, rho_budget=0)
        assert r.classification.kind == "effort_exhausted"
        assert r.terms == [p * q]

    def test_rejects_small_start(self):
        with pytest.raises(ParameterError):
            trace(1)

    def test_rejects_negative_budget(self):
        with pytest.raises(ParameterError):
            trace(12, 10, rho_budget=-5)

    def test_parity_preserved_off_events(self):
        rng = random.Random(42)
        starts = [2 * rng.randrange(1, 500_000) for _ in range(1000)]
        for start in starts:
            r = trace(start, 50, rho_budget=20_000)
            for i in range(len(r.terms) - 1):
                if r.terms[i] > 1 and r.terms[i] % 2 != r.terms[i + 1] % 2:
                    assert i in r.parity_events

    def test_parity_event_definition(self):
        r = trace(12, 50)
        for i, term in enumerate(r.terms):
            assert (i in r.parity_events) == is_square_or_twice_square(term)


class TestSquareDetection:
    @pytest.mark.parametrize("n,expected", [
        (4, True), (9, True), (16, True), (25, True),
        (2, True), (8, True), (18, True), (50, True),
        (3, False), (6, False), (12, False), (20, False),
    ])
    def test_values(self, n, expected):
        assert is_square_or_twice_square(n) is expected


class TestSerialization:
    def test_json_round_trip_fields(self):
        r = trace(220, 10)
        doc = json.loads(r.to_json())
        assert doc["schema_version"] == 1
        assert doc["start"] == "220"
        assert doc["terms"] == ["220", "284", "220"]
        assert doc["classification"]["kind"] == "cycle"
        assert doc["classification"]["cycle_length"] == 2

    def test_big_integers_as_strings(self):
        big = 10**40 + 9
        rec = TrajectoryRecord(big, [big], Classification("step_limit_reached"))
        doc = rec.to_json_dict()
        assert doc["terms"] == [str(big)]
