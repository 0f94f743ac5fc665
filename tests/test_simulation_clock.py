"""Tests for repro.simulation.clock."""

import pytest

from repro.network.channels import ATTEMPT_DURATION_S, DECOHERENCE_TIME_S
from repro.simulation.clock import SlotClock


class TestSlotClock:
    def test_slot_duration(self):
        clock = SlotClock(attempts_per_slot=4000)
        assert clock.slot_duration == pytest.approx(4000 * ATTEMPT_DURATION_S)

    def test_slot_boundaries(self):
        clock = SlotClock(attempts_per_slot=100, attempt_duration=0.01)
        assert clock.slot_start(0) == 0.0
        assert clock.slot_start(3) == pytest.approx(3.0)
        assert clock.slot_end(0) == pytest.approx(1.0)

    def test_attempt_time(self):
        clock = SlotClock(attempts_per_slot=100, attempt_duration=0.01)
        assert clock.attempt_time(2, 50) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            clock.attempt_time(0, 101)

    def test_slot_of_time(self):
        clock = SlotClock(attempts_per_slot=100, attempt_duration=0.01)
        assert clock.slot_of_time(0.5) == 0
        assert clock.slot_of_time(1.5) == 1

    def test_guard_time_extends_slot(self):
        clock = SlotClock(attempts_per_slot=100, attempt_duration=0.01, guard_time=0.5)
        assert clock.slot_duration == pytest.approx(1.5)

    def test_paper_slot_fits_decoherence(self):
        assert SlotClock(attempts_per_slot=4000).fits_within_decoherence(DECOHERENCE_TIME_S)

    def test_negative_slot_rejected(self):
        with pytest.raises(ValueError):
            SlotClock().slot_start(-1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SlotClock(attempts_per_slot=0)

    def test_guard_time_round_trip(self):
        # With a guard band, slot t spans [t*(window+guard), ...+window+guard)
        # and the attempt grid still lives in the first `window` seconds.
        clock = SlotClock(attempts_per_slot=10, attempt_duration=0.1, guard_time=0.5)
        assert clock.slot_start(2) == pytest.approx(3.0)
        assert clock.slot_end(2) == pytest.approx(4.5)
        assert clock.attempt_time(2, 10) == pytest.approx(4.0)
        for t in range(4):
            assert clock.slot_of_time(clock.slot_start(t)) == t
            assert clock.slot_of_time(clock.slot_end(t) - 1e-9) == t

