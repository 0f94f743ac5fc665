"""Tests for repro.simulation.clock and repro.simulation.events."""

import pytest

from repro.network.channels import ATTEMPT_DURATION_S, DECOHERENCE_TIME_S
from repro.simulation.clock import SlotClock
from repro.simulation.events import EventLoop, EventQueue


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


class TestEventQueue:
    def test_time_ordering(self):
        queue = EventQueue()
        queue.push(3.0, name="late")
        queue.push(1.0, name="early")
        queue.push(2.0, name="middle")
        assert [queue.pop().name for _ in range(3)] == ["early", "middle", "late"]

    def test_fifo_tie_breaking(self):
        queue = EventQueue()
        queue.push(1.0, name="first")
        queue.push(1.0, name="second")
        assert queue.pop().name == "first"
        assert queue.pop().name == "second"

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        queue.push(1.0, name="only")
        assert queue.peek().name == "only"
        assert len(queue) == 1

    def test_empty_peek(self):
        assert EventQueue().peek() is None

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0)

    def test_interleaved_tie_breaking_is_push_order(self):
        queue = EventQueue()
        queue.push(2.0, name="a")
        queue.push(1.0, name="b")
        assert queue.pop().name == "b"
        queue.push(2.0, name="c")
        queue.push(2.0, name="d")
        assert [queue.pop().name for _ in range(3)] == ["a", "c", "d"]

    def test_cancel_removes_event(self):
        queue = EventQueue()
        keep = queue.push(1.0, name="keep")
        drop = queue.push(2.0, name="drop")
        assert queue.cancel(drop) is True
        assert len(queue) == 1
        assert queue.pop() is keep
        with pytest.raises(IndexError):
            queue.pop()

    def test_cancel_heap_top_before_peek(self):
        queue = EventQueue()
        first = queue.push(1.0, name="first")
        queue.push(2.0, name="second")
        queue.cancel(first)
        assert queue.peek().name == "second"

    def test_cancel_is_idempotent_and_refuses_done_events(self):
        queue = EventQueue()
        event = queue.push(1.0)
        assert queue.cancel(event) is True
        assert queue.cancel(event) is False  # already cancelled
        done = queue.push(2.0)
        assert queue.pop() is done
        assert queue.cancel(done) is False  # already processed
        assert len(queue) == 0


class TestEventLoop:
    def test_callbacks_run_in_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(2.0, name="b", callback=lambda s, e: order.append(e.name))
        loop.schedule(1.0, name="a", callback=lambda s, e: order.append(e.name))
        processed = loop.run()
        assert processed == 2
        assert order == ["a", "b"]
        assert loop.now == pytest.approx(2.0)

    def test_callbacks_can_schedule_followups(self):
        loop = EventLoop()
        seen = []

        def relay(sim, event):
            seen.append(sim.now)
            if len(seen) < 3:
                sim.schedule(1.0, name="relay", callback=relay)

        loop.schedule(1.0, name="relay", callback=relay)
        loop.run()
        assert seen == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]

    def test_run_until(self):
        loop = EventLoop()
        fired = []
        for t in (1.0, 2.0, 5.0):
            loop.schedule(t, callback=lambda s, e: fired.append(e.time))
        loop.run(until=3.0)
        assert fired == [1.0, 2.0]
        assert len(loop.queue) == 1

    def test_run_max_events(self):
        loop = EventLoop()
        for t in range(5):
            loop.schedule(float(t + 1))
        assert loop.run(max_events=3) == 3
        assert loop.events_processed == 3

    def test_cannot_schedule_in_past(self):
        loop = EventLoop()
        loop.schedule(1.0, callback=None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule_at(0.5)

    def test_run_until_advances_clock_when_idle(self):
        loop = EventLoop()
        loop.run(until=4.0)
        assert loop.now == pytest.approx(4.0)

    def test_run_until_advances_clock_past_pending_events(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, callback=lambda s, e: fired.append(e.time))
        loop.schedule(5.0, callback=lambda s, e: fired.append(e.time))
        loop.run_until(3.0)
        assert fired == [1.0]
        assert loop.now == pytest.approx(3.0)  # advanced despite the pending event
        loop.run_until(6.0)
        assert fired == [1.0, 5.0]

    def test_cancelled_event_does_not_fire(self):
        loop = EventLoop()
        fired = []
        event = loop.schedule(1.0, name="doomed", callback=lambda s, e: fired.append(e.name))
        loop.schedule(2.0, name="kept", callback=lambda s, e: fired.append(e.name))
        assert loop.cancel(event) is True
        loop.run()
        assert fired == ["kept"]

    def test_callback_can_cancel_a_later_event(self):
        loop = EventLoop()
        fired = []
        victim = loop.schedule(2.0, name="victim", callback=lambda s, e: fired.append(e.name))
        loop.schedule(1.0, name="assassin", callback=lambda s, e: s.cancel(victim))
        assert loop.run() == 1
        assert fired == []


class TestTimer:
    def test_repeating_timer_fires_on_the_grid(self):
        loop = EventLoop()
        fires = []
        timer = loop.schedule_repeating(
            1.0, name="tick", callback=lambda s, e: fires.append(s.now)
        )
        loop.run_until(3.5)
        assert fires == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]
        assert timer.fires == 3

    def test_first_fire_override(self):
        loop = EventLoop()
        fires = []
        loop.schedule_repeating(
            2.0, first=0.5, callback=lambda s, e: fires.append(s.now)
        )
        loop.run_until(5.0)
        assert fires == [pytest.approx(0.5), pytest.approx(2.5), pytest.approx(4.5)]

    def test_cancel_stops_rescheduling(self):
        loop = EventLoop()
        fires = []
        timer = loop.schedule_repeating(1.0, callback=lambda s, e: fires.append(s.now))
        loop.run_until(2.5)
        timer.cancel()
        assert timer.cancelled
        loop.run_until(10.0)
        assert len(fires) == 2

    def test_callback_can_cancel_its_own_timer(self):
        loop = EventLoop()
        fires = []

        def once(sim, event):
            fires.append(sim.now)
            timer.cancel()

        timer = loop.schedule_repeating(1.0, callback=once)
        loop.run_until(5.0)
        assert fires == [pytest.approx(1.0)]

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule_repeating(0.0)
