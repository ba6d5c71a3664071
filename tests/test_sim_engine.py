"""Discrete-event simulation kernel: events, processes, run loop."""

import pytest

from repro.errors import SimulationError
from repro.sim import Event, Interrupt, Simulator


class TestEvents:
    def test_timeout_fires_at_delay(self):
        sim = Simulator()
        ev = sim.timeout(10.0, value="done")
        sim.run()
        assert ev.processed and ev.value == "done"
        assert sim.now == 10.0

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_event_succeed_once(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")  # type: ignore[arg-type]

    def test_callback_after_processed_runs_immediately(self):
        sim = Simulator()
        ev = sim.timeout(0.0)
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [None]

    def test_all_of_collects_values(self):
        sim = Simulator()
        evs = [sim.timeout(i, value=i) for i in (3.0, 1.0, 2.0)]
        combined = sim.all_of(evs)
        sim.run()
        assert combined.value == [3.0, 1.0, 2.0]
        assert sim.now == 3.0

    def test_all_of_empty_fires_immediately(self):
        sim = Simulator()
        combined = sim.all_of([])
        sim.run()
        assert combined.processed and combined.value == []

    def test_any_of_first_wins(self):
        sim = Simulator()
        evs = [sim.timeout(5.0, value="slow"), sim.timeout(1.0, value="fast")]
        first = sim.any_of(evs)
        sim.run(until=first)
        assert first.value == "fast"

    def test_any_of_empty_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.any_of([])


class TestRunLoop:
    def test_run_until_time_advances_clock(self):
        sim = Simulator()
        sim.timeout(100.0)
        sim.run(until=50.0)
        assert sim.now == 50.0

    def test_run_until_past_deadline_rejected(self):
        sim = Simulator()
        sim.run(until=10.0)
        with pytest.raises(SimulationError):
            sim.run(until=5.0)

    def test_run_until_event_returns_value(self):
        sim = Simulator()
        ev = sim.timeout(4.0, value=17)
        assert sim.run(until=ev) == 17

    def test_run_until_event_propagates_failure(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run(until=ev)

    def test_run_until_unreachable_event_raises(self):
        sim = Simulator()
        target = sim.event()  # never triggered
        sim.timeout(1.0)
        with pytest.raises(SimulationError):
            sim.run(until=target)

    def test_step_on_empty_heap_raises(self):
        with pytest.raises(SimulationError):
            Simulator().step()

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.timeout(9.0)
        assert sim.peek() == 9.0

    def test_deterministic_tiebreak(self):
        # Two events at the same time process in scheduling order.
        order = []
        sim = Simulator()
        sim.timeout(5.0).add_callback(lambda e: order.append("first"))
        sim.timeout(5.0).add_callback(lambda e: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_event_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.timeout(float(i))
        sim.run()
        assert sim.processed_events == 5


class TestSucceedNow:
    def test_resumes_waiting_process_inside_the_call(self):
        sim = Simulator()
        gate = sim.event()
        log = []

        def waiter():
            value = yield gate
            log.append(("resumed", value, sim.now))
            yield sim.timeout(2.0)
            log.append(("done", sim.now))

        def opener():
            yield sim.timeout(5.0)
            gate.succeed_now("go")
            # The waiter already ran up to its next yield.
            log.append(("opened", sim.peek()))

        sim.process(waiter())
        sim.process(opener())
        sim.run()
        assert log == [("resumed", "go", 5.0), ("opened", 7.0), ("done", 7.0)]

    def test_never_enters_the_heap(self):
        sim = Simulator()
        ev = sim.event().succeed_now(1)
        assert ev.processed and ev.value == 1
        sim.run()
        assert sim.processed_events == 0
        with pytest.raises(SimulationError):
            ev.succeed_now(2)


class TestProcesses:
    def test_process_sequencing(self):
        sim = Simulator()
        trace = []

        def proc():
            trace.append(("start", sim.now))
            yield sim.timeout(10.0)
            trace.append(("mid", sim.now))
            got = yield sim.timeout(5.0, value="payload")
            trace.append((got, sim.now))
            return "finished"

        p = sim.process(proc())
        result = sim.run(until=p)
        assert result == "finished"
        assert trace == [("start", 0.0), ("mid", 10.0), ("payload", 15.0)]

    def test_nested_processes(self):
        sim = Simulator()

        def child():
            yield sim.timeout(3.0)
            return 42

        def parent():
            value = yield sim.process(child())
            return value + 1

        assert sim.run(until=sim.process(parent())) == 43

    def test_process_exception_propagates(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("inside process")

        p = sim.process(bad())
        with pytest.raises(ValueError, match="inside process"):
            sim.run(until=p)

    def test_yield_non_event_fails_process(self):
        sim = Simulator()

        def wrong():
            yield 5  # type: ignore[misc]

        p = sim.process(wrong())
        with pytest.raises(SimulationError):
            sim.run(until=p)

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_interrupt(self):
        sim = Simulator()
        caught = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as exc:
                caught.append(exc.cause)
                return "interrupted"
            return "slept"

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(1.0)
            p.interrupt(cause="wakeup")

        sim.process(interrupter())
        assert sim.run(until=p) == "interrupted"
        assert caught == ["wakeup"]

    def test_interrupt_finished_process_rejected(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(0.0)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_is_alive(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(5.0)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive
