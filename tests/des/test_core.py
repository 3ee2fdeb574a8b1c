"""Unit tests for the DES kernel core: environment, events, processes."""

import pytest

from repro.des import (
    EmptySchedule,
    Environment,
    Event,
    Interrupt,
    StopProcess,
)


def test_environment_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_environment_initial_time():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(3)
        seen.append(env.now)
        yield env.timeout(4)
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [3, 7]


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()
    result = []

    def proc(env):
        value = yield env.timeout(1, value="hello")
        result.append(value)

    env.process(proc(env))
    env.run()
    assert result == ["hello"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10)

    env.process(proc(env))
    env.run(until=25)
    assert env.now == 25


def test_run_until_time_excludes_boundary_events():
    """Events scheduled exactly at `until` are not processed (simpy semantics)."""
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(5)
        seen.append(env.now)

    env.process(proc(env))
    env.run(until=5)
    assert seen == []
    env.run(until=6)
    assert seen == [5]


def test_run_until_past_time_raises():
    env = Environment()
    env.run(until=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return "done"

    p = env.process(proc(env))
    assert env.run(until=p) == "done"
    assert env.now == 2


def test_run_until_event_already_processed():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return 7

    p = env.process(proc(env))
    env.run()
    assert env.run(until=p) == 7


def test_run_until_untriggered_event_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError, match="drained"):
        env.run(until=ev)


def test_event_succeed_value():
    env = Environment()
    ev = env.event()
    got = []

    def waiter(env, ev):
        got.append((yield ev))

    def firer(env, ev):
        yield env.timeout(1)
        ev.succeed(99)

    env.process(waiter(env, ev))
    env.process(firer(env, ev))
    env.run()
    assert got == [99]
    assert ev.triggered and ev.processed and ev.ok
    assert ev.value == 99


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(AttributeError):
        _ = ev.value


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_event_fail_propagates_into_process():
    env = Environment()
    caught = []

    def waiter(env, ev):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    ev = env.event()
    env.process(waiter(env, ev))

    def firer(env, ev):
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    env.process(firer(env, ev))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_escapes_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("unhandled"))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_defused_failure_is_silent():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nope"))
    ev.defused()
    env.run()  # must not raise


def test_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_process_exception_propagates_to_waiter():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1)
        raise KeyError("inside child")

    def parent(env):
        try:
            yield env.process(child(env))
        except KeyError as exc:
            caught.append(exc.args[0])

    env.process(parent(env))
    env.run()
    assert caught == ["inside child"]


def test_process_unhandled_exception_escapes_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ZeroDivisionError

    env.process(bad(env))
    with pytest.raises(ZeroDivisionError):
        env.run()


def test_process_return_value_via_stopiteration():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        return 123

    values = []

    def parent(env):
        values.append((yield env.process(child(env))))

    env.process(parent(env))
    env.run()
    assert values == [123]


def test_stop_process_exits_with_value():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        raise StopProcess("early")
        yield env.timeout(100)  # never reached

    p = env.process(child(env))
    assert env.run(until=p) == "early"
    assert env.now == 1


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc(env):
        yield env.timeout(5)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_yield_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_interrupt_delivers_cause():
    env = Environment()
    causes = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt as exc:
            causes.append(exc.cause)
            causes.append(env.now)

    def attacker(env, p):
        yield env.timeout(3)
        p.interrupt("stop that")

    p = env.process(victim(env))
    env.process(attacker(env, p))
    env.run()
    assert causes == ["stop that", 3]


def test_interrupt_leaves_target_pending_and_reyieldable():
    env = Environment()
    log = []

    def victim(env):
        to = env.timeout(10)
        try:
            yield to
        except Interrupt:
            log.append(("interrupted", env.now))
            yield to  # resume waiting on the same timeout
            log.append(("fired", env.now))

    def attacker(env, p):
        yield env.timeout(4)
        p.interrupt()

    p = env.process(victim(env))
    env.process(attacker(env, p))
    env.run()
    assert log == [("interrupted", 4), ("fired", 10)]


def test_interrupt_terminated_process_raises():
    env = Environment()

    def proc(env):
        yield env.timeout(1)

    p = env.process(proc(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_process_cannot_interrupt_itself():
    env = Environment()
    errors = []

    def proc(env):
        yield env.timeout(1)
        try:
            env.active_process.interrupt()
        except RuntimeError as exc:
            errors.append(str(exc))

    env.process(proc(env))
    env.run()
    assert errors and "itself" in errors[0]


def test_active_process_tracking():
    env = Environment()
    seen = []

    def proc(env):
        seen.append(env.active_process)
        yield env.timeout(1)

    p = env.process(proc(env))
    assert env.active_process is None
    env.run()
    assert seen == [p]
    assert env.active_process is None


def test_deterministic_fifo_ordering_at_same_time():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(5)
        order.append(name)

    for name in "abcde":
        env.process(proc(env, name))
    env.run()
    assert order == list("abcde")


def test_step_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(7)
    assert env.peek() == 7


def test_schedule_callback():
    env = Environment()
    hits = []
    env.schedule_callback(2.5, lambda: hits.append(env.now))
    env.run()
    assert hits == [2.5]


def test_nested_process_chains():
    env = Environment()

    def level3(env):
        yield env.timeout(1)
        return 3

    def level2(env):
        v = yield env.process(level3(env))
        yield env.timeout(1)
        return v + 2

    def level1(env):
        v = yield env.process(level2(env))
        return v + 1

    p = env.process(level1(env))
    assert env.run(until=p) == 6
    assert env.now == 2


def test_many_processes_complete():
    env = Environment()
    done = []

    def proc(env, i):
        yield env.timeout(i % 7)
        done.append(i)

    for i in range(500):
        env.process(proc(env, i))
    env.run()
    assert sorted(done) == list(range(500))


@pytest.mark.parametrize("scheduler", ["heap", "calendar"])
@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("driver", ["run", "step"])
def test_fired_events_are_recycled(scheduler, sanitize, driver):
    """Every loop recycles events nothing else references: the refcount
    guards count the loop's own references exactly, so a miscount that
    silently starves the pools fails here."""
    env = Environment(scheduler=scheduler, sanitize=sanitize)

    def ticker(env):
        for _ in range(5):
            yield env.timeout(1)

    env.process(ticker(env))
    for i in range(5):
        env.call_later(i, lambda _e: None, value=i)
    if driver == "run":
        env.run()
    else:
        while env.peek() < float("inf"):
            env.step()
    assert env._timeout_pool and env._cb_pool
    if sanitize:
        assert env.sanitizer.recycles > 0
