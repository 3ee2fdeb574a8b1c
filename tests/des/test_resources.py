"""Tests for Resource / PriorityResource / Container."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import (
    Container,
    EmptySchedule,
    Environment,
    PriorityResource,
    Resource,
)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    granted = []

    def user(env, res, name, hold):
        with res.request() as req:
            yield req
            granted.append((name, env.now))
            yield env.timeout(hold)

    env.process(user(env, res, "a", 10))
    env.process(user(env, res, "b", 10))
    env.process(user(env, res, "c", 10))
    env.run()
    assert granted == [("a", 0), ("b", 0), ("c", 10)]


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, res, name):
        with res.request() as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    for name in "abcd":
        env.process(user(env, res, name))
    env.run()
    assert order == list("abcd")


def test_resource_counts_and_queue_length():
    env = Environment()
    res = Resource(env, capacity=1)
    snapshots = []

    def user(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(5)

    def observer(env, res):
        yield env.timeout(1)
        snapshots.append((res.count, res.queue_length))

    env.process(user(env, res))
    env.process(user(env, res))
    env.process(user(env, res))
    env.process(observer(env, res))
    env.run()
    assert snapshots == [(1, 2)]
    assert res.count == 0
    assert res.total_served == 3


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_release_without_hold_raises():
    env = Environment()
    res = Resource(env, capacity=1)

    def bad(env, res):
        req = res.request()
        yield req
        req.release()
        with pytest.raises(RuntimeError):
            req.release()

    env.process(bad(env, res))
    env.run()


def test_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def impatient(env, res):
        req = res.request()
        result = yield req | env.timeout(2)
        if req not in result:
            req.cancel()
            order.append(("gave up", env.now))

    def patient(env, res):
        with res.request() as req:
            yield req
            order.append(("patient", env.now))

    env.process(holder(env, res))
    env.process(impatient(env, res))
    env.process(patient(env, res))
    env.run()
    assert ("gave up", 2) in order
    assert ("patient", 10) in order


def test_resource_busy_time_accounting():
    env = Environment()
    res = Resource(env, capacity=1)

    def user(env, res, start, hold):
        yield env.timeout(start)
        with res.request() as req:
            yield req
            yield env.timeout(hold)

    env.process(user(env, res, 0, 3))
    env.process(user(env, res, 5, 2))
    env.run()
    assert res.busy_time() == pytest.approx(5.0)
    assert res.utilization(env.now) == pytest.approx(5.0 / 7.0)


def test_resource_reset_accounting():
    env = Environment()
    res = Resource(env, capacity=1)

    def user(env, res, hold):
        with res.request() as req:
            yield req
            yield env.timeout(hold)

    env.process(user(env, res, 4))
    env.run()
    res.reset_accounting()
    assert res.busy_time() == 0.0
    assert res.total_served == 0

    def user2(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(1)

    env.process(user2(env, res))
    env.run()
    assert res.busy_time() == pytest.approx(1.0)


def test_reset_accounting_while_busy():
    env = Environment()
    res = Resource(env, capacity=1)

    def user(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def resetter(env, res):
        yield env.timeout(4)
        res.reset_accounting()

    env.process(user(env, res))
    env.process(resetter(env, res))
    env.run()
    # Busy from t=4 (reset) to t=10.
    assert res.busy_time() == pytest.approx(6.0)


def test_priority_resource_orders_by_priority():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder(env, res):
        with res.request(priority=0) as req:
            yield req
            yield env.timeout(5)

    def user(env, res, name, prio, delay):
        yield env.timeout(delay)
        with res.request(priority=prio) as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    env.process(holder(env, res))
    env.process(user(env, res, "low", 5, 1))
    env.process(user(env, res, "high", 1, 2))
    env.process(user(env, res, "mid", 3, 3))
    env.run()
    assert order == ["high", "mid", "low"]


def test_priority_resource_fifo_within_priority():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder(env, res):
        with res.request(priority=0) as req:
            yield req
            yield env.timeout(5)

    def user(env, res, name, delay):
        yield env.timeout(delay)
        with res.request(priority=2) as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    env.process(holder(env, res))
    env.process(user(env, res, "first", 1))
    env.process(user(env, res, "second", 2))
    env.run()
    assert order == ["first", "second"]


def test_container_put_get():
    env = Environment()
    tank = Container(env, capacity=100, init=50)
    levels = []

    def producer(env, tank):
        yield tank.put(30)
        levels.append(("after put", tank.level))

    def consumer(env, tank):
        yield env.timeout(1)
        yield tank.get(70)
        levels.append(("after get", tank.level))

    env.process(producer(env, tank))
    env.process(consumer(env, tank))
    env.run()
    assert levels == [("after put", 80), ("after get", 10)]


def test_container_get_blocks_until_available():
    env = Environment()
    tank = Container(env, capacity=10, init=0)
    times = []

    def consumer(env, tank):
        yield tank.get(5)
        times.append(env.now)

    def producer(env, tank):
        yield env.timeout(3)
        yield tank.put(5)

    env.process(consumer(env, tank))
    env.process(producer(env, tank))
    env.run()
    assert times == [3]


def test_container_put_blocks_when_full():
    env = Environment()
    tank = Container(env, capacity=10, init=10)
    times = []

    def producer(env, tank):
        yield tank.put(4)
        times.append(env.now)

    def consumer(env, tank):
        yield env.timeout(2)
        yield tank.get(6)

    env.process(producer(env, tank))
    env.process(consumer(env, tank))
    env.run()
    assert times == [2]


def test_container_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=0)
    with pytest.raises(ValueError):
        Container(env, capacity=5, init=6)
    tank = Container(env, capacity=5)
    with pytest.raises(ValueError):
        tank.put(0)
    with pytest.raises(ValueError):
        tank.get(-1)


# -- kernel-owned holds ------------------------------------------------------

#: Times drawn from a small grid so arrivals, grants and expiries tie.
_TIMES = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])

_ENVS = {
    "heap": lambda: Environment(scheduler="heap", sanitize=False),
    "calendar": lambda: Environment(scheduler="calendar", sanitize=False),
    "sanitized": lambda: Environment(scheduler="heap", sanitize=True),
    # Driven one step() at a time instead of by run()'s loops.
    "step": lambda: Environment(scheduler="heap", sanitize=False),
}


def _drive(kind, env):
    if kind != "step":
        env.run()
        return
    while True:
        try:
            env.step()
        except EmptySchedule:
            return


def _reference_hold(env, res, seconds, done, priority=None, per=None):
    """The relay holds replace: request, a grant callback arming a
    call_later timer for the (speed-scaled) service time, release at
    expiry, then the continuation."""
    req = res.request() if priority is None else res.request(priority)

    def expired(_e):
        res._do_release(req)
        done()

    def granted(_e):
        d = seconds if per is None else seconds / per.speed
        env.call_later(d, expired)

    req.callbacks.append(granted)


def _run_visits(kind, use_hold, capacity, jobs, slowdowns):
    env = _ENVS[kind]()
    fifo = Resource(env, capacity=capacity)
    prio = PriorityResource(env, capacity=capacity)
    node = SimpleNamespace(speed=1.0)
    log = []

    def visit(job, stage):
        if stage == len(jobs[job][1]):
            return
        on_prio, priority, seconds = jobs[job][1][stage]

        def done():
            log.append((env.now, job, stage))
            visit(job, stage + 1)

        if use_hold:
            if on_prio:
                prio.hold(seconds, done, priority, per=node)
            else:
                fifo.hold(seconds, done)
        elif on_prio:
            _reference_hold(env, prio, seconds, done, priority, per=node)
        else:
            _reference_hold(env, fifo, seconds, done)

    for job, (arrival, _) in enumerate(jobs):
        env.call_later(arrival, lambda _e, job=job: visit(job, 0))
    for at, factor in slowdowns:
        env.call_later(at, lambda _e, f=factor: setattr(node, "speed", f))
    _drive(kind, env)
    busy = [(r.busy_time(), r.total_served, r.count, r.queue_length)
            for r in (fifo, prio)]
    return log, busy, env.event_count


@pytest.mark.parametrize("kind", sorted(_ENVS))
@given(
    capacity=st.integers(min_value=1, max_value=3),
    jobs=st.lists(
        st.tuples(
            _TIMES,
            st.lists(
                st.tuples(st.booleans(), st.integers(0, 2), _TIMES),
                min_size=1,
                max_size=3,
            ),
        ),
        min_size=1,
        max_size=12,
    ),
    slowdowns=st.lists(
        st.tuples(_TIMES, st.sampled_from([0.5, 1.0, 2.0])), max_size=2
    ),
)
@settings(max_examples=40, deadline=None)
def test_holds_match_the_reference_relay(kind, capacity, jobs, slowdowns):
    """Same completion log, same station accounting, same event count:
    a hold takes exactly the event ids of the relay it replaces, on
    every scheduler and run loop and under the sanitizer."""
    held = _run_visits(kind, True, capacity, jobs, slowdowns)
    relayed = _run_visits(kind, False, capacity, jobs, slowdowns)
    assert held == relayed
    assert len(held[0]) == sum(len(visits) for _, visits in jobs)


def test_speed_change_while_queued_stretches_the_hold():
    env = Environment()
    cpu = PriorityResource(env, capacity=1)
    node = SimpleNamespace(speed=1.0)
    done = []
    cpu.hold(1.0, lambda: done.append(("first", env.now)), per=node)
    cpu.hold(1.0, lambda: done.append(("second", env.now)), per=node)
    env.call_later(0.5, lambda _e: setattr(node, "speed", 0.5))
    # A change during a hold does not stretch that hold: its time was
    # read at grant.
    env.call_later(1.5, lambda _e: setattr(node, "speed", 0.25))
    env.run()
    # The second hold was granted at t=1 at speed 0.5: 1.0 / 0.5 = 2 s.
    assert done == [("first", 1.0), ("second", 3.0)]


def test_hold_rejects_negative_time():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env).hold(-1.0, lambda: None)
    with pytest.raises(ValueError):
        PriorityResource(env).hold(-1.0, lambda: None)
