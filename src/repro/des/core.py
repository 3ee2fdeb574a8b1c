"""Core of the discrete-event simulation kernel.

This module provides a small, self-contained, simpy-style kernel:
an :class:`Environment` owning a time-ordered event queue, :class:`Event`
objects with success/failure semantics, and :class:`Process` objects that
drive Python generators, suspending on the events they ``yield``.

The kernel is deterministic: events scheduled for the same simulated time
are processed in (priority, insertion-order) order, so a simulation run is
exactly reproducible from its random seed.

Design notes
------------
The simulator in :mod:`repro.sim` schedules on the order of millions of
events per run, so this module is written for speed as much as clarity
(see ``docs/KERNEL.md`` for the full story):

* ``__slots__`` everywhere on the hot classes;
* two interchangeable schedulers behind one ``(time, priority, eid,
  event)`` contract — a C-accelerated binary heap (default) and a
  calendar queue (:mod:`repro.des.calendar`), selected per environment
  via ``Environment(scheduler=...)`` or the ``REPRO_DES_SCHEDULER``
  environment variable;
* a free-list pool recycling :class:`Timeout` and internal callback
  events once processed (``REPRO_DES_POOL=0`` disables it);
* :meth:`Environment.call_later` / :meth:`Event.succeed_at` fast paths
  so resources and callback chains can schedule completions without
  allocating intermediate events or generator frames.  A ``call_later``
  timer without a payload is *bare*: the scheduler holds the callable
  itself and the loop calls it, so no event object is made;
* kernel-owned station holds (:meth:`repro.des.resources.Resource.hold`):
  the run loop grants a hold, re-arms it for its service time and
  releases it, then calls its continuation — one object and two queue
  entries per station visit, taking the same event ids as the
  request / timer / release relay they replace;
* zero-delay *now queues* (kernel v3): events scheduled at exactly the
  current simulated time — resource grants, ``succeed()``, process
  resumption, interrupts — bypass the scheduler entirely and land in
  two per-priority FIFO deques drained before the clock advances.  The
  drain respects the exact global (time, priority, eid) order (heap
  items at the current time were scheduled earlier and therefore carry
  smaller ids than any now-queue entry), so results are bit-identical
  to routing everything through the scheduler; it just skips the
  O(log n) push/pop and the entry-tuple allocation for the roughly
  half of all events that fire "now".

All of those fast paths are risky enough that the kernel carries an
optional runtime sanitizer (``Environment(sanitize=True)`` or
``REPRO_DES_SANITIZE=1``): every scheduling entry point and every pop is
then routed through :mod:`repro.des.sanitize`'s invariant checks
(use-after-recycle poisoning, time monotonicity, tie-break order, double
triggers, end-of-run leak accounting).  When the sanitizer is off the
hooks reduce to a single predictable-branch ``None`` check per entry
point, which the bench regression gate shows is free.
"""

from __future__ import annotations

import os
from collections import deque
from heapq import heappop, heappush
from math import inf
from types import MethodType as _MethodType
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .events import Condition

try:
    from sys import getrefcount as _refcount
except ImportError:  # pragma: no cover - non-CPython: pooling disabled
    _refcount = None

from .calendar import CalendarQueue

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "StopProcess",
    "EmptySchedule",
    "PENDING",
    "URGENT",
    "NORMAL",
    "DEFAULT_SCHEDULER",
    "SCHEDULERS",
]

#: Sentinel for the value of an event that has not been triggered yet.
PENDING: Any = object()

#: Scheduling priority for events that must run before ordinary events at
#: the same simulated time (used internally when resuming processes).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

#: Recognized scheduler backends.
SCHEDULERS = ("heap", "calendar")

#: Scheduler used when neither the constructor nor ``REPRO_DES_SCHEDULER``
#: picks one.  The binary heap won the validation benchmarks
#: (``repro bench``): heapq's C implementation beats the pure-Python
#: calendar queue on every canonical scenario, so it stays the default;
#: the calendar queue remains selectable and bit-identical.
DEFAULT_SCHEDULER = "heap"

#: Upper bound on each per-environment free list (events, not bytes).
_POOL_MAX = 4096

# The kernel-owned hold class, handed over by repro.des.resources when it
# is imported (it imports this module, so the reverse import would be a
# cycle).  No hold can exist before then.
_Hold: Any = None

# Bound by repro.des.events at import time (see _lazy_conditions); keeps
# Event.__and__/__or__ and Environment.all_of/any_of free of per-call
# imports without a circular module import.
_AllOf = None
_AnyOf = None


def _lazy_conditions():
    """Bind the condition classes on first use (core imported alone)."""
    global _AllOf, _AnyOf
    if _AllOf is None:
        from .events import AllOf, AnyOf

        _AllOf, _AnyOf = AllOf, AnyOf
    return _AllOf, _AnyOf


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopProcess(Exception):
    """Graceful early exit from a process.

    ``raise StopProcess(value)`` inside a process generator terminates the
    process successfully with ``value`` as its result, mirroring
    ``return value``.  Provided mainly for helper functions that cannot use
    a plain ``return`` because they are not themselves generators.
    """

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Thrown *into* a process by :meth:`Process.interrupt`.

    The interrupted process may catch the exception and continue; the event
    it was waiting for remains pending and may be re-yielded.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        """Whatever was passed to :meth:`Process.interrupt`."""
        return self.args[0]


class Event:
    """An event that may eventually be triggered and carry a value.

    Events move through three states:

    1. *pending* — created, not yet triggered;
    2. *triggered* — a value (or failure) has been set and the event sits in
       the environment's queue;
    3. *processed* — its callbacks have run.

    Processes wait for events by yielding them.  Multiple processes may wait
    on the same event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        #: The environment the event lives in.
        self.env = env
        #: List of callables invoked (with the event) when processed.
        #: ``None`` once the event has been processed.
        # Fresh-event contract: one list per activation; recycled
        # events get theirs back in the pool reset paths below.
        self.callbacks: Optional[list] = []  # simlint: disable=REP104
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False
        if env._san is not None:
            env._san.on_create(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if self._value is PENDING
            else ("processed" if self.callbacks is None else "triggered")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once a value or failure has been set."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception).

        Raises :class:`AttributeError` if the event is still pending.
        """
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------

    # simlint: hotpath
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL)
        return self

    # simlint: hotpath
    def succeed_at(self, delay: float, value: Any = None) -> "Event":
        """Trigger successfully, processed ``delay`` time units from now.

        The completion fast path: where ``succeed()`` fires callbacks at
        the current time, ``succeed_at(d)`` fires them at ``now + d``
        without allocating an intermediate :class:`Timeout`.  The event
        reads as *triggered* immediately (its value is set), exactly like
        a :class:`Timeout` between construction and expiry.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL, delay)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        Every process waiting on the event will have the exception thrown
        into it.  If no process handles the failure the environment's
        :meth:`Environment.run` re-raises it (unless :meth:`defused`).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another event (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self._defuse_of(event)
            self.fail(event._value)

    @staticmethod
    def _defuse_of(event: "Event") -> None:
        event._defused = True

    def defused(self) -> None:
        """Mark a failed event as handled so ``run()`` won't re-raise it."""
        self._defused = True

    # -- composition ------------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        allof = _AllOf
        if allof is None:
            allof, _ = _lazy_conditions()
        return allof(self.env, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        anyof = _AnyOf
        if anyof is None:
            _, anyof = _lazy_conditions()
        return anyof(self.env, [self, other])


class Timeout(Event):
    """An event that fires after a fixed ``delay`` of simulated time.

    Instances created through :meth:`Environment.timeout` are recycled via
    a free list once processed, *if* nothing outside the kernel still
    references them (checked by refcount — see ``docs/KERNEL.md`` for the
    pooling rules).  Retaining a reference to a fired Timeout is therefore
    always safe: the retained object simply is not recycled.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay)


class _Callback(Event):
    """Internal pooled event driving callback chains (never user-visible).

    Created only by :meth:`Environment.call_later`; recycled
    unconditionally after processing, so references must never outlive
    the callback invocation.
    """

    __slots__ = ()


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env._schedule(self, URGENT)


class Process(Event):
    """A running process: drives a generator, waits on yielded events.

    A process is itself an event that triggers when the generator returns
    (successfully, with the generator's return value) or raises
    (as a failure).  Other processes can therefore wait for it to finish by
    yielding it.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: Event the process is currently waiting on (None when running or
        #: terminated).
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process({self.name}) at {id(self):#x}>"

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for (if any)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The process resumes immediately (at the current simulated time,
        before ordinary events).  Interrupting a terminated process is an
        error; interrupting a process that is about to resume anyway is
        allowed — the interrupt wins.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks = [self._resume]
        self.env._schedule(interrupt_event, URGENT)

    # -- generator driving --------------------------------------------------

    # simlint: hotpath
    def _resume(self, event: Event) -> None:
        """Advance the generator with the value/failure of ``event``."""
        if self._value is not PENDING:
            # Already terminated (e.g. interrupted to death while an older
            # wake-up was in flight).  Nothing to do.
            return
        # Detach from the event we were waiting on (the interrupt path
        # resumes us while self._target is still pending).
        target = self._target
        if target is not None and event is not target:
            # Late interrupt: forget the original target's callback so a
            # later trigger does not resume us twice.
            try:
                target.callbacks.remove(self._resume)
            except (ValueError, AttributeError):
                pass
        self._target = None
        env = self.env
        env._active_proc = self
        # Hot loop: localize the generator methods and the schedule hook;
        # each send() drives the process to its next yield.
        generator = self._generator
        send = generator.send
        schedule = env._schedule

        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # The event failed: throw its exception into the process.
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                schedule(self, NORMAL)
                break
            except StopProcess as exc:
                generator.close()
                self._ok = True
                self._value = exc.value
                schedule(self, NORMAL)
                break
            except BaseException as exc:
                generator.close()
                self._ok = False
                self._value = exc
                schedule(self, NORMAL)
                break

            if not isinstance(next_event, Event):
                # Cold error branch: a process yielded garbage and is
                # about to die; the diagnostic f-string never runs on
                # the event-stepping fast path.
                exc = RuntimeError(
                    f"process {self.name!r} "  # simlint: disable=REP104
                    f"yielded a non-event: {next_event!r}"
                )
                generator.close()
                self._ok = False
                self._value = exc
                schedule(self, NORMAL)
                break

            if next_event.callbacks is not None:
                # Event still pending or triggered-but-unprocessed: wait.
                self._target = next_event
                next_event.callbacks.append(self._resume)
                break

            # Event already processed: feed its value straight back in.
            event = next_event

        env._active_proc = None


class Environment:
    """Execution environment: simulated clock plus the event queue.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock.
    scheduler:
        ``"heap"`` (binary heap, the validated default) or ``"calendar"``
        (calendar queue).  ``None`` consults the ``REPRO_DES_SCHEDULER``
        environment variable, then :data:`DEFAULT_SCHEDULER`.  Both obey
        the identical (time, priority, insertion-order) contract.
    pool_events:
        Enable the Timeout/callback-event free lists.  ``None`` consults
        ``REPRO_DES_POOL`` (default on; set ``0`` to disable).
    sanitize:
        Route every scheduling entry point and pop through the runtime
        sanitizer (:mod:`repro.des.sanitize`): use-after-recycle
        poisoning, monotonicity/tie-break invariants, double-trigger
        detection, leak accounting.  ``None`` consults
        ``REPRO_DES_SANITIZE`` (default off).  Behaviour (results, event
        order) is identical either way; sanitized runs are slower.
        They make a tracked ``_Callback`` event for every timer, and a
        hold's service time runs on such a timer instead of re-arming
        the hold itself, so every entry the sanitizer checks is an event.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_cal",
        "_now_u",
        "_now_n",
        "_eid",
        "_active_proc",
        "_timeout_pool",
        "_cb_pool",
        "_scheduler",
        "_san",
    )

    def __init__(
        self,
        initial_time: float = 0.0,
        scheduler: Optional[str] = None,
        pool_events: Optional[bool] = None,
        sanitize: Optional[bool] = None,
    ):
        self._now = float(initial_time)
        if sanitize is None:
            sanitize = os.environ.get("REPRO_DES_SANITIZE", "0") != "0"
        if sanitize:
            from .sanitize import DESSanitizer

            self._san = DESSanitizer(self)
        else:
            self._san = None
        if scheduler is None:
            scheduler = os.environ.get("REPRO_DES_SCHEDULER", DEFAULT_SCHEDULER)
        if scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; pick one of {SCHEDULERS}"
            )
        self._scheduler = scheduler
        if scheduler == "heap":
            # Heap of (time, priority, eid, event).
            self._queue: Optional[list] = []
            self._cal: Optional[CalendarQueue] = None
        else:
            self._queue = None
            self._cal = CalendarQueue()
        if pool_events is None:
            pool_events = os.environ.get("REPRO_DES_POOL", "1") != "0"
        if _refcount is None:  # pragma: no cover - non-CPython
            pool_events = False
        # The free lists are None when pooling is off, so the hot-path
        # check is a single identity test.
        self._timeout_pool: Optional[list] = [] if pool_events else None
        self._cb_pool: Optional[list] = [] if pool_events else None
        # Zero-delay now queues (kernel v3), one per priority level.
        # Sanitized environments leave them empty: every event then flows
        # through the fully-checked scheduler path, and the sanitizer's
        # pop-order checks certify exactly the order the now queues
        # reproduce.
        self._now_u: deque = deque()
        self._now_n: deque = deque()
        self._eid = 0
        self._active_proc: Optional[Process] = None

    # -- public API ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def scheduler(self) -> str:
        """Name of the scheduler backend ("heap" or "calendar")."""
        return self._scheduler

    @property
    def pooling(self) -> bool:
        """True when the event free lists are enabled."""
        return self._timeout_pool is not None

    @property
    def sanitizer(self):
        """The :class:`~repro.des.sanitize.DESSanitizer` (None when off)."""
        return self._san

    @property
    def sanitized(self) -> bool:
        """True when the runtime sanitizer is active."""
        return self._san is not None

    @property
    def event_count(self) -> int:
        """Total events scheduled so far (the benchmark work metric)."""
        return self._eid

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being advanced (None between events)."""
        return self._active_proc

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    # simlint: hotpath
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` time units from now.

        Draws from the free list when pooling is enabled; see the class
        docstring for the (narrow) aliasing caveat.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            t = pool.pop()
            if self._san is not None:
                self._san.on_reuse(t)
            # Pool-reset contract: a recycled Timeout needs its own
            # callbacks list (callers append to it).
            t.callbacks = []  # simlint: disable=REP104
            t._value = value
            t._ok = True
            t._defused = False
            t.delay = delay
            self._schedule(t, NORMAL, delay)
            return t
        return Timeout(self, delay, value)

    # simlint: hotpath
    def call_later(
        self,
        delay: float,
        fn: Callable[[Optional[Event]], None],
        value: Any = None,
        priority: int = NORMAL,
    ) -> Optional[Event]:
        """Run ``fn(event)`` after ``delay`` — the callback-chain fast path.

        No Timeout, no generator, no process.  Without a ``value`` on an
        unsanitized environment the timer is *bare*: the scheduler holds
        ``fn`` itself, the loop calls ``fn(None)``, and the call returns
        None.  Otherwise a pooled internal event carries the timer:
        ``fn`` receives it (``event.value`` is ``value``, handy for
        chains that thread a payload through) and the call returns it as
        a handle that is recycled as soon as ``fn`` has run and must not
        be retained afterwards.  Both forms take one event id, so the
        event order is the same either way.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        san = self._san
        if value is None and san is None:
            entry: Any = fn
            ev: Optional[Event] = None
        else:
            pool = self._cb_pool
            if pool:
                cb = pool.pop()
                if san is not None:
                    san.on_reuse(cb)
                cb._value = value
                cb._ok = True
                cb._defused = False
            else:
                cb = _Callback(self)
                cb._value = value
            # The single-callback list IS call_later's payload.
            cb.callbacks = [fn]  # simlint: disable=REP104
            entry = ev = cb
        # Inlined _schedule (this is the hottest scheduling entry point).
        now = self._now
        t = now + delay
        if san is None:
            if t == now:
                # Zero-delay fast path: FIFO order is eid order.
                self._eid += 1
                (self._now_u if priority == 0 else self._now_n).append(entry)
                return ev
        else:
            san.on_schedule(ev, t)
        eid = self._eid = self._eid + 1
        q = self._queue
        if q is not None:
            heappush(q, (t, priority, eid, entry))
        else:
            self._cal.push((t, priority, eid, entry))
        return ev

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> "Condition":
        allof = _AllOf
        if allof is None:
            allof, _ = _lazy_conditions()
        return allof(self, events)

    def any_of(self, events: Iterable[Event]) -> "Condition":
        anyof = _AnyOf
        if anyof is None:
            _, anyof = _lazy_conditions()
        return anyof(self, events)

    def schedule_callback(
        self, delay: float, callback: Callable[[], None]
    ) -> Optional[Event]:
        """Run ``callback()`` after ``delay`` without creating a process.

        Returns what :meth:`call_later` returns: None for a bare timer,
        else a pooled handle that must not be retained past the call.
        """
        return self.call_later(delay, lambda _e: callback())

    # -- scheduling ---------------------------------------------------------

    # simlint: hotpath
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        now = self._now
        t = now + delay
        san = self._san
        if san is None:
            if t == now:
                # Zero-delay fast path (kernel v3): the event fires at the
                # current time, so it skips the scheduler and joins the
                # per-priority now queue.  FIFO order there is eid order,
                # and every scheduler entry at the current time was pushed
                # earlier (smaller eid), so the drain in step()/run() keeps
                # the exact (time, priority, eid) total order.
                self._eid += 1
                (self._now_u if priority == 0 else self._now_n).append(event)
                return
        else:
            san.on_schedule(event, t)
        eid = self._eid = self._eid + 1
        q = self._queue
        if q is not None:
            heappush(q, (t, priority, eid, event))
        else:
            self._cal.push((t, priority, eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._now_u or self._now_n:
            return self._now
        q = self._queue
        if q is not None:
            return q[0][0] if q else inf
        head = self._cal.peek()
        return head[0] if head is not None else inf

    # simlint: hotpath
    def step(self) -> None:
        """Process the next event.  Raises :class:`EmptySchedule` if none.

        The pop merges three sources in exact (time, priority, eid)
        order: the scheduler (heap or calendar queue) and the two
        zero-delay now queues.  Scheduler entries at the current time
        always precede same-priority now-queue entries (they carry
        smaller ids); an urgent now-queue entry precedes any NORMAL
        entry at the current time regardless of id.
        """
        q = self._queue
        if q is not None:
            head = q[0] if q else None
        else:
            head = self._cal.peek()
        now = self._now
        now_u = self._now_u
        event: Any = None
        if now_u:
            if head is None or head[1] != URGENT or head[0] != now:
                event = now_u.popleft()
        elif head is None or head[0] != now:
            now_n = self._now_n
            if now_n:
                event = now_n.popleft()
        if event is not None:
            # Now-queue drain: the clock does not move, and the
            # sanitizer is never active here (sanitized environments
            # route everything through the scheduler below).
            self._fire(event)
            return
        if head is None:
            raise EmptySchedule()
        if q is not None:
            t, priority, eid, event = heappop(q)
        else:
            t, priority, eid, event = self._cal.popmin()
        # Drop the peeked entry tuple (it is the one just popped): a live
        # reference would keep the event's refcount above the recycle
        # threshold.
        head = None
        if self._san is not None:
            self._fire_checked(t, priority, eid, event)
            return
        self._now = t
        self._fire(event)

    # simlint: hotpath
    def _fire(self, event: Any) -> None:
        """Process one entry popped at the current time (unsanitized).

        Shared by :meth:`step` and the calendar-queue loop of
        :meth:`run`; the heap loop inlines the same body.  The entry is
        a hold, a bare timer's callable or an event, and the caller
        holds exactly one reference to it (the recycle guard counts on
        that).
        """
        cls = event.__class__
        if cls is _Hold:
            if event.callbacks is not None:
                # Granted: hold the station for the service time, read
                # now, under the id a call_later timer would take.
                event.callbacks = None
                per = event.per
                now = self._now
                t = now + (
                    event.seconds if per is None else event.seconds / per.speed
                )
                eid = self._eid = self._eid + 1
                if t == now:
                    self._now_n.append(event)
                else:
                    q = self._queue
                    if q is not None:
                        heappush(q, (t, NORMAL, eid, event))
                    else:
                        self._cal.push((t, NORMAL, eid, event))
            else:
                # Expired: release (the slot passes to the next live
                # waiter), then continue the chain.
                event.resource._do_release(event)
                event.done()
            return
        if cls is _MethodType or not isinstance(event, Event):
            event(None)  # a bare call_later timer
            return
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # Nobody handled this failure.
            raise event._value
        # Free-list recycling.  An event is recyclable only when nothing
        # outside the kernel still references it: refcount 3 = the
        # caller's local, this parameter and getrefcount's argument.  A
        # generator that kept the Timeout it yielded, a condition holding
        # its constituents, or a caller retaining a call_later handle all
        # raise the count and (safely) exempt that object from recycling.
        if cls is Timeout:
            pool = self._timeout_pool
        elif cls is _Callback:
            pool = self._cb_pool
        else:
            return
        if pool is not None and len(pool) < _POOL_MAX and _refcount(event) == 3:
            event._value = PENDING  # poison stale reads
            pool.append(event)

    # Sanitized runs are opt-in diagnostics; this path is exempt from the
    # hot-path allocation lint.
    # simlint: coldpath
    def _fire_checked(self, t: float, priority: int, eid: int, event: Any) -> None:
        """:meth:`step` on a sanitized environment: the pop is checked,
        and a granted hold arms a separate tracked timer for its service
        time (taking the id the unsanitized re-arm takes) instead of
        re-arming itself, so no entry is ever scheduled twice."""
        san: Any = self._san
        san.on_pop(t, priority, eid, event, self._now)
        self._now = t
        cls = event.__class__
        if cls is _Hold:
            event.callbacks = None
            per = event.per
            self.call_later(
                event.seconds if per is None else event.seconds / per.speed,
                event._expire,
            )
            san.on_processed(event)
            return
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value
        # Recyclable at refcount 4: step()'s local, this parameter,
        # getrefcount's argument and the sanitizer's record.
        if cls is Timeout:
            pool = self._timeout_pool
        elif cls is _Callback:
            pool = self._cb_pool
        else:
            pool = None
        if pool is not None and len(pool) < _POOL_MAX and _refcount(event) == 4:
            event._value = PENDING
            pool.append(event)
            san.on_recycle(event)
        else:
            san.on_processed(event)

    # simlint: hotpath
    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that simulated time; ``until == now`` is a documented
        no-op so sweep drivers can resume in fixed windows), or an
        :class:`Event` (run until it is processed and return its value).
        """
        stop_at = inf
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    # Already processed.
                    if stop_event._ok:
                        return stop_event._value
                    raise stop_event._value
                # Once per run() call (until-Event setup), not per event.
                done = []  # simlint: disable=REP104
                stop_event.callbacks.append(
                    lambda _e: done.append(True)  # simlint: disable=REP104
                )
                while not done:
                    try:
                        self.step()
                    except EmptySchedule:
                        raise RuntimeError(
                            "run(until=event): schedule drained before the "
                            "event triggered"
                        ) from None
                if stop_event._ok:
                    return stop_event._value
                stop_event._defused = True
                raise stop_event._value
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(
                    f"until ({stop_at}) must not be earlier than now "
                    f"({self._now})"
                )
            if stop_at == self._now:
                # No-op: events exactly at `now` stay unprocessed, exactly
                # as a previous run(until=now) left them.
                return None

        q = self._queue
        if self._san is not None:
            # Sanitized: every event must flow through the fully-checked
            # step() path, so the inlined loops below are skipped.
            step = self.step
            while True:
                if self.peek() >= stop_at:
                    break
                step()
        elif q is not None:
            # The heap main loop inlines step() and _fire(): at millions
            # of events per run the per-event call overhead is
            # measurable.  Keep the bodies in sync (step() remains the
            # single-event API).  The pop merges the heap with the
            # zero-delay now queues in exact (time, priority, eid) order:
            # heap entries at the current time were scheduled earlier
            # (smaller eid) than any now-queue entry, and urgent
            # now-queue entries overtake NORMAL heap entries at the
            # current time (priority compares first).
            timeout_pool = self._timeout_pool
            cb_pool = self._cb_pool
            hold_cls = _Hold
            now_u = self._now_u
            now_n = self._now_n
            pop = heappop
            push = heappush
            pop_u = now_u.popleft
            pop_n = now_n.popleft
            now = self._now
            while True:
                # NB: the heap head is deliberately never bound to a
                # local — a lingering reference to the popped entry tuple
                # would keep the event's refcount above the recycle
                # threshold and silently disable the free lists.
                if now_u:
                    if q and q[0][0] == now and q[0][1] == 0:
                        event = pop(q)[3]
                    else:
                        event = pop_u()
                elif q:
                    t = q[0][0]
                    if t == now:
                        event = pop(q)[3]
                    elif now_n:
                        event = pop_n()
                    elif t >= stop_at:
                        break
                    else:
                        self._now = now = t
                        event = pop(q)[3]
                elif now_n:
                    event = pop_n()
                else:
                    break
                cls = event.__class__
                if cls is hold_cls:
                    # Station holds, about 85% of a simulation's events.
                    if event.callbacks is not None:
                        # Granted: hold for the service time (read now,
                        # so a speed change while queued counts) under
                        # the id a call_later timer would take.
                        event.callbacks = None
                        per = event.per
                        t = now + (
                            event.seconds if per is None
                            else event.seconds / per.speed
                        )
                        eid = self._eid = self._eid + 1
                        if t == now:
                            now_n.append(event)
                        else:
                            push(q, (t, 1, eid, event))  # NORMAL
                    else:
                        # Expired: Resource._do_release inlined (busy
                        # time, then the slot passes to the next live
                        # waiter), then the chain continues.
                        res = event.resource
                        users = res.users
                        users.remove(event)
                        if not users and res._busy_since is not None:
                            res._busy_time += now - res._busy_since
                            res._busy_since = None
                        waiting = res.queue
                        while waiting:
                            nxt = waiting.popleft()
                            if nxt._value is PENDING:
                                res._grant(nxt)
                                break
                        event.done()
                    continue
                if cls is _MethodType or not isinstance(event, Event):
                    event(None)  # a bare call_later timer
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                # Almost every event carries exactly one callback (the
                # grant/chain continuation); skip the iterator for it.
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise event._value
                if cls is _Callback:
                    if (
                        cb_pool is not None
                        and len(cb_pool) < _POOL_MAX
                        and _refcount(event) == 2
                    ):
                        event._value = PENDING
                        cb_pool.append(event)
                elif cls is Timeout:
                    if (
                        timeout_pool is not None
                        and len(timeout_pool) < _POOL_MAX
                        and _refcount(event) == 2
                    ):
                        event._value = PENDING
                        timeout_pool.append(event)
        else:
            # Calendar-queue twin of the loop above: the same merge over
            # peek/popmin, processing each entry through _fire (shared
            # with step()).
            cal = self._cal
            fire = self._fire
            now_u = self._now_u
            now_n = self._now_n
            pop_u = now_u.popleft
            pop_n = now_n.popleft
            now = self._now
            while True:
                head = cal.peek() if cal else None
                if now_u:
                    if head is not None and head[0] == now and head[1] == 0:
                        event = cal.popmin()[3]
                    else:
                        event = pop_u()
                elif head is not None:
                    t = head[0]
                    if t == now:
                        event = cal.popmin()[3]
                    elif now_n:
                        event = pop_n()
                    elif t >= stop_at:
                        break
                    else:
                        self._now = now = t
                        event = cal.popmin()[3]
                elif now_n:
                    event = pop_n()
                else:
                    break
                # Drop the peeked entry tuple: a live reference to it
                # would hold the popped event's refcount above the
                # recycle threshold and disable the free lists.
                head = None
                fire(event)
        if stop_at is not inf:
            self._now = stop_at
        return None
