"""Message reliability on top of the unreliable fabric.

A stop-and-wait ARQ per message: the receiver acknowledges every copy it
sees (the ack is itself a lossy control message), the sender retransmits
on an ack timeout with capped exponential backoff, and per-send sequence
numbers give at-most-once effect semantics — a retransmission arriving
after the original is counted as a dedup and its effect is suppressed.

Two forms mirror the interconnect's two delivery paths:

* :meth:`ReliableMessenger.request_gen` — a generator the caller drives
  inline (``yield from``); the caller resumes once a transmission has
  been acknowledged, or after retries exhaust.  Used for hand-offs, the
  LARD-NG query/reply pair, and DFS fetch legs on the generator
  lifecycle.
* :meth:`ReliableMessenger.request_cb` — the same stop-and-wait exchange
  as a callback chain, charge for charge: ``done(True)`` at the ack,
  ``done(False)`` once retries exhaust.  The callback-chain request
  lifecycle drives hand-offs and LARD-NG queries through it.
* :meth:`ReliableMessenger.send_cb` — fire-and-forget callback form for
  control messages whose sender never blocks (LARD completion notices,
  L2S server-set updates).  The ``deliver`` effect fires at the first
  delivery only.

Which message kinds opt in is the policy's choice, expressed through
``NetFaultConfig.reliable_kinds``; everything else keeps the bare
best-effort send.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional, TYPE_CHECKING

from .model import NetFaultConfig, RetrySpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.network import Interconnect

__all__ = ["ReliableMessenger"]


class ReliableMessenger:
    """Ack/retry/dedup protocol engine bound to one interconnect."""

    def __init__(self, net: "Interconnect", config: NetFaultConfig):
        self.net = net
        self.env = net.env
        self.config = config
        self._reliable = frozenset(config.reliable_kinds)
        self._seq = 0
        #: Retransmissions per kind.
        self.retries: Dict[str, int] = {}
        #: Acks sent per (data-message) kind.
        self.acks: Dict[str, int] = {}
        #: Duplicate deliveries suppressed per kind.
        self.dedups: Dict[str, int] = {}
        #: Sends abandoned after exhausting retries, per kind.
        self.failures: Dict[str, int] = {}
        #: Hand-offs re-dispatched by the lifecycle after such a failure.
        self.redispatches = 0

    def covers(self, kind: str) -> bool:
        return kind in self._reliable

    def spec_for(self, kind: str) -> RetrySpec:
        return self.config.spec_for(kind)

    def _bump(self, counter: Dict[str, int], kind: str) -> None:
        counter[kind] = counter.get(kind, 0) + 1

    def reset_accounting(self) -> None:
        self.retries.clear()
        self.acks.clear()
        self.dedups.clear()
        self.failures.clear()
        self.redispatches = 0

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {
            "retries": dict(self.retries),
            "acks": dict(self.acks),
            "dedups": dict(self.dedups),
            "failures": dict(self.failures),
        }

    # -- inline (generator) form -------------------------------------------

    def request_gen(
        self,
        src: int,
        dst: int,
        size_kb: float,
        kind: str,
        ni_time_s: Optional[float] = None,
    ) -> Generator:
        """Send reliably; the caller resumes at ack (True) or give-up (False).

        Stop-and-wait: each attempt transmits the payload, then — on
        delivery — waits for the receiver's ack to cross back.  An
        undelivered attempt (or a lost ack) charges the remainder of the
        kind's timeout before the backoff pause and the retransmission.
        """
        net = self.net
        env = self.env
        if src == dst:
            yield from net.send_message(src, dst, size_kb, kind, ni_time_s)
            return True
        spec = self.spec_for(kind)
        cfg = net.config
        delivered_once = False
        for attempt in range(spec.max_retries + 1):
            started = env.now
            if attempt:
                self._bump(self.retries, kind)
            got = yield from net.send_message(src, dst, size_kb, kind, ni_time_s)
            if got:
                if delivered_once:
                    self._bump(self.dedups, kind)
                delivered_once = True
                # The receiver acks every copy it sees; the ack itself
                # can be lost, forcing a (deduped) retransmission.
                self._bump(self.acks, kind)
                acked = yield from net.send_message(
                    dst,
                    src,
                    cfg.control_kb,
                    kind + "_ack",
                    ni_time_s=cfg.ni_control_time(),
                )
                if acked:
                    return True
            remaining = spec.timeout_s - (env.now - started)
            if remaining > 0:
                yield env.timeout(remaining)
            if attempt < spec.max_retries:
                backoff = spec.backoff(attempt + 1)
                if backoff > 0:
                    yield env.timeout(backoff)
        self._bump(self.failures, kind)
        return False

    # -- waiting (callback) form --------------------------------------------

    def request_cb(
        self,
        src: int,
        dst: int,
        size_kb: float,
        kind: str,
        done: Callable[[bool], None],
        ni_time_s: Optional[float] = None,
    ) -> None:
        """Callback twin of :meth:`request_gen`.

        Same attempts, charges, waits and counters in the same order;
        ``done(True)`` fires when a transmission is acknowledged,
        ``done(False)`` when retries exhaust.  Like the generator's local
        shortcut, ``src == dst`` completes at once without a message.
        """
        if src == dst:
            done(True)
            return
        _ReliableRequest(self, src, dst, size_kb, kind, done, ni_time_s)

    # -- fire-and-forget (callback) form -----------------------------------

    def send_cb(
        self,
        src: int,
        dst: int,
        size_kb: float,
        kind: str,
        deliver: Optional[Callable[[], None]] = None,
        failed: Optional[Callable[[], None]] = None,
        ni_time_s: Optional[float] = None,
    ) -> None:
        """Reliable fire-and-forget send.

        ``deliver()`` fires at the *first* delivery (at-most-once);
        ``failed()`` fires if retries exhaust without any delivery.
        """
        if src == dst:
            self.net.send_message_cb(src, dst, size_kb, kind, ni_time_s, done=deliver)
            return
        _ReliableSend(self, src, dst, size_kb, kind, deliver, failed, ni_time_s)

    def send_control_cb(
        self,
        src: int,
        dst: int,
        kind: str,
        deliver: Optional[Callable[[], None]] = None,
        failed: Optional[Callable[[], None]] = None,
    ) -> None:
        cfg = self.net.config
        self.send_cb(
            src,
            dst,
            cfg.control_kb,
            kind,
            deliver=deliver,
            failed=failed,
            ni_time_s=cfg.ni_control_time(),
        )


class _ReliableSend:
    """State machine for one :meth:`ReliableMessenger.send_cb` call."""

    __slots__ = (
        "messenger",
        "net",
        "env",
        "src",
        "dst",
        "size_kb",
        "ni_time_s",
        "kind",
        "deliver",
        "failed",
        "spec",
        "seq",
        "attempt",
        "delivered",
        "finished",
    )

    def __init__(
        self,
        messenger: ReliableMessenger,
        src: int,
        dst: int,
        size_kb: float,
        kind: str,
        deliver: Optional[Callable[[], None]],
        failed: Optional[Callable[[], None]],
        ni_time_s: Optional[float],
    ):
        self.messenger = messenger
        self.net = messenger.net
        self.env = messenger.env
        self.src = src
        self.dst = dst
        self.size_kb = size_kb
        self.ni_time_s = ni_time_s
        self.kind = kind
        self.deliver = deliver
        self.failed = failed
        self.spec = messenger.spec_for(kind)
        messenger._seq += 1
        self.seq = messenger._seq
        self.attempt = 0
        self.delivered = False
        self.finished = False
        self._transmit()

    def _transmit(self) -> None:
        self.net.send_message_cb(
            self.src,
            self.dst,
            self.size_kb,
            self.kind,
            self.ni_time_s,
            done=self._on_delivered,
        )
        self.env.schedule_callback(self.spec.timeout_s, self._on_timeout)

    def _on_delivered(self) -> None:
        m = self.messenger
        if self.delivered or self.finished:
            # The receiver has seen this sequence number already: a
            # retransmission (or late original) is deduped — the effect
            # does not fire again — but it is still re-acked.
            m._bump(m.dedups, self.kind)
        else:
            self.delivered = True
            if self.deliver is not None:
                self.deliver()
        if self.finished:
            return
        m._bump(m.acks, self.kind)
        cfg = self.net.config
        self.net.send_message_cb(
            self.dst,
            self.src,
            cfg.control_kb,
            self.kind + "_ack",
            ni_time_s=cfg.ni_control_time(),
            done=self._on_ack,
        )

    def _on_ack(self) -> None:
        self.finished = True

    def _on_timeout(self) -> None:
        if self.finished:
            return
        m = self.messenger
        if self.attempt >= self.spec.max_retries:
            self.finished = True
            m._bump(m.failures, self.kind)
            if not self.delivered and self.failed is not None:
                self.failed()
            return
        self.attempt += 1
        m._bump(m.retries, self.kind)
        backoff = self.spec.backoff(self.attempt)
        if backoff > 0:
            self.env.schedule_callback(backoff, self._retransmit)
        else:
            self._retransmit()

    def _retransmit(self) -> None:
        if self.finished:
            return
        self._transmit()


class _ReliableRequest:
    """State machine for one :meth:`ReliableMessenger.request_cb` call.

    Stop-and-wait, mirroring :meth:`ReliableMessenger.request_gen`: an
    attempt sends the payload; a delivery sends the ack back; a lost
    payload or ack waits out the rest of the timeout, then the backoff,
    then retransmits.
    """

    __slots__ = (
        "messenger",
        "net",
        "env",
        "src",
        "dst",
        "size_kb",
        "ni_time_s",
        "kind",
        "done",
        "spec",
        "attempt",
        "started",
        "delivered_once",
    )

    def __init__(
        self,
        messenger: ReliableMessenger,
        src: int,
        dst: int,
        size_kb: float,
        kind: str,
        done: Callable[[bool], None],
        ni_time_s: Optional[float],
    ):
        self.messenger = messenger
        self.net = messenger.net
        self.env = messenger.env
        self.src = src
        self.dst = dst
        self.size_kb = size_kb
        self.ni_time_s = ni_time_s
        self.kind = kind
        self.done = done
        self.spec = messenger.spec_for(kind)
        self.attempt = 0
        self.delivered_once = False
        self._transmit()

    def _transmit(self) -> None:
        self.started = self.env.now
        if self.attempt:
            m = self.messenger
            m._bump(m.retries, self.kind)
        self.net.send_message_cb(
            self.src,
            self.dst,
            self.size_kb,
            self.kind,
            self.ni_time_s,
            done=self._on_delivered,
            on_drop=self._on_lost,
        )

    def _on_delivered(self) -> None:
        m = self.messenger
        if self.delivered_once:
            m._bump(m.dedups, self.kind)
        self.delivered_once = True
        # The receiver acks every copy it sees; the ack itself can be
        # lost, forcing a (deduped) retransmission.
        m._bump(m.acks, self.kind)
        cfg = self.net.config
        self.net.send_message_cb(
            self.dst,
            self.src,
            cfg.control_kb,
            self.kind + "_ack",
            cfg.ni_control_time(),
            done=self._on_acked,
            on_drop=self._on_lost,
        )

    def _on_acked(self) -> None:
        self.done(True)

    def _on_lost(self) -> None:
        remaining = self.spec.timeout_s - (self.env.now - self.started)
        if remaining > 0:
            self.env.call_later(remaining, self._timed_out)
        else:
            self._timed_out(None)

    def _timed_out(self, _e) -> None:
        if self.attempt >= self.spec.max_retries:
            m = self.messenger
            m._bump(m.failures, self.kind)
            self.done(False)
            return
        self.attempt += 1
        backoff = self.spec.backoff(self.attempt)
        if backoff > 0:
            self.env.call_later(backoff, self._retransmit)
        else:
            self._transmit()

    def _retransmit(self, _e) -> None:
        self._transmit()
