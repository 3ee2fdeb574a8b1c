"""The life of one client request through the simulated cluster.

Mirrors Figure 2's path and Section 5.1's methodology:

1. the request enters through the **router** and the initial node's
   **NI-in** (request-sized transfers);
2. the initial node's **CPU parses** it (1/mu_p);
3. the policy picks the service node; a hand-off costs forwarding CPU
   work (1/mu_f) plus a request-sized M-VIA message (CPU and NI charges
   on both sides, switch latency in between);
4. the service node opens the connection (its load metric), brings the
   file into memory — free on a cache hit, a DFS/disk read on a miss —
   and spends reply CPU time (1/mu_m);
5. the reply leaves through the service node's **NI-out** (1/mu_o) and
   the **router**, directly to the client (TCP hand-off: no detour
   through the initial node).

Connection accounting and the policy hooks around it drive L2S's load
broadcasts and LARD's completion notices.

Failure semantics (fault-injection runs): a node involved in the
request crashing aborts the request at the next stage boundary.  The
check is *incarnation-aware* — a request that started against a node
which crashed and already recovered still aborts, because its
connection died with the old incarnation.  A client-side timeout
(:class:`repro.des.Interrupt` thrown by the driver) aborts the same
way.  Aborts fire ``on_failed(index)``; the driver decides whether to
retry.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..cluster import Cluster
from ..cluster.dfs import RemoteFetchFailed
from ..cluster.node import CPU_BULK, CPU_PROMPT
from ..des import Interrupt
from ..des.core import URGENT
from ..servers import DistributionPolicy
from ..servers.base import ServiceUnavailable

__all__ = ["client_request", "start_fast_request", "NodeFailedError"]


class NodeFailedError(Exception):
    """A node involved in the request crashed mid-flight."""

    def __init__(self, node_id: int, shed: bool = False):
        super().__init__(f"node {node_id} failed")
        self.node_id = node_id
        #: True when the request was *shed* (admission threshold or an
        #: open circuit breaker) rather than lost to a crash.  Sheds
        #: never feed the breakers — counting them as failures would let
        #: an overloaded-but-healthy node's breaker trip and then keep
        #: itself open on its own rejections.
        self.shed = shed


def _breaker_allows(cluster: Cluster, node_id: int) -> bool:
    """Service-entry breaker gate (claims a half-open probe slot)."""
    ov = cluster.overload
    if ov is None or ov.breakers is None:
        return True
    return ov.breakers.allow(node_id, cluster.env.now)


def _breaker_failure(cluster: Cluster, node_id: int) -> None:
    ov = cluster.overload
    if ov is not None and ov.breakers is not None:
        ov.breakers.record_failure(node_id, cluster.env.now)


def _breaker_success(cluster: Cluster, node_id: int) -> None:
    ov = cluster.overload
    if ov is not None and ov.breakers is not None:
        ov.breakers.record_success(node_id, cluster.env.now)


def client_request(
    cluster: Cluster,
    policy: DistributionPolicy,
    index: int,
    file_id: int,
    size_bytes: int,
    on_done: Optional[Callable[[int, float, bool, bool], None]] = None,
    on_failed: Optional[Callable[[int], None]] = None,
) -> Generator:
    """Process generator for one client request.

    ``on_done(index, start_time, forwarded, was_miss)`` is invoked after
    the reply has fully left the cluster.  If a node involved crashes
    mid-flight (failure-injection runs) or the driver interrupts the
    request (client timeout), the request aborts and ``on_failed(index)``
    fires instead; without an ``on_failed`` handler the abort propagates
    as :class:`NodeFailedError`.
    """
    env = cluster.env
    hw = cluster.config.hardware
    size_kb = size_bytes / 1024.0
    start = env.now
    initial: Optional[int] = None
    opened = False

    try:
        try:
            initial = policy.initial_node(index, file_id)
        except ServiceUnavailable:
            raise NodeFailedError(-1) from None
        initial_node = cluster.node(initial)
        initial_inc = initial_node.incarnation

        def initial_dead() -> bool:
            return initial_node.failed or initial_node.incarnation != initial_inc

        # Inbound: router moves the request into the cluster, the initial
        # node's NI receives it, the CPU reads and parses it.
        yield from cluster.net.route(hw.request_kb)
        if initial_dead():
            raise NodeFailedError(initial)
        yield from initial_node.use_ni_in(hw.ni_message_time(hw.request_kb))
        yield from initial_node.parse_request()
        if initial_dead():
            raise NodeFailedError(initial)

        proto = cluster.net.protocol
        nf = cluster.net.netfaults
        # On an unreliable fabric the front end may re-run the decision
        # after a hand-off exhausts its message retries (partition
        # tolerance); on a perfect fabric the budget is zero and the
        # loop below runs exactly once.
        redispatch_left = nf.config.handoff_redispatch if nf is not None else 0
        while True:
            try:
                if policy.async_decide:
                    # Dispatcher-style policies decide through the
                    # messaging layer (e.g. lard-ng's query round-trip).
                    decision = yield from policy.decide_process(initial, file_id)
                else:
                    decision = policy.decide(initial, file_id)
            except ServiceUnavailable:
                raise NodeFailedError(initial) from None
            target = decision.target
            if not decision.forwarded:
                break
            initial_node.forwarded += 1
            yield from initial_node.forward_work()
            if proto is not None and proto.covers("handoff"):
                delivered = yield from proto.request_gen(
                    initial, target, hw.request_kb, "handoff"
                )
            else:
                delivered = yield from cluster.net.send_message(
                    initial, target, hw.request_kb, kind="handoff"
                )
            if delivered:
                break
            # The hand-off (and all its retries) died in the fabric: let
            # the policy roll back its optimistic view charge, then
            # either re-dispatch or give up.
            policy.on_handoff_failed(initial, target)
            if redispatch_left <= 0 or initial_dead():
                raise NodeFailedError(target)
            redispatch_left -= 1
            if proto is not None:
                proto.redispatches += 1

        service_node = cluster.node(target)
        if service_node.failed:
            # Dead on arrival: the hand-off reached a crashed node, so no
            # connection will ever open there and no completion notice
            # will ever acknowledge the decide-time view charge.
            policy.on_handoff_failed(initial, target)
            raise NodeFailedError(target)
        threshold = cluster.config.admission_threshold
        if threshold is not None and service_node.open_connections >= threshold:
            # Admission control: the connection queue is full; the node
            # sheds the request and the client backs off and retries
            # (the driver's RetryPolicy is the retry-after).  A shed
            # connection never opens, so the view charge rolls back too.
            policy.on_handoff_failed(initial, target)
            cluster.note_shed(service_node)
            raise NodeFailedError(target, shed=True)
        if not _breaker_allows(cluster, target):
            # The node's circuit breaker is open (or its half-open probe
            # budget is spent): shed at the service door, after the
            # queue check so a queue shed never wastes a probe slot.
            policy.on_handoff_failed(initial, target)
            cluster.note_shed(service_node)
            raise NodeFailedError(target, shed=True)
        service_inc = service_node.incarnation

        def service_dead() -> bool:
            return service_node.failed or service_node.incarnation != service_inc

        service_node.connection_opened()
        opened = True
        policy.on_connection_change(target)

        misses_before = service_node.cache.misses
        try:
            # Memory or disk, then the reply work and the outbound path.
            yield from cluster.fetch_file(target, file_id, size_bytes)
            if service_dead():
                raise NodeFailedError(target)
            yield from service_node.reply_work(size_kb)
            if service_dead():
                raise NodeFailedError(target)
            yield from service_node.use_ni_out(hw.ni_reply_time(size_kb))
            yield from cluster.net.route(size_kb)
        finally:
            service_node.connection_closed()
            policy.on_connection_change(target)
            policy.on_complete(target, file_id)
            policy.on_connection_end(target)
    except (NodeFailedError, RemoteFetchFailed, Interrupt) as exc:
        if isinstance(exc, NodeFailedError) and not exc.shed and exc.node_id >= 0:
            # A crash-type loss: feed the implicated node's breaker.
            _breaker_failure(cluster, exc.node_id)
        if initial is not None:
            # Give dispatcher-style policies a chance to balance their
            # assignment counters for requests that never reached (or
            # never finished at) a service node.
            policy.on_request_aborted(initial, opened)
        if on_failed is None:
            raise
        on_failed(index)
        return

    _breaker_success(cluster, target)
    if on_done is not None:
        was_miss = service_node.cache.misses > misses_before
        on_done(index, start, decision.forwarded, was_miss)


class _FastRequest:
    """Callback-chain twin of :func:`client_request`.

    Walks the identical stage sequence — router, NI-in, parse, decide,
    (forward + hand-off), connection open, fetch, reply, NI-out, router —
    with the identical incarnation-aware abort checks at the identical
    stage boundaries, but drives it with callbacks and kernel-owned
    station holds (:meth:`Resource.hold <repro.des.resources.Resource.hold>`)
    instead of one generator ``Process`` per request.  Per request this
    eliminates the process, its initialize/terminate events, every
    ``Release`` event, and all ``Timeout`` allocations; the scheduler
    equivalence suite asserts the results are indistinguishable from the
    generator path.

    The generator path's netfault machinery is mirrored too: a hand-off
    the policy marks reliable rides :meth:`ReliableMessenger.request_cb
    <repro.netfaults.protocol.ReliableMessenger.request_cb>`, and a
    hand-off that dies in the fabric re-runs the decision while the
    ``handoff_redispatch`` budget lasts.  Dispatcher-style policies
    (``async_decide``) decide through their continuation-style
    ``decide_cb``.

    The driver falls back to :func:`client_request` whenever a request
    might be *interrupted* (client timeouts need a process to throw
    into), or when the DFS is partitioned (remote miss traffic keeps the
    generator path); see ``docs/KERNEL.md``.
    """

    __slots__ = (
        "cluster",
        "policy",
        "index",
        "file_id",
        "size_bytes",
        "size_kb",
        "on_done",
        "on_failed",
        "env",
        "hw",
        "start",
        "initial",
        "initial_node",
        "initial_inc",
        "decision",
        "service_node",
        "service_inc",
        "opened",
        "misses_before",
        "redispatch_left",
        "_san_tok",
    )

    def __init__(
        self,
        cluster: Cluster,
        policy: DistributionPolicy,
        index: int,
        file_id: int,
        size_bytes: int,
        on_done: Optional[Callable[[int, float, bool, bool], None]],
        on_failed: Optional[Callable[[int], None]],
    ):
        self.cluster = cluster
        self.policy = policy
        self.index = index
        self.file_id = file_id
        self.size_bytes = size_bytes
        self.size_kb = size_bytes / 1024.0
        self.on_done = on_done
        self.on_failed = on_failed
        self.env = cluster.env
        self.hw = cluster.config.hardware
        self.initial: Optional[int] = None
        self.opened = False
        # Sanitized runs track each chain as one in-flight operation so
        # a stalled request (no pending event to leak) is still reported.
        san = self.env._san
        self._san_tok = None if san is None else san.op_begin(
            "fast-request", f"request #{index}, file {file_id}"
        )
        # The urgent zero-delay kick mirrors the Initialize event that
        # starts a generator process, keeping both paths' first actions
        # at the same point in the event order.
        self.env.call_later(0.0, self._start, priority=URGENT)

    # -- failure plumbing --------------------------------------------------

    def _initial_dead(self) -> bool:
        node = self.initial_node
        return node.failed or node.incarnation != self.initial_inc

    def _service_dead(self) -> bool:
        node = self.service_node
        return node.failed or node.incarnation != self.service_inc

    def _abort(self) -> None:
        if self._san_tok is not None:
            self.env._san.op_end(self._san_tok)
            self._san_tok = None
        if self.initial is not None:
            self.policy.on_request_aborted(self.initial, self.opened)
        if self.on_failed is None:
            raise NodeFailedError(self.initial if self.initial is not None else -1)
        self.on_failed(self.index)

    def _close_connection(self) -> None:
        """The generator path's ``finally`` block around fetch/reply."""
        self.service_node.connection_closed()
        policy = self.policy
        target = self.decision.target
        policy.on_connection_change(target)
        policy.on_complete(target, self.file_id)
        policy.on_connection_end(target)

    # -- inbound -----------------------------------------------------------

    def _start(self, _e) -> None:
        self.start = self.env.now
        try:
            self.initial = self.policy.initial_node(self.index, self.file_id)
        except ServiceUnavailable:
            self._abort()
            return
        self.initial_node = node = self.cluster.node(self.initial)
        self.initial_inc = node.incarnation
        hw = self.hw
        self.cluster.net.router.hold(
            hw.route_time(hw.request_kb), self._route_in_done
        )

    def _route_in_done(self) -> None:
        if self._initial_dead():
            _breaker_failure(self.cluster, self.initial)
            self._abort()
            return
        hw = self.hw
        self.initial_node.ni_in.hold(
            hw.ni_message_time(hw.request_kb), self._ni_in_done
        )

    def _ni_in_done(self) -> None:
        node = self.initial_node
        node.cpu.hold(self.hw.parse_time(), self._parse_done, CPU_PROMPT, node)

    # -- decide + hand-off -------------------------------------------------

    def _parse_done(self) -> None:
        if self._initial_dead():
            _breaker_failure(self.cluster, self.initial)
            self._abort()
            return
        # On an unreliable fabric the front end may re-run the decision
        # after a hand-off exhausts its message retries (partition
        # tolerance); on a perfect fabric the budget is zero.
        nf = self.cluster.net.netfaults
        self.redispatch_left = nf.config.handoff_redispatch if nf is not None else 0
        self._decide()

    def _decide(self) -> None:
        policy = self.policy
        if policy.async_decide:
            # Dispatcher-style policies decide through the messaging
            # layer (e.g. lard-ng's query round-trip).
            policy.decide_cb(
                self.initial, self.file_id, self._decided, self._decide_failed
            )
            return
        try:
            decision = policy.decide(self.initial, self.file_id)
        except ServiceUnavailable:
            self._decide_failed()
            return
        self._decided(decision)

    def _decide_failed(self) -> None:
        # The generator path raises NodeFailedError(initial) here, whose
        # except-block blames the initial node; mirror that.
        _breaker_failure(self.cluster, self.initial)
        self._abort()

    def _decided(self, decision) -> None:
        self.decision = decision
        if decision.forwarded:
            node = self.initial_node
            node.forwarded += 1
            node.cpu.hold(
                self.hw.forward_time(), self._forward_done, CPU_PROMPT, node
            )
        else:
            self._at_service()

    def _forward_done(self) -> None:
        net = self.cluster.net
        proto = net.protocol
        if proto is not None and proto.covers("handoff"):
            proto.request_cb(
                self.initial,
                self.decision.target,
                self.hw.request_kb,
                "handoff",
                self._handoff_sent,
            )
        else:
            net.send_message_cb(
                self.initial,
                self.decision.target,
                self.hw.request_kb,
                kind="handoff",
                done=self._at_service,
                on_drop=self._handoff_lost,
            )

    def _handoff_sent(self, delivered: bool) -> None:
        if delivered:
            self._at_service()
        else:
            self._handoff_lost()

    def _handoff_lost(self) -> None:
        """The hand-off (and all its retries) died in the fabric: a lost
        message, a partition, or a target that crashed while it was in
        flight.  The policy rolls back its view charge; then the request
        re-runs the decision while the redispatch budget lasts, or aborts
        like any other crash casualty."""
        target = self.decision.target
        self.policy.on_handoff_failed(self.initial, target)
        if self.redispatch_left <= 0 or self._initial_dead():
            _breaker_failure(self.cluster, target)
            self._abort()
            return
        self.redispatch_left -= 1
        proto = self.cluster.net.protocol
        if proto is not None:
            proto.redispatches += 1
        self._decide()

    # -- service node: fetch + reply ---------------------------------------

    def _at_service(self) -> None:
        target = self.decision.target
        self.service_node = node = self.cluster.node(target)
        if node.failed:
            # Mirrors the generator path: dead on arrival rolls back the
            # decide-time view charge (no connection, no notice).
            self.policy.on_handoff_failed(self.initial, target)
            _breaker_failure(self.cluster, target)
            self._abort()
            return
        threshold = self.cluster.config.admission_threshold
        if threshold is not None and node.open_connections >= threshold:
            self.policy.on_handoff_failed(self.initial, target)
            self.cluster.note_shed(node)
            self._abort()
            return
        if not _breaker_allows(self.cluster, target):
            # Breaker shed, after the queue check (identical ordering to
            # the generator path) so a queue shed never wastes a probe.
            self.policy.on_handoff_failed(self.initial, target)
            self.cluster.note_shed(node)
            self._abort()
            return
        self.service_inc = node.incarnation
        node.connection_opened()
        self.opened = True
        self.policy.on_connection_change(target)
        self.misses_before = node.cache.misses
        if node.cache.lookup(self.file_id):
            self._after_fetch()
        else:
            # Replicated-disk miss: a local disk read (the partitioned
            # layout falls back to the generator lifecycle entirely).
            self.cluster.dfs.local_reads += 1
            node.disk.hold(self.hw.disk_time(self.size_kb), self._disk_done)

    def _disk_done(self) -> None:
        self.service_node.cache.insert(self.file_id, self.size_bytes)
        self._after_fetch()

    def _after_fetch(self) -> None:
        if self._service_dead():
            _breaker_failure(self.cluster, self.decision.target)
            self._close_connection()
            self._abort()
            return
        node = self.service_node
        node.cpu.hold(
            self.hw.reply_time(self.size_kb), self._reply_done, CPU_BULK, node
        )

    def _reply_done(self) -> None:
        if self._service_dead():
            _breaker_failure(self.cluster, self.decision.target)
            self._close_connection()
            self._abort()
            return
        self.service_node.ni_out.hold(
            self.hw.ni_reply_time(self.size_kb), self._ni_out_done
        )

    def _ni_out_done(self) -> None:
        self.cluster.net.router.hold(
            self.hw.route_time(self.size_kb), self._route_out_done
        )

    def _route_out_done(self) -> None:
        self._close_connection()
        _breaker_success(self.cluster, self.decision.target)
        if self._san_tok is not None:
            self.env._san.op_end(self._san_tok)
            self._san_tok = None
        if self.on_done is not None:
            was_miss = self.service_node.cache.misses > self.misses_before
            self.on_done(self.index, self.start, self.decision.forwarded, was_miss)


def start_fast_request(
    cluster: Cluster,
    policy: DistributionPolicy,
    index: int,
    file_id: int,
    size_bytes: int,
    on_done: Optional[Callable[[int, float, bool, bool], None]] = None,
    on_failed: Optional[Callable[[int], None]] = None,
) -> None:
    """Launch one client request on the callback-chain fast path.

    Drop-in sibling of ``env.process(client_request(...))`` for requests
    that will never be interrupted; see :class:`_FastRequest` for the
    exact fallback conditions the driver applies.
    """
    _FastRequest(cluster, policy, index, file_id, size_bytes, on_done, on_failed)
