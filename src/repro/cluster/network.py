"""Cluster interconnect: router to the Internet, switch, VIA messaging.

The router (the cluster's bridge to the Internet) is a single FIFO queue
whose occupancy is ``size / 500000 KB/s`` per transfer (Table 1's mu_r).
The switched network between nodes adds a fixed 1 microsecond latency and
is otherwise contention-free ("we are simulating a very fast switched
network"); contention appears at the NIs and CPUs instead.

:meth:`Interconnect.send_message` models a user-level (M-VIA) message:
3 us CPU at the sender, NI-out occupancy, switch latency, NI-in occupancy
at the receiver, and 3 us CPU at the receiver — 19 us end to end for a
4-byte payload, matching the measurement the paper quotes.

Delivery is not guaranteed.  Two things can kill a message in flight:

* the receiver crashes (or crashes and recovers — a new incarnation must
  not see the old incarnation's bytes), checked at every receiver-side
  stage boundary; and
* an active :class:`~repro.netfaults.layer.NetFaultLayer`
  (``config.net_faults``) drops, delays, duplicates, or partitions it at
  the switch.

Both delivery paths therefore report an outcome: the generator form
returns True/False, the callback form fires ``done`` on delivery or
``on_drop`` on a drop.  Per-kind sent/delivered/dropped/duplicate
counters reconcile as ``sent == delivered + dropped + in_flight``.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from ..des import Environment, Resource
from ..des.core import URGENT
from .config import ClusterConfig
from .node import CPU_PROMPT, Node

__all__ = ["Interconnect"]


class _MessageChain:
    """Callback-chain delivery of one intra-cluster message.

    The allocation-light twin of :meth:`Interconnect.send_message`: the
    same charges in the same order (sender CPU, sender NI-out, switch,
    receiver NI-in, receiver CPU), each a kernel-owned station hold
    (:meth:`Resource.hold <repro.des.resources.Resource.hold>`) whose
    continuation is the next stage, instead of a generator process.
    Fire-and-forget broadcasts and the request-lifecycle fast path use
    it; code that must *wait* inline inside a generator keeps the
    ``yield from`` form.
    """

    __slots__ = (
        "net",
        "env",
        "sender",
        "receiver",
        "size_kb",
        "ni_time",
        "kind",
        "done",
        "on_drop",
        "_rinc",
        "_extra_delay",
        "_dup",
        "_tok",
    )

    def __init__(
        self,
        net: "Interconnect",
        sender: Node,
        receiver: Node,
        size_kb: float,
        ni_time: float,
        kind: str,
        done: Optional[Callable[[], None]],
        on_drop: Optional[Callable[[], None]] = None,
        tok: Optional[int] = None,
    ):
        self.net = net
        self.env = net.env
        self.sender = sender
        self.receiver = receiver
        self.size_kb = size_kb
        self.ni_time = ni_time
        self.kind = kind
        self.done = done
        self.on_drop = on_drop
        self._rinc = receiver.incarnation
        self._extra_delay = 0.0
        self._dup = False
        self._tok = tok
        # The urgent zero-delay kick stands in for the Initialize event
        # that used to start the equivalent message process, keeping
        # resource-queue arrival order bit-identical to the process path.
        self.env.call_later(0.0, self._start, priority=URGENT)

    def _start(self, _e) -> None:
        sender = self.sender
        sender.cpu.hold(
            self.net.config.cpu_msg_overhead_s,
            self._cpu_out_done,
            CPU_PROMPT,
            sender,
        )

    def _cpu_out_done(self) -> None:
        self.sender.ni_out.hold(self.ni_time, self._ni_out_done)

    def _ni_out_done(self) -> None:
        net = self.net
        cfg = net.config
        nf = net.netfaults
        if nf is not None:
            cause, delay, dup = nf.judge(self.sender.id, self.receiver.id, self.kind)
            if cause is not None:
                self._drop(cause)
                return
            self._extra_delay = delay
            self._dup = dup
        if net.switch_ports is not None:
            # Output-queued fabric: the destination port serializes
            # transfers headed to the same node.
            net.switch_ports[self.receiver.id].hold(
                cfg.switch_latency_s
                + self.size_kb / cfg.hardware.ni_kb_per_s
                + self._extra_delay,
                self._switched,
            )
        else:
            self.env.call_later(cfg.switch_latency_s + self._extra_delay, self._switched)

    def _switched(self, _e=None) -> None:
        receiver = self.receiver
        if receiver.failed or receiver.incarnation != self._rinc:
            self._drop("crash")
            return
        receiver.ni_in.hold(self.ni_time, self._ni_in_done)

    def _ni_in_done(self) -> None:
        receiver = self.receiver
        if receiver.failed or receiver.incarnation != self._rinc:
            self._drop("crash")
            return
        receiver.cpu.hold(
            self.net.config.cpu_msg_overhead_s,
            self._cpu_in_done,
            CPU_PROMPT,
            receiver,
        )

    def _cpu_in_done(self) -> None:
        receiver = self.receiver
        if receiver.failed or receiver.incarnation != self._rinc:
            self._drop("crash")
            return
        net = self.net
        net._record_delivered(self.kind, self._tok)
        self._tok = None
        if self._dup:
            # A duplicate copy arrives right behind the original: it
            # charges the receiver's NI and CPU again but carries no
            # effect (and no counters beyond the dup tally).
            net._record_dup(self.kind)
            _DupDelivery(net, receiver, self.ni_time)
        if self.done is not None:
            self.done()

    def _drop(self, cause: str) -> None:
        self.net._record_dropped(self.kind, cause, self._tok)
        self._tok = None
        if self.on_drop is not None:
            self.on_drop()


class _DupDelivery:
    """Receiver-side charges of one duplicated message copy.

    Used by both delivery paths: the copy occupies the receiver's NI-in
    and CPU like the original but fires no completion and moves no
    counters (the dup tally was recorded when it was spawned).
    """

    __slots__ = ("net", "receiver")

    def __init__(self, net: "Interconnect", receiver: Node, ni_time: float):
        self.net = net
        self.receiver = receiver
        if not receiver.failed:
            receiver.ni_in.hold(ni_time, self._ni_done)

    def _ni_done(self) -> None:
        receiver = self.receiver
        receiver.cpu.hold(
            self.net.config.cpu_msg_overhead_s,
            self._cpu_done,
            CPU_PROMPT,
            receiver,
        )

    def _cpu_done(self) -> None:
        """The copy has been charged; it carries no effect."""


class Interconnect:
    """Router plus switched intra-cluster network."""

    def __init__(self, env: Environment, config: ClusterConfig, nodes: List[Node]):
        self.env = env
        self.config = config
        self.nodes = nodes
        self.router = Resource(env, capacity=1, name="router")
        #: Count of intra-cluster messages sent (for overhead accounting).
        self.messages_sent = 0
        #: Message counts by kind: sent, delivered, dropped, duplicated.
        #: ``in_flight_counts`` is a level, not a meter: it survives
        #: :meth:`reset_accounting` so the reconciliation
        #: ``sent == delivered + dropped + in_flight-delta`` holds across
        #: the warmup boundary.
        self.message_counts: dict = {}
        self.delivered_counts: Dict[str, int] = {}
        self.dropped_counts: Dict[str, int] = {}
        self.drop_causes: Dict[str, int] = {}
        self.dup_counts: Dict[str, int] = {}
        self.in_flight_counts: Dict[str, int] = {}
        #: Output-queued switch ports (one per destination node), present
        #: only when the config asks for fabric contention.
        self.switch_ports: Optional[List[Resource]] = None
        if config.model_switch_contention:
            self.switch_ports = [
                Resource(env, capacity=1, name=f"swport{n.id}") for n in nodes
            ]
        #: Unreliable-fabric layer; None when ``config.net_faults`` is
        #: absent or inert, in which case the legacy perfect-delivery
        #: paths run unchanged (crash drops excepted).
        self.netfaults = None
        #: Ack/retry protocol engine; present only with an active layer.
        self.protocol = None
        if config.net_faults is not None and config.net_faults.active:
            from ..netfaults.layer import NetFaultLayer
            from ..netfaults.protocol import ReliableMessenger

            self.netfaults = NetFaultLayer(env, config.net_faults, len(nodes))
            self.protocol = ReliableMessenger(self, config.net_faults)

    # -- router (Internet side) ---------------------------------------------

    def route(self, size_kb: float) -> Generator:
        """Move ``size_kb`` through the router (requests in, replies out)."""
        with self.router.request() as req:
            yield req
            yield self.env.timeout(self.config.hardware.route_time(size_kb))

    # -- message accounting ---------------------------------------------------

    def _record_send(self, kind: str) -> Optional[int]:
        """Count one message at send time; returns a sanitizer token.

        Both delivery variants call this synchronously from the send call
        itself — *before* any event is scheduled — so the counters can
        never straddle a same-timestep :meth:`reset_accounting` differently
        between the generator and callback paths.
        """
        self.messages_sent += 1
        counts = self.message_counts
        counts[kind] = counts.get(kind, 0) + 1
        inflight = self.in_flight_counts
        inflight[kind] = inflight.get(kind, 0) + 1
        san = self.env._san
        if san is None:
            return None
        return san.op_begin("interconnect-message", kind)

    def _record_delivered(self, kind: str, tok: Optional[int]) -> None:
        counts = self.delivered_counts
        counts[kind] = counts.get(kind, 0) + 1
        self.in_flight_counts[kind] -= 1
        if tok is not None:
            self.env._san.op_end(tok)

    def _record_dropped(self, kind: str, cause: str, tok: Optional[int]) -> None:
        counts = self.dropped_counts
        counts[kind] = counts.get(kind, 0) + 1
        causes = self.drop_causes
        causes[cause] = causes.get(cause, 0) + 1
        self.in_flight_counts[kind] -= 1
        if tok is not None:
            self.env._san.op_end(tok)

    def _record_dup(self, kind: str) -> None:
        counts = self.dup_counts
        counts[kind] = counts.get(kind, 0) + 1

    # -- intra-cluster messaging ----------------------------------------------

    def send_message(
        self,
        src: int,
        dst: int,
        size_kb: float,
        kind: str = "msg",
        ni_time_s: Optional[float] = None,
    ) -> Generator:
        """Deliver one message from node ``src`` to node ``dst``.

        Yields until the message has been fully received (the receiver's
        CPU overhead included) or dropped; the generator's return value
        is True on delivery, False on a drop (receiver crash, fabric
        loss, downed link, partition).  Charges, in order: sender CPU
        overhead, sender NI-out, switch latency, receiver NI-in, receiver
        CPU overhead; a dropped message still costs the sender side.
        ``ni_time_s`` overrides the per-side NI occupancy (used for
        control messages).  A zero-latency shortcut applies when
        src == dst (a local "message" never touches the network and is
        not counted).

        Validation and the send counters run eagerly at call time, not at
        first advance, matching :meth:`send_message_cb`.
        """
        if not (0 <= src < len(self.nodes) and 0 <= dst < len(self.nodes)):
            raise ValueError(f"message endpoints out of range: {src} -> {dst}")
        if size_kb <= 0:
            raise ValueError(f"size_kb must be positive, got {size_kb}")
        if src == dst:
            return self._local_delivery()
        tok = self._record_send(kind)
        ni_time = ni_time_s if ni_time_s is not None else self.config.hardware.ni_message_time(size_kb)
        return self._deliver(self.nodes[src], self.nodes[dst], size_kb, ni_time, kind, tok)

    def _local_delivery(self) -> Generator:
        """The src == dst shortcut: instant, uncounted, always delivered."""
        return True
        yield  # pragma: no cover - makes this a generator function

    def _deliver(
        self,
        sender: Node,
        receiver: Node,
        size_kb: float,
        ni_time: float,
        kind: str,
        tok: Optional[int],
    ) -> Generator:
        cfg = self.config
        rinc = receiver.incarnation
        yield from sender.use_cpu(cfg.cpu_msg_overhead_s)
        yield from sender.use_ni_out(ni_time)
        extra = 0.0
        dup = False
        nf = self.netfaults
        if nf is not None:
            cause, extra, dup = nf.judge(sender.id, receiver.id, kind)
            if cause is not None:
                self._record_dropped(kind, cause, tok)
                return False
        if self.switch_ports is not None:
            # Output-queued fabric: the destination port serializes
            # transfers headed to the same node.
            with self.switch_ports[receiver.id].request() as port:
                yield port
                yield self.env.timeout(
                    cfg.switch_latency_s + size_kb / cfg.hardware.ni_kb_per_s + extra
                )
        else:
            yield self.env.timeout(cfg.switch_latency_s + extra)
        if receiver.failed or receiver.incarnation != rinc:
            self._record_dropped(kind, "crash", tok)
            return False
        yield from receiver.use_ni_in(ni_time)
        if receiver.failed or receiver.incarnation != rinc:
            self._record_dropped(kind, "crash", tok)
            return False
        yield from receiver.use_cpu(cfg.cpu_msg_overhead_s)
        if receiver.failed or receiver.incarnation != rinc:
            self._record_dropped(kind, "crash", tok)
            return False
        self._record_delivered(kind, tok)
        if dup:
            self._record_dup(kind)
            _DupDelivery(self, receiver, ni_time)
        return True

    def send_message_cb(
        self,
        src: int,
        dst: int,
        size_kb: float,
        kind: str = "msg",
        ni_time_s: Optional[float] = None,
        done: Optional[Callable[[], None]] = None,
        on_drop: Optional[Callable[[], None]] = None,
    ) -> None:
        """Deliver one message via the callback-chain fast path.

        Same charges and ordering as :meth:`send_message`, but driven by
        event callbacks (no generator, no process): the per-message cost
        drops from a process plus ~16 scheduled events to ~9 pooled ones.
        ``done()`` fires when the receiver's CPU overhead completes;
        ``on_drop()`` fires instead if the message is dropped (receiver
        crash or fabric fault).  With ``src == dst`` the uncounted
        zero-latency shortcut applies and ``done`` fires after the urgent
        kick.

        The chain does not start synchronously: an urgent zero-delay
        event stands in for the Initialize event that used to start the
        equivalent message process, so resource-queue arrival order is
        bit-identical to the process-based path.  The send *counters*,
        however, move synchronously here, exactly as in
        :meth:`send_message`.
        """
        if not (0 <= src < len(self.nodes) and 0 <= dst < len(self.nodes)):
            raise ValueError(f"message endpoints out of range: {src} -> {dst}")
        if size_kb <= 0:
            raise ValueError(f"size_kb must be positive, got {size_kb}")
        if src == dst:
            if done is not None:
                self.env.call_later(0.0, lambda _e: done(), priority=URGENT)
            return
        tok = self._record_send(kind)
        ni_time = (
            ni_time_s
            if ni_time_s is not None
            else self.config.hardware.ni_message_time(size_kb)
        )
        _MessageChain(
            self,
            self.nodes[src],
            self.nodes[dst],
            size_kb,
            ni_time,
            kind,
            done,
            on_drop,
            tok,
        )

    def send_control(self, src: int, dst: int, kind: str = "control") -> Generator:
        """A small (4-byte payload) control message: 19 us one-way.

        Returns True on delivery, False on a drop, like
        :meth:`send_message`.
        """
        return (
            yield from self.send_message(
                src, dst, self.config.control_kb, kind, ni_time_s=self.config.ni_control_time()
            )
        )

    def send_control_cb(
        self,
        src: int,
        dst: int,
        kind: str = "control",
        done: Optional[Callable[[], None]] = None,
        on_drop: Optional[Callable[[], None]] = None,
    ) -> None:
        """Callback-chain twin of :meth:`send_control`."""
        self.send_message_cb(
            src,
            dst,
            self.config.control_kb,
            kind,
            ni_time_s=self.config.ni_control_time(),
            done=done,
            on_drop=on_drop,
        )

    def broadcast_control(
        self,
        src: int,
        kind: str = "broadcast",
        exclude: Optional[int] = None,
    ) -> None:
        """Fire-and-forget control messages from ``src`` to all other nodes.

        The paper implements broadcast as multiple point-to-point M-VIA
        messages; each rides the callback-chain fast path so the sender
        does not block on delivery (and no per-message process is spawned).
        """
        for node in self.nodes:
            if node.id == src or node.id == exclude:
                continue
            self.send_control_cb(src, node.id, kind)

    def in_flight_total(self) -> int:
        """Messages sent but not yet delivered or dropped."""
        return sum(self.in_flight_counts.values())

    def reset_accounting(self) -> None:
        self.router.reset_accounting()
        self.messages_sent = 0
        self.message_counts.clear()
        self.delivered_counts.clear()
        self.dropped_counts.clear()
        self.drop_causes.clear()
        self.dup_counts.clear()
        # in_flight_counts is intentionally NOT cleared: it tracks live
        # messages, and clearing it mid-flight would corrupt the
        # sent/delivered/dropped reconciliation.
        if self.protocol is not None:
            self.protocol.reset_accounting()
