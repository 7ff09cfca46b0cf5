"""The trace bus: typed events from the simulator's publisher layers.

Publishers (the scheduler, the NAT engine, the forwarding plane, links and
fault injection) hold a reference to their :class:`~repro.netsim.sim
.Simulation` and emit through its ``bus`` attribute, guarded at every site::

    bus = self.sim.bus
    if bus is not None:
        bus.emit(NAT_BIND, dev=tag, proto=proto, ext_port=port)

``Simulation.bus`` is ``None`` by default, so the disabled path costs one
attribute load and an identity check — nothing is allocated, formatted or
buffered.  When a bus is attached, :meth:`TraceBus.emit` stamps the event
with the current virtual time and fans it out to every subscribed sink.

Event vocabulary
----------------

Kinds are short dotted strings (stable identifiers — they appear verbatim in
JSONL traces and metric names):

=============  ==============================================================
kind           meaning / notable fields
=============  ==============================================================
``pkt.rx``     gateway received a frame (``dev``, ``iface``, ``size``)
``pkt.tx``     gateway transmitted a forwarded packet (``dev``, ``dir``)
``pkt.drop``   gateway dropped a packet (``dev``, ``cause``)
``nat.bind``   binding created (``dev``, ``proto``, 5-tuple, ``ext_port``)
``nat.refresh``  binding idle timer re-armed (``dev``, ``proto``,
               ``ext_port``, ``state``, ``deadline``)
``nat.expire``  binding idled out (``dev``, ``proto``, ``ext_port``,
               ``lifetime``)
``nat.refused``  binding creation refused (``dev``, ``cause``:
               ``table_full`` | ``rate_limited``)
``nat.flush``  session table wiped by a crash (``dev``, ``count``)
``link.tx``    frame finished serializing onto a wire (``link``, ``size``,
               ``_frame`` — the live frame object, for the pcap sink;
               ``_iface`` — the sending interface, for ``PacketTrace``)
``link.drop``  frame lost at/on a link (``link``, ``cause``: ``tail_drop`` |
               ``severed`` | ``flush`` | ``loss`` | ``corrupt``)
``link.dup``   impairment delivered a frame twice (``link``)
``timer.fire`` a live :class:`~repro.netsim.sim.Timer` fired (``cb``)
``fault.crash``  gateway power-cycled (``dev``, ``boot``)
``fault.boot``  gateway finished rebooting (``dev``)
``stun.request``  STUN server answered a binding request (``port``)
``stun.response``  STUN client received its mapped address (``port``)
``punch.tx``   hole-punch probe sent toward a reflexive endpoint (``side``)
``punch.rx``   hole-punch probe arrived through the NAT (``side``)
``relay.fallback``  direct punch failed; session fell back to the relay
``flow.start``  workload generator opened an application flow (``dev``,
               ``sub``, ``app``, ``flow``, ``bytes``)
``flow.complete``  an application flow finished its transfer (``dev``,
               ``sub``, ``app``, ``flow``, ``fct`` — completion time [s])
=============  ==============================================================

Field values are JSON-friendly scalars; the exceptions are the
underscore-prefixed ``_frame`` and ``_iface`` on ``link.tx``, which carry the
in-flight frame object and its sender for sinks that serialize real wire
bytes (pcap) or capture per interface.  Text sinks skip underscore-prefixed
fields.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.netsim.sim import Simulation

# Packet-path events (gateway perspective).
PKT_RX = "pkt.rx"
PKT_TX = "pkt.tx"
PKT_DROP = "pkt.drop"

# NAT engine events.
NAT_BIND = "nat.bind"
NAT_REFRESH = "nat.refresh"
NAT_EXPIRE = "nat.expire"
NAT_REFUSED = "nat.refused"
NAT_FLUSH = "nat.flush"

# Link-layer events.
LINK_TX = "link.tx"
LINK_DROP = "link.drop"
LINK_DUP = "link.dup"

# Scheduler events.
TIMER_FIRE = "timer.fire"

# Fault-injection events.
FAULT_CRASH = "fault.crash"
FAULT_BOOT = "fault.boot"

# NAT-traversal events (STUN/hole-punch/relay experiments).
STUN_REQUEST = "stun.request"
STUN_RESPONSE = "stun.response"
PUNCH_TX = "punch.tx"
PUNCH_RX = "punch.rx"
RELAY_FALLBACK = "relay.fallback"

# Workload-generator flow lifecycle events (repro.workload).
FLOW_START = "flow.start"
FLOW_COMPLETE = "flow.complete"


class TraceBus:
    """Fan-out point between event publishers and sinks.

    One bus observes one :class:`~repro.netsim.sim.Simulation`; attaching is
    simply ``sim.bus = TraceBus(sim)`` (or :meth:`attach`).  Sinks are any
    object with ``handle(t, kind, fields)``; they are called synchronously,
    in subscription order, with the *same* fields dict — sinks must not
    mutate it.
    """

    __slots__ = ("sim", "_sinks")

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self._sinks: List[Any] = []

    @classmethod
    def attach(cls, sim: "Simulation") -> "TraceBus":
        """Create a bus and install it as ``sim.bus``."""
        bus = cls(sim)
        sim.bus = bus
        return bus

    def detach(self) -> None:
        """Remove this bus from its simulation (publishers go quiet again)."""
        if self.sim.bus is self:
            self.sim.bus = None

    def subscribe(self, sink: Any) -> Any:
        """Register a sink (``handle(t, kind, fields)``); returns it."""
        self._sinks.append(sink)
        return sink

    def unsubscribe(self, sink: Any) -> int:
        """Remove a sink registered with :meth:`subscribe`; returns how many remain."""
        self._sinks.remove(sink)
        return len(self._sinks)

    def emit(self, kind: str, **fields: Any) -> None:
        """Publish one event, stamped with the current virtual time.

        Emission is passive: it draws no randomness and schedules nothing,
        so an observed simulation computes exactly what an unobserved one
        does.
        """
        t = self.sim.now
        for sink in self._sinks:
            sink.handle(t, kind, fields)
