"""Trace-bus sinks: JSONL event logs, per-link pcap captures, per-interface traces.

The two file sinks write files whose *content is a pure function of the simulation*:
records are stamped with virtual time only (never wall-clock), dict keys are
sorted, and floats use Python's shortest-round-trip ``repr`` — so a survey
traced at ``jobs=4`` produces byte-identical files to ``jobs=1``, and traces
are diffable artifacts across runs and machines.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, TextIO

from repro.netsim.node import Interface
from repro.netsim.pcap import DEFAULT_SNAPLEN, write_pcap_header, write_pcap_record
from repro.obs.bus import TraceBus

#: Catch-all routing key for events that belong to no particular device
#: (e.g. ``timer.fire`` in a multi-device testbed).
SIM_DEVICE = "sim"


def _json_default(value: Any) -> str:
    """Serialize non-JSON scalars (IPv4Address, MacAddress, enums) as text."""
    return str(value)


class JsonlTraceSink:
    """Route events into one JSON-lines file per device.

    Every record looks like::

        {"family":"udp1","kind":"nat.bind","proto":"udp","t":12.5,...}

    Routing: an event's ``dev`` field names its device; ``link.*`` events
    route on the device prefix of their ``link`` label (``"je:wan"`` →
    ``je``); anything unattributed goes to ``default_device`` (the shard's
    device in a sharded survey, else ``"sim"``).  Underscore-prefixed fields
    (live objects for binary sinks) are omitted.

    The sink outlives individual testbeds: a survey shard keeps one sink
    across all its measurement families and updates :attr:`family` between
    them, so ``<tag>.jsonl`` holds the device's whole campaign in family
    execution order.
    """

    def __init__(self, directory: pathlib.Path | str, default_device: Optional[str] = None):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.default_device = default_device or SIM_DEVICE
        #: Measurement family stamped on each record; set by the observer.
        self.family: Optional[str] = None
        self._streams: Dict[str, TextIO] = {}
        self.records_written = 0

    def _stream_for(self, device: str) -> TextIO:
        stream = self._streams.get(device)
        if stream is None:
            stream = open(self.directory / f"{device}.jsonl", "w", encoding="utf-8")
            self._streams[device] = stream
        return stream

    def _route(self, fields: Dict[str, Any]) -> str:
        device = fields.get("dev")
        if device is not None:
            return str(device)
        label = fields.get("link")
        if isinstance(label, str) and ":" in label:
            return label.split(":", 1)[0]
        return self.default_device

    def handle(self, t: float, kind: str, fields: Dict[str, Any]) -> None:
        record: Dict[str, Any] = {"t": t, "kind": kind}
        if self.family is not None:
            record["family"] = self.family
        for key, value in fields.items():
            if not key.startswith("_"):
                record[key] = value
        line = json.dumps(record, sort_keys=True, separators=(",", ":"), default=_json_default)
        self._stream_for(self._route(fields)).write(line + "\n")
        self.records_written += 1

    def close(self) -> None:
        for stream in self._streams.values():
            stream.close()
        self._streams.clear()


class PcapSink:
    """Write one classic-libpcap capture per link (``link.tx`` events).

    Filenames are ``<dev>.<family>.<role>.pcap`` for links labelled
    ``"<dev>:<role>"`` (the testbed labels every link it builds), so a
    traced survey leaves a Wireshark-ready capture of each device's four
    testbed wires per measurement family.  Frames are serialized to real
    wire bytes *at capture time* — later in-place NAT rewrites of the same
    packet object cannot retroactively alter the capture, exactly like a
    physical tap.
    """

    def __init__(self, directory: pathlib.Path | str, family: Optional[str] = None, snaplen: int = DEFAULT_SNAPLEN):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.family = family
        self.snaplen = snaplen
        self._streams: Dict[str, Any] = {}
        self.records_written = 0

    def _file_name(self, label: str) -> str:
        stem = label.replace(":", ".")
        if self.family:
            dev, sep, role = label.partition(":")
            stem = f"{dev}.{self.family}.{role}" if sep else f"{stem}.{self.family}"
        return f"{stem}.pcap"

    def handle(self, t: float, kind: str, fields: Dict[str, Any]) -> None:
        if kind != "link.tx":
            return
        frame = fields.get("_frame")
        if frame is None:
            return
        label = str(fields.get("link", "link"))
        stream = self._streams.get(label)
        if stream is None:
            stream = open(self.directory / self._file_name(label), "wb")
            write_pcap_header(stream, self.snaplen)
            self._streams[label] = stream
        write_pcap_record(stream, t, frame.to_bytes(), self.snaplen)
        self.records_written += 1

    def close(self) -> None:
        for stream in self._streams.values():
            stream.close()
        self._streams.clear()


@dataclass(frozen=True)
class TraceEntry:
    """One captured frame."""

    timestamp: float
    direction: str  # "tx" or "rx"
    frame: Any

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.direction} @ {self.timestamp:.6f}s {self.frame!r}>"


class PacketTrace:
    """Record every frame crossing one interface, in memory.

    The paper settles several behaviours "by inspecting packet traces" (the
    ICMP translation tests in §3.2.3 hijack packets and look at what the NAT
    emitted); this is the tcpdump of the reproduction.  It taps the same
    ``link.tx`` events as :class:`PcapSink`: a frame the interface put on its
    wire is ``"tx"``, one its link peer put on the wire is ``"rx"``, both
    stamped at serialization-done — so a trace and a pcap of the same link
    hold the same frames with the same timestamps.  Frames are the live
    objects, not wire bytes.

    Capturing needs a trace bus, which turns the staged engine on: :meth:`on`
    reuses ``sim.bus`` when one is attached, otherwise attaches its own, and
    :meth:`detach` removes a bus it attached once nothing else listens on it.
    """

    def __init__(self, iface: Interface):
        self.iface = iface
        self.entries: List[TraceEntry] = []
        sim = iface.node.sim
        self._owns_bus = sim.bus is None
        self._bus: Optional[TraceBus] = TraceBus.attach(sim) if self._owns_bus else sim.bus
        self._bus.subscribe(self)

    @classmethod
    def on(cls, iface: Interface) -> "PacketTrace":
        """Start capturing on ``iface``."""
        return cls(iface)

    def handle(self, t: float, kind: str, fields: Dict[str, Any]) -> None:
        if kind != "link.tx":
            return
        sender = fields.get("_iface")
        if sender is self.iface:
            direction = "tx"
        elif sender is not None and sender.endpoint.peer.iface is self.iface:
            direction = "rx"
        else:
            return
        self.entries.append(TraceEntry(t, direction, fields["_frame"]))

    def detach(self) -> None:
        """Stop capturing; the entries stay."""
        if self._bus is None:
            return
        if self._bus.unsubscribe(self) == 0 and self._owns_bus:
            self._bus.detach()
        self._bus = None

    def clear(self) -> None:
        self.entries.clear()

    def select(
        self,
        direction: Optional[str] = None,
        predicate: Optional[Callable[[Any], bool]] = None,
    ) -> List[TraceEntry]:
        """Filter captured entries by direction and/or a frame predicate."""
        out = []
        for entry in self.entries:
            if direction is not None and entry.direction != direction:
                continue
            if predicate is not None and not predicate(entry.frame):
                continue
            out.append(entry)
        return out

    def __len__(self) -> int:
        return len(self.entries)
