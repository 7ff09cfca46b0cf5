"""UDP binding timeout measurements: tests UDP-1 … UDP-5 (§3.2.1).

All variants share the same skeleton: the test client sends UDP on a fixed
source/destination port pair to create a binding, a sleep timer runs, then
the client instructs the server over the management link to send a response
back through the gateway.  Receipt (or not) of the response tells the client
whether the binding was still alive.

* **UDP-1** wraps that probe in the modified binary search
  (:class:`~repro.core.binary_search.BindingSearch`).
* **UDP-2** sends a single outbound packet, then the server streams
  responses with a growing gap until one no longer arrives.
* **UDP-3** is UDP-2 plus an outbound packet echoed after every response.
* **UDP-4** is not a separate experiment: it analyses the external ports
  observed across UDP-1 iterations (port preservation / binding reuse).
* **UDP-5** is UDP-2 against different well-known server ports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from ipaddress import IPv4Address
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.core import registry
from repro.core.binary_search import BindingSearch
from repro.core.results import DeviceSeries, Summary
from repro.core.runtime import Future, SimTask, run_tasks
from repro.testbed.testbed import Testbed
from repro.testbed.testrund import ManagementChannel, Testrund

#: Fixed client source port for the probe flows (one per device VLAN).
CLIENT_PROBE_PORT = 20001
DEFAULT_SERVER_PORT = 34567
DEFAULT_CUTOFF = 780.0
DEFAULT_GRACE = 2.0
#: Slack after the cutoff before the next iteration, guaranteeing the
#: previous binding expired so every iteration starts like the first.
QUIESCENCE_MARGIN = 10.0

#: Sends the opening probe of a flow gets before the device is declared
#: unreachable.  Keeps a healthy device alive under per-frame link loss
#: while still failing fast on a crashed or black-holing one.
INITIAL_PROBE_ATTEMPTS = 3

WELL_KNOWN_SERVICES = {"dns": 53, "tftp": 69, "http": 80, "ntp": 123, "snmp": 161}

@dataclass
class UdpTimeoutResult:
    """One device's result for one UDP test variant."""

    tag: str
    variant: str
    samples: List[float] = field(default_factory=list)
    censored: int = 0
    #: (iteration index, external port) pairs observed by the server, the
    #: raw material of the UDP-4 analysis.
    observed_ports: List[Tuple[int, int]] = field(default_factory=list)
    client_port: int = CLIENT_PROBE_PORT

    def summary(self) -> Summary:
        """Median/quartile summary of the measured timeouts."""
        return Summary.of(self.samples)


@dataclass(frozen=True)
class PortBehavior:
    """UDP-4's verdict for one device."""

    tag: str
    preserves_port: bool
    reuses_binding: Optional[bool]  # None when preservation makes it moot to observe

    @property
    def category(self) -> str:
        """The paper's three-way UDP-4 classification for this device."""
        if not self.preserves_port:
            return "new_binding_no_preservation"
        if self.reuses_binding:
            return "preserves_and_reuses"
        return "preserves_no_reuse"


class _Responder:
    """Server-side testrund handlers for the UDP probes.

    When the probed port already hosts a service on the test server (UDP-5
    probes well-known ports like DNS/53), the responder shares the existing
    socket: probe datagrams are recognized by their 8-byte flow id and
    everything else falls through to the original service.
    """

    def __init__(self, bed: Testbed, server_port: int):
        self.bed = bed
        existing = bed.server.udp.socket_for(server_port)
        self._chained = None
        self._owns_socket = existing is None
        if existing is None:
            self.socket = bed.server.udp.bind(server_port)
        else:
            self.socket = existing
            self._chained = existing.on_receive
        self.socket.on_receive = self._on_datagram
        # flow id -> (external ip, external port) of the latest probe packet.
        self.flow_endpoints: Dict[int, Tuple[IPv4Address, int]] = {}
        self.arrival_futures: Dict[int, Future] = {}

    def _on_datagram(self, payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
        if len(payload) < 8:
            if self._chained is not None:
                self._chained(payload, src_ip, src_port)
            return
        flow_id = int.from_bytes(payload[0:8], "big")
        if flow_id not in self.arrival_futures and flow_id not in self.flow_endpoints:
            if self._chained is not None:
                self._chained(payload, src_ip, src_port)
            return
        self.flow_endpoints[flow_id] = (src_ip, src_port)
        future = self.arrival_futures.pop(flow_id, None)
        if future is not None:
            future.set_result((src_ip, src_port))

    def detach(self) -> None:
        """Release the socket or restore the chained service handler."""
        if self._owns_socket:
            self.socket.close()
        else:
            self.socket.on_receive = self._chained

    def expect(self, flow_id: int, timeout: float) -> Future:
        future = Future(timeout=timeout)
        self.arrival_futures[flow_id] = future
        return future

    def respond(self, flow_id: int, seq: int) -> None:
        """Send one response packet back across the binding."""
        endpoint = self.flow_endpoints.get(flow_id)
        if endpoint is None:
            return
        payload = flow_id.to_bytes(8, "big") + seq.to_bytes(4, "big")
        self.socket.send_to(payload, endpoint[0], endpoint[1])


class UdpTimeoutProbe:
    """Runs one UDP test variant across the testbed population."""

    def __init__(
        self,
        variant: str,
        server_port: int = DEFAULT_SERVER_PORT,
        repetitions: int = 5,
        cutoff: float = DEFAULT_CUTOFF,
        grace: float = DEFAULT_GRACE,
        ramp_start: float = 2.0,
        ramp_step: float = 1.0,
        quiescent: bool = True,
    ):
        if variant not in ("udp1", "udp2", "udp3"):
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        self.server_port = server_port
        self.repetitions = repetitions
        self.cutoff = cutoff
        self.grace = grace
        self.ramp_start = ramp_start
        self.ramp_step = ramp_step
        #: The paper's "modification": wait out any residual binding after an
        #: alive probe so every iteration starts identical to the first.
        #: ``False`` gives the naive stateful search (for the ablation bench).
        self.quiescent = quiescent

    @classmethod
    def udp1(cls, **kwargs) -> "UdpTimeoutProbe":
        """UDP-1: solitary outbound packet, reply on expiry."""
        return cls("udp1", **kwargs)

    @classmethod
    def udp2(cls, **kwargs) -> "UdpTimeoutProbe":
        """UDP-2: single packet out, inbound stream with growing gaps."""
        return cls("udp2", **kwargs)

    @classmethod
    def udp3(cls, **kwargs) -> "UdpTimeoutProbe":
        """UDP-3: bidirectional refresh (each inbound answered)."""
        return cls("udp3", **kwargs)

    # -- population entry points -------------------------------------------

    def run_all(self, bed: Testbed, tags: Optional[Sequence[str]] = None) -> Dict[str, UdpTimeoutResult]:
        """Measure every device in parallel (as the paper's testbed does)."""
        tags = list(tags if tags is not None else bed.tags())
        # Flow ids restart per run: a frame's bytes (and hence a pcap capture)
        # must depend only on this run's own history, never on how many
        # probes the hosting process happened to run earlier.
        self._flows = itertools.count(1)
        channel = ManagementChannel(bed.sim)
        server_daemon = Testrund("server", channel)
        responder = _Responder(bed, self.server_port)
        server_daemon.register("respond", responder.respond)
        results = {tag: UdpTimeoutResult(tag, self.variant) for tag in tags}
        tasks = [
            SimTask(bed.sim, self._device_task(bed, tag, responder, server_daemon, results[tag]), name=f"{self.variant}:{tag}")
            for tag in tags
        ]
        run_tasks(bed.sim, tasks)
        responder.detach()
        return results

    def series(self, results: Dict[str, UdpTimeoutResult]) -> DeviceSeries:
        """Render the timeouts as a device-ordered series (censored kept)."""
        series = DeviceSeries(self.variant, "seconds")
        for tag, result in results.items():
            if result.samples:
                series.add(tag, result.summary())
            else:
                series.add_censored(tag, self.cutoff)
        return series

    # -- per-device measurement --------------------------------------------------

    def _device_task(
        self,
        bed: Testbed,
        tag: str,
        responder: _Responder,
        server_daemon: Testrund,
        result: UdpTimeoutResult,
    ) -> Generator:
        port = bed.port(tag)
        client_socket = bed.client.udp.bind(CLIENT_PROBE_PORT, port.client_iface_index)
        reply_waiters: Dict[Tuple[int, int], Future] = {}

        def on_reply(payload: bytes, _ip: IPv4Address, _port: int) -> None:
            if len(payload) < 12:
                return
            flow_id = int.from_bytes(payload[0:8], "big")
            seq = int.from_bytes(payload[8:12], "big")
            waiter = reply_waiters.pop((flow_id, seq), None)
            if waiter is not None:
                waiter.set_result(True)

        client_socket.on_receive = on_reply
        context = _DeviceContext(
            probe=self,
            bed=bed,
            tag=tag,
            client_socket=client_socket,
            responder=responder,
            server_daemon=server_daemon,
            reply_waiters=reply_waiters,
            result=result,
        )
        try:
            for repetition in range(self.repetitions):
                if self.variant == "udp1":
                    yield from context.binary_search_repetition(repetition)
                else:
                    yield from context.ramp_repetition(repetition, bidirectional=self.variant == "udp3")
        finally:
            client_socket.close()


@dataclass
class _DeviceContext:
    """State shared by the probe coroutines of one device."""

    probe: UdpTimeoutProbe
    bed: Testbed
    tag: str
    client_socket: object
    responder: _Responder
    server_daemon: Testrund
    reply_waiters: Dict[Tuple[int, int], Future]
    result: UdpTimeoutResult
    iteration: int = 0

    @property
    def server_ip(self) -> IPv4Address:
        return self.bed.port(self.tag).server_ip

    def _send_probe(self, flow_id: int) -> None:
        self.client_socket.send_to(
            flow_id.to_bytes(8, "big"), self.server_ip, self.probe.server_port
        )

    def _request_response(self, flow_id: int, seq: int) -> Future:
        future = Future(timeout=self.probe.grace)
        self.reply_waiters[(flow_id, seq)] = future
        self.server_daemon.invoke("respond", flow_id, seq)
        return future

    def _establish_flow(self) -> Generator:
        """Open a fresh flow through the NAT, retrying lost initial probes.

        Under stochastic link loss a single lost datagram must not write the
        device off, so the opening probe gets a few attempts (each with a
        fresh flow, so a half-created binding from a lost reply cannot
        contaminate the measurement).  A device that eats all of them is
        genuinely unreachable — crashed, bricked, or black-holing.
        """
        for _attempt in range(INITIAL_PROBE_ATTEMPTS):
            flow_id = next(self.probe._flows)
            arrival = self.responder.expect(flow_id, timeout=self.probe.grace)
            self._send_probe(flow_id)
            endpoint = yield arrival
            if endpoint is not None:
                self.iteration += 1
                self.result.observed_ports.append((self.iteration, endpoint[1]))
                return flow_id
        raise RuntimeError(
            f"{self.tag}: probe packet never reached the server "
            f"({INITIAL_PROBE_ATTEMPTS} attempts)"
        )

    # -- UDP-1: binary search ------------------------------------------------

    def binary_search_repetition(self, repetition: int) -> Generator:
        search = BindingSearch(self._single_probe, cutoff=self.probe.cutoff)
        outcome = yield from search.run()
        if outcome.censored:
            self.result.censored += 1
        elif outcome.estimate is not None:
            self.result.samples.append(outcome.estimate)

    def _single_probe(self, sleep: float) -> Generator:
        """One UDP-1 iteration: fresh binding, sleep, response, verdict."""
        flow_id = yield from self._establish_flow()
        yield sleep
        got = yield self._request_response(flow_id, seq=0)
        alive = bool(got)
        # Quiescence: if the binding survived, the response refreshed it; it
        # is guaranteed gone only one full cutoff later.
        if self.probe.quiescent:
            yield (self.probe.cutoff + QUIESCENCE_MARGIN) if alive else QUIESCENCE_MARGIN
        else:
            yield self.probe.grace  # naive search: plough straight on
        return alive

    # -- UDP-2 / UDP-3: growing-gap response stream -------------------------------

    def ramp_repetition(self, repetition: int, bidirectional: bool) -> Generator:
        flow_id = yield from self._establish_flow()
        # Initial response immediately: the binding has now seen inbound
        # traffic, which is the state both UDP-2 and UDP-3 measure.
        got = yield self._request_response(flow_id, seq=0)
        if not got:
            self.result.samples.append(0.0)
            return
        if bidirectional:
            self._send_probe(flow_id)
        gap = self.probe.ramp_start
        seq = 1
        last_ok = 0.0
        measured: Optional[float] = None
        last_request_at = self.bed.sim.now
        while gap <= self.probe.cutoff:
            # Pace from the previous response *request*, so the gap between
            # server sends is exactly ``gap`` regardless of reply latency.
            yield max(last_request_at + gap - self.bed.sim.now, 0.0)
            last_request_at = self.bed.sim.now
            got = yield self._request_response(flow_id, seq=seq)
            if not got:
                measured = (last_ok + gap) / 2.0 if last_ok else gap / 2.0
                break
            if bidirectional:
                self._send_probe(flow_id)
            last_ok = gap
            gap += self.probe.ramp_step
            seq += 1
        if measured is None:
            self.result.censored += 1
        else:
            self.result.samples.append(measured)
        yield QUIESCENCE_MARGIN


class UdpServiceProbe:
    """UDP-5: the UDP-2 measurement against well-known server ports."""

    def __init__(self, services: Optional[Dict[str, int]] = None, repetitions: int = 3, **probe_kwargs):
        self.services = dict(services or WELL_KNOWN_SERVICES)
        self.repetitions = repetitions
        self.probe_kwargs = probe_kwargs

    def run_all(self, bed: Testbed, tags: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, UdpTimeoutResult]]:
        """Returns ``{service_name: {tag: result}}``."""
        results: Dict[str, Dict[str, UdpTimeoutResult]] = {}
        for name, port in sorted(self.services.items()):
            probe = UdpTimeoutProbe.udp2(
                server_port=port, repetitions=self.repetitions, **self.probe_kwargs
            )
            results[name] = probe.run_all(bed, tags)
        return results


def analyze_port_behavior(result: UdpTimeoutResult) -> PortBehavior:
    """UDP-4: derive port preservation / binding reuse from UDP-1's ports.

    With the quiescent modified search, every iteration follows an expiry,
    exactly the situation §3.2.1 says reveals the reuse policy.
    """
    ports = [port for _iteration, port in result.observed_ports]
    if not ports:
        raise ValueError(f"{result.tag}: no observed ports to analyze")
    preserves = all(port == result.client_port for port in ports)
    if preserves:
        return PortBehavior(result.tag, True, True)
    preserved_first = ports[0] == result.client_port
    distinct = len(set(ports)) > 1
    if preserved_first and distinct:
        # Started on the preserved port, then refused to re-use it.
        return PortBehavior(result.tag, True, False)
    return PortBehavior(result.tag, False, None)


# ---------------------------------------------------------------------------
# Registry: family descriptors, store codecs, report hooks.
# ---------------------------------------------------------------------------


def encode_udp_timeout_result(result: UdpTimeoutResult) -> Dict:
    """Store codec: ``UdpTimeoutResult`` to a JSON-safe dict."""
    return {
        "tag": result.tag,
        "variant": result.variant,
        "samples": list(result.samples),
        "censored": result.censored,
        "observed_ports": [[iteration, port] for iteration, port in result.observed_ports],
        "client_port": result.client_port,
    }


def decode_udp_timeout_result(payload: Dict) -> UdpTimeoutResult:
    """Store codec: decode what :func:`encode_udp_timeout_result` wrote."""
    return UdpTimeoutResult(
        tag=payload["tag"],
        variant=payload["variant"],
        samples=[float(v) for v in payload["samples"]],
        censored=int(payload["censored"]),
        observed_ports=[(int(i), int(p)) for i, p in payload["observed_ports"]],
        client_port=int(payload["client_port"]),
    )


def encode_port_behavior(behavior: PortBehavior) -> Dict:
    """Store codec: ``PortBehavior`` to a JSON-safe dict."""
    return {
        "tag": behavior.tag,
        "preserves_port": behavior.preserves_port,
        "reuses_binding": behavior.reuses_binding,
    }


def decode_port_behavior(payload: Dict) -> PortBehavior:
    """Store codec: decode what :func:`encode_port_behavior` wrote."""
    return PortBehavior(
        tag=payload["tag"],
        preserves_port=bool(payload["preserves_port"]),
        reuses_binding=None if payload["reuses_binding"] is None else bool(payload["reuses_binding"]),
    )


def _udp5_cells(mapping: Dict) -> Dict[str, Dict]:
    """Service-first canonical mapping -> per-device ``{service: result}`` cells."""
    cells: Dict[str, Dict] = {}
    for service, per_device in mapping.items():
        for tag, result in per_device.items():
            cells.setdefault(tag, {})[service] = result
    return cells


def _udp5_insert(mapping: Dict, tag: str, cell: Dict) -> None:
    for service, result in cell.items():
        mapping.setdefault(service, {})[tag] = result


def _udp5_merge(target: Dict, mapping: Dict) -> None:
    for service, per_device in mapping.items():
        target.setdefault(service, {}).update(per_device)


def _render_udp_timeouts(results) -> Optional[str]:
    from repro import paperdata
    from repro.analysis.figures import code_block, render_series_multi, timeout_series

    series = {}
    for label, name in (("UDP-1", "udp1"), ("UDP-2", "udp2"), ("UDP-3", "udp3")):
        data = results.family(name)
        if data:
            series[label] = timeout_series(data, label)
    if not series:
        return None
    parts = [f"## UDP binding timeouts ({paperdata.FAMILY_FIGURES['udp_timeouts']})"]
    order_key = "UDP-1" if "UDP-1" in series else next(iter(series))
    parts.append(
        code_block(
            render_series_multi(series, "median binding timeouts [s]", order=series[order_key].ordered_tags())
        )
    )
    for label, data in series.items():
        stats = data.population()
        parts.append(f"*{label}*: median {stats['median']:.1f} s, mean {stats['mean']:.1f} s")
    return "\n\n".join(parts)


def _render_udp4(results) -> Optional[str]:
    from collections import Counter

    counts = Counter(behavior.category for behavior in results.family("udp4").values())
    if not counts:
        return None
    parts = ["## UDP-4: port preservation and binding reuse"]
    parts.extend(f"- {category}: {count}" for category, count in sorted(counts.items()))
    return "\n\n".join(parts)


def _render_udp5(results) -> Optional[str]:
    from repro import paperdata
    from repro.analysis.figures import code_block, render_series_multi, timeout_series

    per_service = {
        service: timeout_series(data, service)
        for service, data in sorted(results.family("udp5").items())
    }
    if not per_service:
        return None
    any_series = next(iter(per_service.values()))
    return "\n\n".join([
        f"## UDP-5: per-service timeouts ({paperdata.FAMILY_FIGURES['udp5']})",
        code_block(render_series_multi(per_service, "per-service medians [s]", order=any_series.ordered_tags())),
    ])


registry.register_knob(registry.Knob(
    name="udp_repetitions",
    type=int,
    default=3,
    dest="repetitions",
    help="timeout measurements per device for UDP-1/2/3",
))
registry.register_knob(registry.Knob(
    name="udp5_repetitions",
    type=int,
    default=1,
    help="timeout measurements per device and service for UDP-5",
))


def _udp_probe_factory(variant: str):
    def factory(knobs):
        """Build the probe entry point bound to one UDP variant."""
        maker = getattr(UdpTimeoutProbe, variant)
        return maker(repetitions=knobs["udp_repetitions"]).run_all

    return factory


for _variant, _order, _figure in (("udp1", 10, "Figure 3"), ("udp2", 20, "Figure 4"), ("udp3", 30, "Figure 5")):
    registry.register_family(registry.ExperimentFamily(
        name=_variant,
        order=_order,
        result_type=UdpTimeoutResult,
        description=f"UDP-{_variant[-1]} binding timeout ({_figure})",
        probe_factory=_udp_probe_factory(_variant),
        encode_cell=encode_udp_timeout_result,
        decode_cell=decode_udp_timeout_result,
    ))

registry.register_family(registry.ExperimentFamily(
    name="udp4",
    order=15,
    result_type=PortBehavior,
    description="UDP-4 port preservation / binding reuse (derived from UDP-1)",
    encode_cell=encode_port_behavior,
    decode_cell=decode_port_behavior,
    derived_from="udp1",
    derive=analyze_port_behavior,
))

registry.register_family(registry.ExperimentFamily(
    name="udp5",
    order=40,
    result_type=UdpTimeoutResult,
    description="UDP-5 per-service binding timeouts (Figure 6)",
    probe_factory=lambda knobs: UdpServiceProbe(repetitions=knobs["udp5_repetitions"]).run_all,
    encode_cell=lambda cell: {service: encode_udp_timeout_result(r) for service, r in cell.items()},
    decode_cell=lambda payload: {service: decode_udp_timeout_result(r) for service, r in payload.items()},
    cells=_udp5_cells,
    insert_cell=_udp5_insert,
    merge_cells=_udp5_merge,
))

registry.register_section(registry.ReportSection(
    key="udp_timeouts", order=10, families=("udp1", "udp2", "udp3"), render=_render_udp_timeouts,
))
registry.register_section(registry.ReportSection(
    key="udp4", order=20, families=("udp4",), render=_render_udp4,
))
registry.register_section(registry.ReportSection(
    key="udp5", order=30, families=("udp5",), render=_render_udp5,
))
