"""Minimal SCTP endpoints (RFC 4960): enough to attempt an association.

Implements the four-way handshake (INIT / INIT-ACK with a state cookie /
COOKIE-ECHO / COOKIE-ACK) and simple DATA/SACK exchange on a single stream.
Receivers verify the CRC-32c checksum and the verification tag, so a
middlebox that corrupts either is detected the way a real stack would
detect it.
"""

from __future__ import annotations

from ipaddress import IPv4Address
from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING

from repro.netsim.node import Interface
from repro.packets.ipv4 import PROTO_SCTP, IPv4Packet
from repro.packets.sctp import (
    SCTP_ABORT,
    SCTP_COOKIE_ACK,
    SCTP_COOKIE_ECHO,
    SCTP_DATA,
    SCTP_INIT,
    SCTP_INIT_ACK,
    SCTP_SACK,
    SctpChunk,
    SctpPacket,
)
from repro.protocols.ports import EphemeralPortAllocator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.stack import Host

INIT_TIMEOUT = 1.0
MAX_INIT_RETRIES = 3

# Association states.
CLOSED = "CLOSED"
COOKIE_WAIT = "COOKIE_WAIT"
COOKIE_ECHOED = "COOKIE_ECHOED"
ESTABLISHED = "ESTABLISHED"


def _encode_init(tag: int, tsn: int) -> bytes:
    # initiate tag, a_rwnd, out streams, in streams, initial TSN
    return (
        tag.to_bytes(4, "big") + (65536).to_bytes(4, "big") + (1).to_bytes(2, "big") + (1).to_bytes(2, "big")
        + tsn.to_bytes(4, "big")
    )


def _decode_init(value: bytes) -> Tuple[int, int]:
    if len(value) < 16:
        raise ValueError("truncated INIT parameters")
    return int.from_bytes(value[0:4], "big"), int.from_bytes(value[12:16], "big")


class SctpAssociation:
    """One SCTP association endpoint."""

    def __init__(
        self,
        manager: "SctpManager",
        local_ip: IPv4Address,
        local_port: int,
        remote_ip: IPv4Address,
        remote_port: int,
        iface_index: Optional[int] = None,
    ):
        self.manager = manager
        self.host = manager.host
        self.sim = manager.host.sim
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.iface_index = iface_index
        self.state = CLOSED
        self.local_tag = self.sim.rng.randrange(1, 1 << 32)
        self.peer_tag = 0
        self.next_tsn = self.sim.rng.randrange(0, 1 << 32)
        self.cumulative_tsn: Optional[int] = None
        self.on_established: Optional[Callable[["SctpAssociation"], None]] = None
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_failed: Optional[Callable[[str], None]] = None
        self.data_acked = 0
        self._retries = 0
        self._timer = self.sim.timer(self._on_timeout)
        self._pending_cookie: Optional[bytes] = None

    @property
    def key(self) -> Tuple[IPv4Address, int, IPv4Address, int]:
        return (self.local_ip, self.local_port, self.remote_ip, self.remote_port)

    # -- sending ------------------------------------------------------------

    def _emit(self, chunks, tag: Optional[int] = None) -> None:
        packet_tag = self.peer_tag if tag is None else tag
        sctp = SctpPacket(self.local_port, self.remote_port, packet_tag, chunks)
        packet = IPv4Packet(self.local_ip, self.remote_ip, PROTO_SCTP, sctp)
        packet.fill_checksums()
        self.host.send_ip_routed(packet, self.iface_index)

    def open_active(self) -> None:
        self.state = COOKIE_WAIT
        self._retries = 0
        self._send_init()

    def _send_init(self) -> None:
        # INIT carries verification tag 0 (RFC 4960 §8.5.1).
        self._emit([SctpChunk(SCTP_INIT, _encode_init(self.local_tag, self.next_tsn))], tag=0)
        self._timer.restart(INIT_TIMEOUT)

    def send(self, data: bytes) -> None:
        if self.state != ESTABLISHED:
            raise RuntimeError(f"association not established (state={self.state})")
        tsn = self.next_tsn
        self.next_tsn = (self.next_tsn + 1) & 0xFFFFFFFF
        value = tsn.to_bytes(4, "big") + (1).to_bytes(2, "big") + (0).to_bytes(2, "big") + (0).to_bytes(4, "big") + data
        self._emit([SctpChunk(SCTP_DATA, value, flags=0x03)])

    def abort(self) -> None:
        if self.state != CLOSED:
            self._emit([SctpChunk(SCTP_ABORT)])
        self._fail("aborted")

    def _fail(self, reason: str) -> None:
        previous = self.state
        self.state = CLOSED
        self._timer.cancel()
        self.manager.forget(self)
        if previous != CLOSED and self.on_failed is not None:
            self.on_failed(reason)

    def _on_timeout(self) -> None:
        if self.state not in (COOKIE_WAIT, COOKIE_ECHOED):
            return
        self._retries += 1
        if self._retries > MAX_INIT_RETRIES:
            self._fail("timeout")
            return
        if self.state == COOKIE_WAIT:
            self._send_init()
        else:
            self._send_cookie_echo()

    def _send_cookie_echo(self) -> None:
        self._emit([SctpChunk(SCTP_COOKIE_ECHO, self._pending_cookie or b"")])
        self._timer.restart(INIT_TIMEOUT)

    # -- receiving -------------------------------------------------------------

    def handle(self, packet: IPv4Packet, sctp: SctpPacket) -> None:
        for chunk in sctp.chunks:
            if chunk.chunk_type == SCTP_INIT_ACK and self.state == COOKIE_WAIT:
                peer_tag, _tsn = _decode_init(chunk.value[:16])
                self.peer_tag = peer_tag
                self._pending_cookie = chunk.value[16:]
                self.state = COOKIE_ECHOED
                self._retries = 0
                self._send_cookie_echo()
            elif chunk.chunk_type == SCTP_COOKIE_ACK and self.state == COOKIE_ECHOED:
                self.state = ESTABLISHED
                self._timer.cancel()
                if self.on_established is not None:
                    self.on_established(self)
            elif chunk.chunk_type == SCTP_DATA and self.state == ESTABLISHED:
                tsn = int.from_bytes(chunk.value[0:4], "big")
                payload = chunk.value[12:]
                self.cumulative_tsn = tsn
                sack = tsn.to_bytes(4, "big") + (65536).to_bytes(4, "big") + (0).to_bytes(4, "big")
                self._emit([SctpChunk(SCTP_SACK, sack)])
                if self.on_data is not None:
                    self.on_data(payload)
            elif chunk.chunk_type == SCTP_SACK and self.state == ESTABLISHED:
                self.data_acked += 1
            elif chunk.chunk_type == SCTP_ABORT:
                self._fail("aborted_by_peer")


class SctpManager:
    """Per-host SCTP: association table, listeners and demux."""

    def __init__(self, host: "Host"):
        self.host = host
        self.associations: Dict[Tuple[IPv4Address, int, IPv4Address, int], SctpAssociation] = {}
        self.listeners: Dict[int, Callable[[SctpAssociation], None]] = {}
        self._ports = EphemeralPortAllocator()
        self.checksum_failures = 0

    def listen(self, port: int, on_established: Optional[Callable[[SctpAssociation], None]] = None) -> None:
        self.listeners[port] = on_established or (lambda assoc: None)

    def connect(
        self,
        dst_ip: IPv4Address,
        dst_port: int,
        src_port: int = 0,
        iface_index: Optional[int] = None,
        src_ip: Optional[IPv4Address] = None,
    ) -> SctpAssociation:
        if src_ip is None:
            if iface_index is not None:
                src_ip = self.host.interfaces[iface_index].ip
            else:
                src_ip = self.host.source_ip_for(dst_ip)
        if src_ip is None:
            raise OSError(f"no route to {dst_ip} from {self.host.name}")
        if src_port == 0:
            src_port = self._ports.allocate(
                lambda p: (src_ip, p, dst_ip, dst_port) not in self.associations
            )
        assoc = SctpAssociation(self, src_ip, src_port, dst_ip, dst_port, iface_index)
        self.associations[assoc.key] = assoc
        assoc.open_active()
        return assoc

    def forget(self, assoc: SctpAssociation) -> None:
        self.associations.pop(assoc.key, None)

    def handle_packet(self, packet: IPv4Packet, iface: Interface) -> None:
        sctp = packet.payload
        if not isinstance(sctp, SctpPacket):
            return
        if self.host.validate_checksums and sctp.checksum is not None and not sctp.checksum_ok():
            self.checksum_failures += 1
            return
        key = (packet.dst, sctp.dst_port, packet.src, sctp.src_port)
        assoc = self.associations.get(key)
        if assoc is not None:
            assoc.handle(packet, sctp)
            return
        # Passive open: an INIT for a listening port creates an association.
        init = next((c for c in sctp.chunks if c.chunk_type == SCTP_INIT), None)
        if init is None or sctp.dst_port not in self.listeners:
            return
        peer_tag, _peer_tsn = _decode_init(init.value[:16])
        assoc = SctpAssociation(self, packet.dst, sctp.dst_port, packet.src, sctp.src_port, iface.index)
        assoc.peer_tag = peer_tag
        self.associations[assoc.key] = assoc
        on_established = self.listeners[sctp.dst_port]

        def established(a: SctpAssociation) -> None:
            on_established(a)

        assoc.on_established = established
        # INIT-ACK: our tag/TSN plus an opaque state cookie.
        cookie = b"repro-cookie"
        assoc._emit([SctpChunk(SCTP_INIT_ACK, _encode_init(assoc.local_tag, assoc.next_tsn) + cookie)])
        assoc.state = "COOKIE_ACK_WAIT"

        # Complete on COOKIE-ECHO.
        original_handle = assoc.handle

        def handle(pkt: IPv4Packet, spkt: SctpPacket) -> None:
            if assoc.state == "COOKIE_ACK_WAIT":
                for chunk in spkt.chunks:
                    if chunk.chunk_type == SCTP_COOKIE_ECHO:
                        assoc.state = ESTABLISHED
                        assoc._emit([SctpChunk(SCTP_COOKIE_ACK)])
                        if assoc.on_established is not None:
                            assoc.on_established(assoc)
                        return
            original_handle(pkt, spkt)

        assoc.handle = handle  # type: ignore[method-assign]
