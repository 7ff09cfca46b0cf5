#!/usr/bin/env python3
"""Capture a gateway's WAN traffic to a real pcap file.

Attaches a packet trace to a gateway's WAN port and a pcap sink to the same
trace bus, exercises the gateway (DHCP has already run; we add UDP, TCP,
ICMP and an SCTP attempt), and writes one Wireshark-compatible capture per
testbed wire into the output directory — demonstrating that the simulator's
wire formats are the real thing.  The WAN capture is ``bu1.wan.pcap``.

Run:  python examples/packet_capture.py [output_dir]
"""

import pathlib
import sys
from collections import Counter

from repro.devices import profile_for
from repro.obs import PacketTrace, PcapSink
from repro.testbed import Testbed


def main() -> None:
    output = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "capture")
    bed = Testbed.build([profile_for("bu1")])
    port = bed.port("bu1")
    trace = PacketTrace.on(port.gateway.wan_iface)
    pcap = bed.sim.bus.subscribe(PcapSink(output))

    # Generate a little of everything through the NAT.
    sink = bed.server.udp.bind(7000)
    sink.on_receive = lambda data, ip, p: sink.send_to(b"pong", ip, p)
    udp = bed.client.udp.bind(0, port.client_iface_index)
    udp.send_to(b"ping", port.server_ip, 7000)

    received = bytearray()
    bed.server.tcp.listen(8080, lambda conn: setattr(conn, "on_data", received.extend))
    tcp = bed.client.tcp.connect(port.server_ip, 8080, iface_index=port.client_iface_index)
    tcp.on_established = lambda c: (c.send(b"hello over tcp"), c.close())

    bed.server.sctp.listen(9000, lambda assoc: None)
    bed.client.sctp.connect(port.server_ip, 9000, iface_index=port.client_iface_index)

    bed.sim.run(until=bed.sim.now + 10)
    trace.detach()
    pcap.close()

    wan_path = output / "bu1.wan.pcap"
    protocols = Counter(
        entry.frame.payload.protocol for entry in trace.entries
    )
    print(f"wrote {len(trace)} frames to {wan_path}")
    print("protocol mix:", {
        {1: "icmp", 6: "tcp", 17: "udp", 132: "sctp"}.get(proto, proto): n
        for proto, n in sorted(protocols.items())
    })
    print("open it with:  wireshark", wan_path)


if __name__ == "__main__":
    main()
