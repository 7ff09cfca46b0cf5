"""PMTU black-hole census (§3.2.3's motivation, RFC 2923) across all 34.

Not a paper figure — the paper tests whether Frag Needed is *translated*
(Table 2) and warns that black holes follow when it is not.  This bench
closes the loop: it runs an actual constrained-path transfer through every
device and shows that the black-hole set is exactly the set of devices whose
Table-2 TCP Frag Needed cell is empty.
"""

from conftest import write_artifact

from repro.devices import CATALOG
from repro.devices.profile import IcmpAction


def test_pmtu_blackhole_census(survey):
    results = survey.pmtu
    lines = ["PMTU black-hole census (path MTU 1000, 120 KiB transfer)", "-" * 58]
    for tag in sorted(results):
        result = results[tag]
        if result.completed:
            lines.append(f"{tag:>5}  ok     {result.duration:6.2f}s  mss {result.mss_after}")
        else:
            lines.append(f"{tag:>5}  BLACK HOLE       mss {result.mss_after}")
    holes = sorted(tag for tag, r in results.items() if r.black_hole)
    lines.append("")
    lines.append(f"black holes: {len(holes)}/34: {' '.join(holes)}")
    lines.append("")
    lines.append("causes: Frag Needed dropped entirely, OR forwarded with an")
    lines.append("unrewritten embedded transport header on a non-port-preserving")
    lines.append("NAT (the host cannot match the error to its connection).")
    write_artifact("pmtu_blackhole.txt", "\n".join(lines))

    def expected_hole(profile) -> bool:
        if profile.icmp.tcp.get("frag_needed") is not IcmpAction.TRANSLATE:
            return True
        # Forwarded but useless: the embedded TCP header still carries the
        # external port, and without port preservation the client's stack
        # cannot attribute the error to any connection.  (Port-preserving
        # no-rewrite devices like ng3/ng4 get away with it by accident.)
        return (
            not profile.icmp.rewrites_embedded_transport
            and not profile.nat.port_preservation
        )

    expected_holes = {tag for tag, profile in CATALOG.items() if expected_hole(profile)}
    assert set(holes) == expected_holes
    # Every completing device learned the path MTU.
    for tag, result in results.items():
        if result.completed:
            assert result.mss_after == 960, tag
            assert result.duration < 5.0, tag
