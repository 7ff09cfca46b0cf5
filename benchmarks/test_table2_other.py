"""Table 2: ICMP translation, SCTP/DCCP support, DNS over TCP/UDP."""

from conftest import write_artifact

from repro import paperdata
from repro.analysis import render_table2


def test_table2_other_tests(survey):
    icmp, transports, dns = survey.icmp, survey.transports, survey.dns
    text = render_table2(icmp, transports, dns)
    write_artifact("table2_other.txt", text)

    # SCTP: 18 of 34; DCCP: none (§4.3).
    sctp_pass = [t for t, protos in transports.items() if protos["sctp"].supported]
    dccp_pass = [t for t, protos in transports.items() if protos["dccp"].supported]
    assert len(sctp_pass) == paperdata.SCTP_PASSING_DEVICES
    assert len(dccp_pass) == paperdata.DCCP_PASSING_DEVICES
    # dl4/dl9/dl10/ls1 pass the packets entirely untranslated.
    untranslated = [t for t, protos in transports.items() if protos["sctp"].wire_view == "untranslated"]
    assert set(untranslated) == set(paperdata.FALLBACK_UNTRANSLATED_TAGS)
    ip_only = [t for t, protos in transports.items() if protos["sctp"].wire_view == "ip_only"]
    assert len(ip_only) == paperdata.FALLBACK_IP_ONLY_DEVICES
    # All SCTP passers are IP-only translators (the §4.3 observation).
    assert set(sctp_pass) <= set(ip_only)

    # ICMP: nw1 translates nothing; everyone else at least PortUnreach+TTL.
    assert icmp["nw1"].forwarded_kinds("udp") == []
    assert icmp["nw1"].forwarded_kinds("tcp") == []
    for tag, result in icmp.items():
        if tag in ("nw1", paperdata.ICMP_TCP_AS_RST_TAG):
            continue
        assert {"port_unreach", "ttl_exceeded"} <= set(result.forwarded_kinds("udp")), tag
        assert {"port_unreach", "ttl_exceeded"} <= set(result.forwarded_kinds("tcp")), tag
    # ls2 turns TCP-related errors into (invalid) RSTs.
    assert icmp[paperdata.ICMP_TCP_AS_RST_TAG].tcp_errors_become_rsts()
    # 16 of 34 do not correctly translate embedded transport headers.
    no_rewrite = [
        t for t, r in icmp.items()
        if not r.translates_embedded_transport()
    ]
    assert len(no_rewrite) == paperdata.ICMP_NO_EMBEDDED_REWRITE_DEVICES
    # zy1 and ls1 do not fix embedded IP checksums (among forwarding devices).
    bad_checksum = [
        t for t, r in icmp.items()
        if r.forwarded_kinds("udp") and not r.fixes_embedded_ip_checksum()
    ]
    assert set(bad_checksum) == set(paperdata.ICMP_BAD_EMBEDDED_IP_CHECKSUM_TAGS)

    # DNS: 14 accept TCP, 10 answer, ap forwards upstream via UDP.
    accepting = [t for t, r in dns.items() if r.accepts_tcp]
    answering = [t for t, r in dns.items() if r.answers_tcp]
    assert len(accepting) == paperdata.DNS_TCP_ACCEPTING_DEVICES
    assert len(answering) == paperdata.DNS_TCP_ANSWERING_DEVICES
    assert dns[paperdata.DNS_TCP_VIA_UDP_TAG].upstream_transport_for_tcp == "udp"
    others = [t for t in answering if t != paperdata.DNS_TCP_VIA_UDP_TAG]
    assert all(dns[t].upstream_transport_for_tcp == "tcp" for t in others)
    # Everyone proxies UDP DNS.
    assert all(r.answers_udp for r in dns.values())
