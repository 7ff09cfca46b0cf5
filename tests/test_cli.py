"""The command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_list_devices(capsys):
    code, out = run_cli(capsys, "list-devices")
    assert code == 0
    assert "Linksys" in out and "ls1" in out
    assert out.count("D-Link") == 10


def test_probe_udp1_subset(capsys):
    code, out = run_cli(capsys, "probe", "--test", "udp1", "--tags", "je", "ed", "--repetitions", "1")
    assert code == 0
    assert "UDP1 binding timeouts" in out
    assert "je" in out and "ed" in out


def test_probe_dns(capsys):
    code, out = run_cli(capsys, "probe", "--test", "dns", "--tags", "ap", "nw1")
    assert code == 0
    assert "upstream:udp" in out  # ap's quirk visible from the CLI


def test_probe_transports(capsys):
    code, out = run_cli(capsys, "probe", "--test", "transports", "--tags", "bu1", "nw1")
    assert code == 0
    assert "sctp:pass" in out and "dccp:fail" in out


def test_survey_with_csv_export(capsys, tmp_path):
    code, out = run_cli(
        capsys, "survey", "--tests", "udp1", "--tags", "je", "--repetitions", "1",
        "--csv-dir", str(tmp_path),
    )
    assert code == 0
    csv = (tmp_path / "udp1.csv").read_text()
    assert csv.splitlines()[0] == "tag,median,q1,q3,samples,censored_at"
    assert "je," in csv


def test_classify(capsys):
    code, out = run_cli(capsys, "classify", "--tags", "bu1", "ng1")
    assert code == 0
    assert "symmetric" in out and "cone" in out


def test_compliance(capsys):
    code, out = run_cli(capsys, "compliance", "--tags", "je", "ls1")
    assert code == 0
    assert "FAIL" in out  # je misses RFC 4787
    assert "below RFC4787" in out


def test_probe_pmtu(capsys):
    code, out = run_cli(capsys, "probe", "--test", "pmtu", "--tags", "bu1", "be1")
    assert code == 0
    assert "ok in" in out and "BLACK HOLE" in out


def test_unknown_tag_rejected(capsys):
    with pytest.raises(SystemExit, match="unknown device tags"):
        main(["probe", "--test", "udp1", "--tags", "bogus"])


def test_unknown_test_rejected():
    with pytest.raises(SystemExit):
        main(["probe", "--test", "udp9"])

def test_probe_with_flight_recorder(capsys, tmp_path):
    code, out = run_cli(
        capsys, "probe", "--test", "udp1", "--tags", "je", "--repetitions", "1",
        "--trace", str(tmp_path / "trace"), "--pcap", str(tmp_path / "pcap"), "--metrics",
    )
    assert code == 0
    assert "UDP1 binding timeouts" in out
    assert (tmp_path / "trace" / "je.jsonl").exists()
    assert (tmp_path / "pcap" / "je.udp1.wan.pcap").exists()
    assert '"events.nat.bind"' in out  # --metrics prints the registry JSON


def test_survey_families_prints_metrics(capsys):
    code, out = run_cli(
        capsys, "survey", "--families", "udp1", "--tags", "je", "--repetitions", "1", "--metrics",
    )
    assert code == 0
    assert '"events.nat.bind"' in out


def test_bench_output_directory_checked_before_the_campaign(monkeypatch, tmp_path):
    import repro.cli as cli

    monkeypatch.setattr(cli, "_run_from_args", lambda *args: pytest.fail("the campaign ran"))
    with pytest.raises(SystemExit, match="does not exist"):
        main(["bench", "--tests", "udp1", "--tags", "je", "--output", str(tmp_path / "missing" / "b.json")])


def test_trace_summary_command(capsys, tmp_path):
    code, _ = run_cli(
        capsys, "probe", "--test", "udp1", "--tags", "je", "--repetitions", "1",
        "--trace", str(tmp_path / "trace"),
    )
    assert code == 0
    capsys.readouterr()
    code, out = run_cli(capsys, "trace", str(tmp_path / "trace"))
    assert code == 0
    assert out.startswith("je:")
    assert "nat.bind" in out

    code, out = run_cli(capsys, "trace", "--json", str(tmp_path / "trace" / "je.jsonl"))
    assert code == 0
    import json

    summaries = json.loads(out)
    assert summaries[0]["device"] == "je"


def test_trace_command_rejects_empty(tmp_path):
    with pytest.raises(SystemExit):
        main(["trace", str(tmp_path)])
