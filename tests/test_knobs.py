"""Campaign knobs: one registry declaration drives runner, fingerprint, CLI and bench.

Every knob is declared once (:func:`repro.core.registry.register_knob`) in
the module whose families read it.  These tests pin what that declaration
must keep stable — the campaign fingerprints existing stores are keyed by
and the CLI surface — and show that a knob declared in one place reaches
every consumer with no other edit.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import pytest

from repro import cli
from repro.core import registry
from repro.core.survey import SurveyRunner
from repro.devices import catalog_profiles

HELP_DIR = pathlib.Path(__file__).resolve().parent / "data" / "cli_help"

#: Default campaign over the full catalog.
DEFAULT_FINGERPRINT = "f91fbd1122cc89fc"


class TestGoldenFingerprints:
    """Stores on disk are keyed by these hashes: a silent re-key orphans them."""

    def test_default_campaign(self):
        assert SurveyRunner().fingerprint() == DEFAULT_FINGERPRINT

    def test_paper_survey_bench_knobs(self):
        runner = SurveyRunner(udp_repetitions=1, transfer_bytes=524288, tcp1_cutoff=600.0)
        assert runner.fingerprint() == "deefe13175edc73e"

    def test_tier_knobs_on_a_sub_population(self):
        runner = SurveyRunner(
            profiles=catalog_profiles(["al", "be1"]),
            cgn_subscribers=4,
            attack_rate=40,
            workload_mix="streaming",
        )
        assert runner.fingerprint() == "9e8f82ca257dbaa2"

    def test_selection_knobs_stay_out(self):
        runner = SurveyRunner(matrix_pairs="al+be1", matrix_cgn=True)
        assert runner.fingerprint() == DEFAULT_FINGERPRINT
        # ... but the manifest still records them.
        assert runner.knobs["matrix_pairs"] == "al+be1"


class TestCoercion:
    """One campaign, one fingerprint, however a number was spelled."""

    @pytest.mark.parametrize(
        "spellings",
        [
            ({"tcp1_cutoff": 600}, {"tcp1_cutoff": 600.0}),
            ({"cgn_subscribers": 8}, {"cgn_subscribers": 8.0}),
            ({"attack_rate": 40}, {"attack_rate": 40.0}),
            ({"metro_idle": 0}, {"metro_idle": 0.0}),
        ],
    )
    def test_int_and_float_spellings_share_a_fingerprint(self, spellings):
        as_int, as_float = spellings
        assert SurveyRunner(**as_int).fingerprint() == SurveyRunner(**as_float).fingerprint()

    def test_default_value_spelled_as_float_is_the_default_campaign(self):
        assert SurveyRunner(cgn_subscribers=8.0).fingerprint() == DEFAULT_FINGERPRINT

    def test_values_take_the_declared_type(self):
        knobs = SurveyRunner(tcp1_cutoff=600, cgn_subscribers=4.0).knobs
        assert type(knobs["tcp1_cutoff"]) is float
        assert type(knobs["cgn_subscribers"]) is int

    def test_fractional_value_for_an_int_knob_is_refused(self):
        with pytest.raises(ValueError, match="cgn_subscribers"):
            SurveyRunner(cgn_subscribers=2.5)

    def test_unknown_knob_is_refused_with_the_declared_menu(self):
        with pytest.raises(TypeError, match="udp_repetitions"):
            SurveyRunner(udp_repetitons=1)


def _help_texts():
    parser = cli.build_parser()
    texts = {"root": parser.format_help()}
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, subparser in action.choices.items():
        texts[name] = subparser.format_help()
    return texts


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse wraps usage lines differently from 3.13")
def test_cli_help_matches_the_snapshot(monkeypatch):
    """``repro <cmd> --help`` at ``COLUMNS=100``, flag for flag and word for word."""
    monkeypatch.setenv("COLUMNS", "100")
    texts = _help_texts()
    assert sorted(texts) == sorted(path.stem for path in HELP_DIR.glob("*.txt"))
    for name, text in texts.items():
        # Python 3.9 titles the section "optional arguments".
        text = text.replace("optional arguments:", "options:")
        assert text == (HELP_DIR / f"{name}.txt").read_text(), f"`repro {name} --help` drifted"


def test_every_knob_reads_from_one_declaration():
    """Generated flags default to the declared value; no other copy exists."""
    args = cli.build_parser().parse_args(["survey"])
    for knob in registry.knobs():
        if knob.flag is not None:
            assert getattr(args, knob.dest) == knob.default, knob.name
    assert SurveyRunner().knobs == {knob.name: knob.default for knob in registry.knobs()}


@pytest.fixture(params=[False, True], ids=["measurement", "selection"])
def probe_knob(request):
    """A throwaway knob plus a test family reading it, unregistered afterwards."""
    knob = registry.register_knob(registry.Knob(
        name="probe_level",
        type=int,
        default=3,
        help="level the knob_probe family records",
        flag="--probe-level",
        tier="cgn",
        selection=request.param,
    ))
    registry.register_family(registry.ExperimentFamily(
        name="knob_probe",
        order=9999,
        result_type=dict,
        probe_factory=lambda knobs: lambda bed: {tag: knobs["probe_level"] for tag in bed.ports},
        encode_cell=lambda cell: cell,
        decode_cell=lambda payload: payload,
        default_selected=False,
    ))
    try:
        yield knob
    finally:
        del registry._KNOBS["probe_level"]
        del registry._FAMILIES["knob_probe"]


def test_one_declaration_reaches_every_consumer(probe_knob, tmp_path):
    # Runner kwargs (coerced like any declared knob) and the shard config.
    runner = SurveyRunner(profiles=catalog_profiles(["je"]), probe_level=7.0)
    assert runner.knobs["probe_level"] == 7
    assert runner._shard_config()["probe_level"] == 7
    assert runner.run_shard(["knob_probe"])[0].family("knob_probe") == {"je": 7}

    # Fingerprint: a measurement knob keys the campaign, a selection knob does not.
    default = SurveyRunner(profiles=catalog_profiles(["je"])).fingerprint()
    assert (runner.fingerprint() == default) is probe_knob.selection

    # Generated argparse flag on every campaign command.
    parser = cli.build_parser()
    for command in ("survey", "report", "bench"):
        assert parser.parse_args([command, "--probe-level", "5"]).probe_level == 5
        assert parser.parse_args([command]).probe_level == 3

    # The bench dump's campaign block.
    output = tmp_path / "bench.json"
    code = cli.main(["bench", "--families", "knob_probe", "--tags", "je",
                     "--probe-level", "7", "--output", str(output)])
    assert code == 0
    payload = json.loads(output.read_text())
    assert payload["campaign"]["probe_level"] == 7
    assert "knob_probe" in payload["stats"]["family_wall"]
