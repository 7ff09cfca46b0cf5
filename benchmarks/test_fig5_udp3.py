"""Figure 5: UDP-3 — bidirectional traffic on the binding."""

import pytest

from bench_common import ordering_agreement
from conftest import write_artifact

from repro import paperdata
from repro.analysis import render_series
from repro.analysis.figures import timeout_series


def test_fig5_udp3(survey):
    series = timeout_series(survey.udp3, "UDP-3")
    stats = series.population()
    text = render_series(series, "Figure 5: UDP-3 bidirectional traffic [s]")
    text += f"\npaper: median={paperdata.FIG5_POP_MEDIAN} mean={paperdata.FIG5_POP_MEAN}"
    write_artifact("fig5_udp3.txt", text)

    assert stats["median"] == pytest.approx(paperdata.FIG5_POP_MEDIAN, rel=0.05)
    assert stats["mean"] == pytest.approx(paperdata.FIG5_POP_MEAN, rel=0.08)
    assert ordering_agreement(series, paperdata.FIG5_ORDER) > 0.85


def test_fig5_lengthening_devices(survey):
    """§4.1: be1, dl10, ng3, ng4, be2, ng5 lengthen their timeouts vs UDP-2;
    no device shortens."""
    udp2, udp3 = survey.udp2, survey.udp3
    for tag in paperdata.UDP3_LENGTHENING_TAGS:
        assert udp3[tag].summary().median > udp2[tag].summary().median + 10, tag
    for tag in udp2:
        assert udp3[tag].summary().median >= udp2[tag].summary().median - 5.0, tag
