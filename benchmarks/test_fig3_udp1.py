"""Figure 3: UDP-1 — binding timeout after a single outbound packet."""

import pytest

from bench_common import ordering_agreement
from conftest import write_artifact

from repro import paperdata
from repro.analysis import render_series
from repro.analysis.figures import timeout_series


def test_fig3_udp1(survey):
    series = timeout_series(survey.udp1, "UDP-1")
    stats = series.population()
    text = render_series(series, "Figure 3: UDP-1 single outbound packet [s]")
    text += (
        f"\npaper: median={paperdata.FIG3_POP_MEDIAN} mean={paperdata.FIG3_POP_MEAN} "
        f"je={paperdata.UDP1_SHORTEST_SECONDS} ls1={paperdata.UDP1_LONGEST_SECONDS}"
    )
    write_artifact("fig3_udp1.txt", text)

    assert stats["median"] == pytest.approx(paperdata.FIG3_POP_MEDIAN, rel=0.05)
    assert stats["mean"] == pytest.approx(paperdata.FIG3_POP_MEAN, rel=0.08)
    assert series.summaries["ls1"].median == pytest.approx(paperdata.UDP1_LONGEST_SECONDS, rel=0.02)
    assert ordering_agreement(series, paperdata.FIG3_ORDER) > 0.95
    # §4.1: more than half below RFC 4787's 120 s; only ls1 over 600 s.
    below = [t for t, s in series.summaries.items() if s.median < paperdata.RFC4787_REQUIRED_SECONDS]
    over_recommended = [t for t, s in series.summaries.items() if s.median > paperdata.RFC4787_RECOMMENDED_SECONDS]
    assert len(below) > 17
    assert over_recommended == ["ls1"]
