"""Figure 4: UDP-2 — single packet out, growing-gap response stream in."""

import pytest

from bench_common import ordering_agreement
from conftest import write_artifact

from repro import paperdata
from repro.analysis import render_series
from repro.analysis.figures import timeout_series


def test_fig4_udp2(survey):
    series = timeout_series(survey.udp2, "UDP-2")
    stats = series.population()
    text = render_series(series, "Figure 4: UDP-2 single packet out, stream in [s]")
    text += (
        f"\npaper: median={paperdata.FIG4_POP_MEDIAN} mean={paperdata.FIG4_POP_MEAN} "
        f"min={paperdata.UDP2_MINIMUM_SECONDS}"
    )
    write_artifact("fig4_udp2.txt", text)

    assert stats["median"] == pytest.approx(paperdata.FIG4_POP_MEDIAN, rel=0.05)
    assert stats["mean"] == pytest.approx(paperdata.FIG4_POP_MEAN, rel=0.08)
    assert ordering_agreement(series, paperdata.FIG4_ORDER) > 0.85
    # Named anchors from §4.1.
    assert series.summaries["ap"].median == pytest.approx(paperdata.UDP2_MINIMUM_SECONDS, abs=3.0)
    assert series.summaries["be2"].median == pytest.approx(paperdata.UDP2_BE2_APPROX, abs=5.0)
    # The coarse-timer devices show the substantial IQR the paper remarks on.
    coarse_iqr = min(series.summaries[t].iqr for t in paperdata.COARSE_TIMER_TAGS)
    typical_iqr = series.summaries["dl2"].iqr
    assert coarse_iqr > typical_iqr
