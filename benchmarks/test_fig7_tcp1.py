"""Figure 7: TCP-1 — idle TCP binding timeouts (24 h cutoff, log scale)."""

import pytest

from conftest import write_artifact

from repro import paperdata
from repro.analysis import kendall_tau, render_series
from repro.analysis.figures import timeout_series
from repro.core.results import population_stats


def test_fig7_tcp1(survey):
    series = timeout_series(survey.tcp1, "TCP-1", cutoff=24 * 3600.0)
    text = render_series(series, "Figure 7: TCP-1 binding timeouts [s]", log_scale=True,
                         censored_label=">24h")
    text += (
        f"\npaper: median={paperdata.FIG7_POP_MEDIAN_MINUTES} min "
        f"mean={paperdata.FIG7_POP_MEAN_MINUTES} min, be1={paperdata.TCP1_SHORTEST_SECONDS}s, "
        f"7 devices >24h"
    )
    write_artifact("fig7_tcp1.txt", text)

    # The censored set is exactly the paper's seven.
    assert set(series.censored) == set(paperdata.TCP1_OVER_24H_TAGS)
    # Population stats in minutes, censored plotted at the 1440 min cutoff.
    minutes = [
        series.value_for_stats(tag, censored_as=24 * 3600.0) / 60.0
        for tag in list(series.summaries) + list(series.censored)
    ]
    stats = population_stats(minutes)
    assert stats["median"] == pytest.approx(paperdata.FIG7_POP_MEDIAN_MINUTES, rel=0.03)
    assert stats["mean"] == pytest.approx(paperdata.FIG7_POP_MEAN_MINUTES, rel=0.05)
    # be1: "consistently times out TCP bindings after 239 sec".
    assert series.summaries["be1"].median == pytest.approx(paperdata.TCP1_SHORTEST_SECONDS, abs=2.0)
    # Ordering agreement over the measured (non-censored) devices.
    measured_paper_order = [t for t in paperdata.FIG7_ORDER if t not in paperdata.TCP1_OVER_24H_TAGS]
    measured_ours = [t for t in series.ordered_tags() if t not in series.censored]
    assert kendall_tau(measured_paper_order, measured_ours) > 0.95
    # §4.4: half the devices time out in under an hour.
    under_hour = [t for t, s in series.summaries.items() if s.median < 3600.0]
    assert len(under_hour) >= 16
