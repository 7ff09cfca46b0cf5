"""Figure 10: TCP-4 — maximum concurrent TCP bindings to one server port."""

import pytest

from conftest import write_artifact

from repro import paperdata
from repro.analysis import kendall_tau, render_series
from repro.core.results import DeviceSeries, Summary, population_stats


def test_fig10_tcp4(survey):
    results = survey.tcp4
    series = DeviceSeries("TCP-4", "bindings")
    for tag, result in results.items():
        series.add(tag, Summary.of([float(result.max_bindings)]))
    stats = population_stats([float(r.max_bindings) for r in results.values()])
    text = render_series(series, "Figure 10: max TCP bindings to one server port", log_scale=True)
    text += (
        f"\npaper: median={paperdata.FIG10_POP_MEDIAN} mean={paperdata.FIG10_POP_MEAN} "
        f"min={paperdata.TCP4_MINIMUM_BINDINGS} (dl9, smc) max~{paperdata.TCP4_MAXIMUM_BINDINGS} (ng1, ap)"
    )
    write_artifact("fig10_tcp4.txt", text)

    assert results["dl9"].max_bindings == paperdata.TCP4_MINIMUM_BINDINGS
    assert results["smc"].max_bindings == paperdata.TCP4_MINIMUM_BINDINGS
    assert results["ap"].max_bindings == paperdata.TCP4_MAXIMUM_BINDINGS
    assert stats["median"] == pytest.approx(paperdata.FIG10_POP_MEDIAN, rel=0.02)
    assert stats["mean"] == pytest.approx(paperdata.FIG10_POP_MEAN, rel=0.02)
    assert kendall_tau(list(paperdata.FIG10_ORDER), series.ordered_tags()) > 0.97
    # §4.4: even the best devices stay around 1024 — far below the 16-bit
    # port space.
    assert stats["max"] <= 1100
