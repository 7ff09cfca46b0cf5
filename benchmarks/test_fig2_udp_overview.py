"""Figure 2: UDP-1/2/3 medians side by side, ordered by the UDP-1 result.

The three UDP timeout families come from the session campaign, which
also feeds the per-figure benches.
"""

from bench_common import ordering_agreement
from conftest import write_artifact

from repro import paperdata
from repro.analysis import render_series_multi
from repro.analysis.figures import timeout_series


def test_fig2_udp_overview(survey):
    results = {"UDP-1": survey.udp1, "UDP-2": survey.udp2, "UDP-3": survey.udp3}
    series = {
        name: timeout_series(data, name) for name, data in results.items()
    }
    order = series["UDP-1"].ordered_tags()
    text = render_series_multi(series, "Figure 2: median UDP binding timeouts [s]", order=order)
    write_artifact("fig2_udp_overview.txt", text)

    # Shape: the UDP-1 ordering is Figure 2's x-axis (same as Figure 3).
    tau = ordering_agreement(series["UDP-1"], paperdata.FIG3_ORDER)
    assert tau > 0.95, f"UDP-1 ordering diverged from the paper (tau={tau:.3f})"
    # §4.1: UDP-2/3 grant longer timeouts than UDP-1 for the short-timeout
    # devices (ed/owrt/to/te move from 30 s to ~180 s).
    for tag in ("ed", "owrt", "to", "te"):
        assert series["UDP-2"].summaries[tag].median > 2 * series["UDP-1"].summaries[tag].median
