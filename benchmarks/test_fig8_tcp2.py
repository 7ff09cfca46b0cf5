"""Figure 8: TCP-2 — bulk TCP throughput, up/down/bidirectional.

Absolute rates are reported as fractions of the simulated 100 Mb/s line
(framing overhead makes ~95 Mb/s the achievable goodput ceiling); shape
anchors from §4.2 are asserted.
"""

import pytest

from conftest import write_artifact

from repro import paperdata
from repro.analysis import render_series_multi
from repro.core import ThroughputProbe
from repro.core.results import median


def test_fig8_tcp2(survey):
    results = survey.tcp2
    probe = ThroughputProbe()
    series = {
        "down": probe.throughput_series(results, "download"),
        "up": probe.throughput_series(results, "upload"),
        "down(bi)": probe.throughput_series(results, "download_bidir"),
        "up(bi)": probe.throughput_series(results, "upload_bidir"),
    }
    order = series["down"].ordered_tags()
    text = render_series_multi(series, "Figure 8: TCP-2 throughput [Mb/s]", order=order)
    downs = {t: s.median for t, s in series["down"].summaries.items()}
    ups = {t: s.median for t, s in series["up"].summaries.items()}
    bidir = [s.median for s in series["down(bi)"].summaries.values()] + [
        s.median for s in series["up(bi)"].summaries.values()
    ]
    text += (
        f"\nmeasured: uni median down={median(list(downs.values())):.1f} up={median(list(ups.values())):.1f} "
        f"bidir median={median(bidir):.1f}"
        f"\npaper:    uni median ~{paperdata.TCP2_UNIDIR_MEDIAN_MBPS}, bidir ~{paperdata.TCP2_BIDIR_MEDIAN_MBPS}, "
        f"13 devices at line rate, dl10/ls1 ~6-8 Mb/s, smc 41/27"
    )
    write_artifact("fig8_tcp2.txt", text)

    # The two worst devices are dl10 and ls1, near the paper's 6-8 Mb/s.
    worst_two = order[:2]
    assert set(worst_two) == {"dl10", "ls1"}
    assert downs["dl10"] == pytest.approx(paperdata.TCP2_DL10_DOWN_MBPS, rel=0.25)
    assert downs["ls1"] == pytest.approx(paperdata.TCP2_LS1_DOWN_MBPS, rel=0.25)
    assert ups["ls1"] == pytest.approx(paperdata.TCP2_LS1_UP_MBPS, rel=0.25)
    # smc's up/down asymmetry survives measurement.
    assert ups["smc"] > downs["smc"] * 1.3
    # Thirteen devices sustain (near-)line-rate in both directions.
    line_rate = [t for t in downs if downs[t] > 85 and ups[t] > 85]
    assert len(line_rate) == paperdata.TCP2_LINE_RATE_DEVICES
    # Unidirectional medians land in the paper's ballpark.
    assert median(list(downs.values())) == pytest.approx(paperdata.TCP2_UNIDIR_MEDIAN_MBPS, rel=0.15)
    # Bidirectional collapse: the bidir median is far below the uni median.
    assert median(bidir) == pytest.approx(paperdata.TCP2_BIDIR_MEDIAN_MBPS, rel=0.25)
