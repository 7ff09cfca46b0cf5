"""Helpers shared by the figure benches."""

from __future__ import annotations

from repro.analysis import kendall_tau
from repro.core.results import DeviceSeries
from repro.devices import catalog_profiles
from repro.testbed import Testbed


def fresh_testbed(seed: int = 0) -> Testbed:
    return Testbed.build(catalog_profiles(), seed=seed)


def ordering_agreement(series: DeviceSeries, paper_order) -> float:
    return kendall_tau(list(paper_order), series.ordered_tags())
