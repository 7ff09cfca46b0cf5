"""Shared infrastructure for the figure/table benches.

Each figure, table and observation bench reads one session-wide registry
campaign (:func:`survey`): the paper's default menu plus the PMTU census,
run by :class:`~repro.core.survey.SurveyRunner` exactly as ``repro survey``
runs it (per-device shards, tag-derived seeds).  A bench renders its series
next to the paper's published numbers, writes the rendering to
``benchmarks/results/``, and asserts shape agreement (orderings via Kendall
tau, population stats within tolerance).  Timing campaigns is
``perfbench/``'s job; the ablation and extension benches, which compare
variants with each other, keep their own testbeds.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core import SurveyRunner, registry

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_artifact(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n")
    # Also emit to stdout so `pytest -s` shows the regenerated figure.
    print()
    print(text)


@pytest.fixture(scope="session")
def survey():
    """The campaign every paper anchor is checked on.

    Small repetitions and transfer sizes: the shapes are stable well below
    paper-scale iteration counts.
    """
    runner = SurveyRunner(jobs=2, udp_repetitions=3, udp5_repetitions=1, transfer_bytes=1536 * 1024)
    results = runner.run(tests=[*registry.default_names(), "pmtu"])
    if results.errors:
        pytest.fail(f"campaign shards failed: {results.errors}")
    return results
