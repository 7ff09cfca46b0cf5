"""The benchmark's own tests, on the seconds-long ``smoke`` size of each workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import campaign  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Summed layer self times may differ from the summed root spans by float
#: rounding only; 1% leaves room for nothing else.
SELF_TIME_TOLERANCE = 0.01

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: A layer each workload must exercise (its own entry points were hit).
OWN_LAYER = {"paper_survey": "protocols", "nat444_load": "cgn", "traversal_pairs": "traversal"}


def bench(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def results():
    """Last-line JSON of one smoke run per (workload, trace)."""
    cache = {}

    def get(workload: str, trace: int) -> dict:
        if (workload, trace) not in cache:
            done = bench(
                "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "smoke"
            )
            assert done.returncode == 0, done.stderr
            cache[workload, trace] = json.loads(done.stdout.strip().splitlines()[-1])
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_names_and_units_match_benchmark_json(results, workload, trace, section):
    result = results(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_workload_names_match_benchmark_json():
    assert [workload["name"] for workload in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_self_times_add_up_to_traced_wall(results, workload):
    metrics = {name: metric["value"] for name, metric in results(workload, 1)["metrics"].items()}
    self_total = sum(value for name, value in metrics.items() if name.endswith(".self_s"))
    assert metrics["trace.wall_s"] > 0
    assert abs(self_total - metrics["trace.wall_s"]) <= SELF_TIME_TOLERANCE * metrics["trace.wall_s"]
    assert all(value >= 0 for name, value in metrics.items() if name.endswith(".self_s"))
    assert metrics[f"{OWN_LAYER[workload]}.self_s"] > 0
    assert metrics["netsim.frames"] > 0 and metrics["core.store.cells"] > 0


def test_flipped_cell_byte_fails_the_digest_gate(tmp_path):
    store = tmp_path / "store"
    done = subprocess.run(
        [
            sys.executable,
            str(BENCH / "campaign.py"),
            *run.campaign_args("nat444_load", 5, "smoke", "plain"),
            "--tmp",
            str(tmp_path),
            "--keep-store",
            str(store),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.strip().splitlines()[-1])
    reference = record["digests"]
    assert campaign.cell_digests(store) == reference
    assert run.cell_failures({"digests": campaign.cell_digests(store), "errors": []}, reference) == 0

    copy = tmp_path / "copy"
    shutil.copytree(store, copy)
    cell = sorted((copy / "cells").rglob("*.json"))[0]
    data = bytearray(cell.read_bytes())
    data[len(data) // 2] ^= 0x01
    cell.write_bytes(bytes(data))
    assert run.cell_failures({"digests": campaign.cell_digests(copy), "errors": []}, reference) == 1

    cell.unlink()
    assert run.cell_failures({"digests": campaign.cell_digests(copy), "errors": []}, reference) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "paper_survey", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
