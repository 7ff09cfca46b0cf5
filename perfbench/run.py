"""Campaign benchmark: paper_survey, nat444_load and traversal_pairs.

Run from the repository root::

    python3 perfbench/run.py --workload paper_survey --seed 3 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --trace 1

Every campaign runs in a fresh interpreter (``campaign.py``) through the
public ``SurveyRunner`` API with a fresh temporary store.  ``--trace 0``
times closed-loop campaigns for ``--seconds`` seconds and prints the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced campaign
and prints the per-layer metrics.  Every store cell of every campaign is
checked against the reference digests: the committed ones under
``digests/`` at the default seed, otherwise a staged-engine
(``fastpath=False``) run of the same workload and seed made before the
timed runs.  A human-readable table comes first; the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  Metric definitions are in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from instrument import OUTERMOST_BUILDS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

clock = time.perf_counter

#: Fewest set-up-only interpreters per run (plus one discarded warm-up);
#: each timed campaign adds its own set-up as one more sample.
SETUP_SAMPLES = 5
#: A run must end well inside the 180 s a run is allowed.
RUN_BUDGET_S = 165.0
DIGEST_DIR = HERE / "digests"
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "campaign_s": "s",
    "cpu_s": "s",
    "cell_ms_p50": "ms",
    "cell_ms_tail": "ms",
    "report_s": "s",
    "peak_rss_mb": "MB",
    "cell_ok_ratio": "ratio",
}

#: Layers, named after the ``repro`` modules their entry points live in.
LAYERS = (
    "core.survey",
    "core.parallel",
    "core.runtime",
    "core.store",
    "testbed",
    "netsim",
    "gateway",
    "cgn",
    "protocols",
    "packets",
    "workload",
    "traversal",
)

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "protocols.tcp_segments": "count",
    "protocols.tcp_retransmit_ratio": "ratio",
    "packets.checksum_calls": "count",
    "packets.clones": "count",
    "netsim.frames": "count",
    "netsim.us_per_frame": "us",
    "netsim.events": "count",
    "netsim.fastpath_share": "ratio",
    "netsim.frames_dropped": "count",
    "gateway.frames": "count",
    "gateway.nat_lookups": "count",
    "gateway.bindings_created": "count",
    "gateway.bindings_expired": "count",
    "gateway.bindings_refused": "count",
    "gateway.fwd_drops": "count",
    "cgn.blocks_allocated": "count",
    "testbed.builds": "count",
    "testbed.build_s": "s",
    "testbed.build_share": "ratio",
    "core.runtime.tasks": "count",
    "core.parallel.shards": "count",
    "core.parallel.overhead_s": "s",
    "core.parallel.fallbacks": "count",
    "core.parallel.retries": "count",
    "core.store.cells": "count",
    "core.store.bytes": "B",
    "core.store.save_s": "s",
    "core.store.load_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# -- host stamp ---------------------------------------------------------------


def calibration_score() -> float:
    """Million iterations per second of a fixed pure-Python loop (best of 3)."""
    loops = 300_000
    best = math.inf
    for _ in range(3):
        start = clock()
        acc = 0
        for i in range(loops):
            acc = (acc + i * i) % 1_000_003
        best = min(best, clock() - start)
    return loops / best / 1e6


def host_stamp() -> Dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "calibration_mloops_s": round(calibration_score(), 3),
    }


# -- child campaigns ----------------------------------------------------------


def run_child(args: List[str], deadline: float) -> Dict:
    """Start ``campaign.py`` in a fresh interpreter; return its JSON record."""
    timeout = deadline - clock()
    if timeout <= 0:
        raise BenchError("run budget exhausted before a campaign could start")
    t0 = clock()
    command = [sys.executable, str(HERE / "campaign.py"), "--t0", repr(t0), "--tmp", str(TMP_DIR), *args]
    # Own session: a timeout or a terminated run takes the child's pool
    # workers down with it.
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"campaign {' '.join(args)} exceeded the run budget") from None
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"campaign {' '.join(args)} exited {proc.returncode}:\n{err[-4000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"campaign {' '.join(args)} printed nothing:\n{err[-4000:]}")
    return json.loads(lines[-1])


def campaign_args(workload: str, seed: int, size: str, mode: str) -> List[str]:
    return ["--workload", workload, "--seed", str(seed), "--size", size, "--mode", mode]


def reference_digests(workload: str, seed: int, size: str, deadline: float) -> Tuple[Dict[str, str], Dict]:
    """The cell digests every campaign must reproduce, and where they came from."""
    committed = DIGEST_DIR / f"{workload}.json"
    if size == "full" and seed == DEFAULT_SEED and committed.is_file():
        return json.loads(committed.read_text())["cells"], {"source": "committed"}
    oracle = run_child(campaign_args(workload, seed, size, "oracle"), deadline)
    if oracle["errors"]:
        raise BenchError(f"staged-engine oracle failed: {oracle['errors']}")
    return oracle["digests"], {"source": "oracle", "staged_campaign_s": oracle["campaign_s"]}


def cell_failures(record: Dict, reference: Dict[str, str]) -> int:
    """Shard errors + missing cells + cells whose bytes differ (or are unexpected)."""
    digests = record["digests"]
    missing = sum(1 for cell in reference if cell not in digests)
    wrong = sum(1 for cell, digest in digests.items() if reference.get(cell) != digest)
    return len(record["errors"]) + missing + wrong


# -- metrics ------------------------------------------------------------------


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (floor 50)."""
    return max(50, min(99, math.floor(100 - 1000 / samples))) if samples else 50


def cell_times(campaigns: List[Dict]) -> Dict:
    """Cell wall-time median and tail over a run's campaigns.

    Every campaign of a run repeats the same cells on the same inputs (the
    digest gate proves their bytes equal), so the repeats of one cell
    differ only by what the host did meanwhile.  Each (subject, family)
    cell is therefore taken at its best time over the campaigns, as
    ``timeit`` does, and the p50 and the tail are taken across those
    per-cell times.  Pooling every sample instead let one slow phase of the
    host push the p50 of a two-cluster distribution (nat444_load's ~20 ms
    and ~140 ms cells) into the gap between the clusters.  The tail
    percentile is the highest with ten cells beyond it.
    """
    per_cell: Dict[str, List[float]] = {}
    for record in campaigns:
        for cell, seconds in record["cells"]:
            per_cell.setdefault(cell, []).append(seconds * 1000.0)
    values = sorted(min(samples) for samples in per_cell.values())
    pct = tail_percentile(len(values))
    tail = statistics.quantiles(values, n=100, method="inclusive")[pct - 1] if len(values) >= 2 else values[0]
    samples = sum(len(samples) for samples in per_cell.values())
    return {"p50": statistics.median(values), "tail": tail, "pct": pct, "n": len(values), "samples": samples}


def end_to_end(setups: List[float], campaigns: List[Dict], attempted: int, failed: int) -> Dict:
    raw = {
        "setup_s": setups,
        "campaign_s": [record["campaign_s"] for record in campaigns],
        "cpu_s": [record["cpu_s"] for record in campaigns],
        "report_s": [record["report_s"] for record in campaigns],
        "peak_rss_mb": [record["peak_rss_mb"] for record in campaigns],
    }
    values = {name: statistics.median(samples) for name, samples in raw.items()}
    cells = cell_times(campaigns)
    values["cell_ms_p50"] = cells["p50"]
    values["cell_ms_tail"] = cells["tail"]
    values["cell_ok_ratio"] = 1.0 - failed / attempted
    cell_counts = {"n": cells["n"], "samples": cells["samples"], "tail_pct": cells["pct"]}
    return {"values": values, "raw": raw, "cells": cell_counts}


def per_layer(untraced: Dict, traced: Dict, jobs: int) -> Dict[str, float]:
    spans = traced["layers"]
    self_s = {layer: 0.0 for layer in LAYERS}
    for key, (_calls, seconds, _total) in spans.items():
        if "|" in key:
            self_s[key.split("|")[0]] += seconds

    def calls(key: str) -> int:
        return spans.get(key, [0, 0.0, 0.0])[0]

    def total(key: str) -> float:
        return spans.get(key, [0, 0.0, 0.0])[2]

    counters = traced["counters"]
    frames = counters.get("frames_carried", 0)
    segments = counters.get("tcp_segments", 0)
    build_s = total(OUTERMOST_BUILDS)
    metrics = {f"{layer}.self_s": seconds for layer, seconds in self_s.items()}
    metrics.update(
        {
            "protocols.tcp_segments": segments,
            "protocols.tcp_retransmit_ratio": counters.get("tcp_retransmits", 0) / segments if segments else 0.0,
            "packets.checksum_calls": calls("packets|checksum_of_parts"),
            "packets.clones": calls("packets|clone_packet"),
            "netsim.frames": frames,
            "netsim.us_per_frame": self_s["netsim"] / frames * 1e6 if frames else 0.0,
            "netsim.events": traced["events"],
            "netsim.fastpath_share": traced["events_saved"] / traced["segments"] if traced["segments"] else 0.0,
            "netsim.frames_dropped": counters.get("frames_dropped", 0),
            "gateway.frames": calls("gateway|HomeGateway.receive_frame"),
            "gateway.nat_lookups": calls("gateway|NatEngine.lookup_or_create"),
            "gateway.bindings_created": counters.get("bindings_created", 0),
            "gateway.bindings_expired": counters.get("bindings_expired", 0),
            "gateway.bindings_refused": counters.get("bindings_refused", 0),
            "gateway.fwd_drops": counters.get("fwd_drops", 0),
            "cgn.blocks_allocated": counters.get("blocks_allocated", 0),
            "testbed.builds": calls(OUTERMOST_BUILDS),
            "testbed.build_s": build_s,
            "testbed.build_share": build_s / traced["shard_wall_s"] if traced["shard_wall_s"] else 0.0,
            "core.runtime.tasks": counters.get("tasks", 0),
            "core.parallel.shards": traced["shards"],
            "core.parallel.overhead_s": untraced["campaign_s"] - untraced["shard_wall_s"] / jobs,
            "core.parallel.fallbacks": traced["serial_runs"] if jobs > 1 else 0,
            "core.parallel.retries": traced["retries"],
            "core.store.cells": calls("core.store|CampaignStore.save_cell"),
            "core.store.bytes": untraced["store_bytes"],
            "core.store.save_s": total("core.store|CampaignStore.save_cell"),
            "core.store.load_s": total("core.store|CampaignStore.load_results"),
            "trace.spans": traced["spans"],
            "trace.wall_s": traced["root_wall"],
            "trace.overhead_s": traced["campaign_s"] - untraced["campaign_s"],
        }
    )
    return metrics


# -- one workload -------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, size: str, trace: bool, deadline: float) -> Dict:
    spec = WORKLOADS[workload]
    reference, origin = reference_digests(workload, seed, size, deadline)
    result: Dict = {"workload": workload, "jobs": spec.jobs, "reference": origin, "cells_expected": len(reference)}
    if trace:
        untraced = run_child(campaign_args(workload, seed, size, "plain"), deadline)
        traced = run_child(campaign_args(workload, seed, size, "traced"), deadline)
        campaigns = [untraced, traced]
        result["values"] = per_layer(untraced, traced, spec.jobs)
        result["cell_spans"] = traced["cell_spans"]
    else:
        run_child(campaign_args(workload, seed, size, "setup"), deadline)  # warm-up, discarded
        # Set-up-only samples go one before each of the first campaigns, so
        # one slow phase of the host cannot hold all of them.
        setups = []
        campaigns = []
        started = clock()
        while True:
            if len(setups) < SETUP_SAMPLES:
                setups.append(run_child(campaign_args(workload, seed, size, "setup"), deadline)["setup_s"])
            campaigns.append(run_child(campaign_args(workload, seed, size, "plain"), deadline))
            elapsed = clock() - started
            if elapsed + elapsed / len(campaigns) > seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_child(campaign_args(workload, seed, size, "setup"), deadline)["setup_s"])
        setups += [record["setup_s"] for record in campaigns]
    attempted = len(reference) * len(campaigns)
    failed = sum(cell_failures(record, reference) for record in campaigns)
    result.update(
        attempted=attempted,
        failed=failed,
        cell_fail_ratio=failed / attempted if attempted else 1.0,
        errors=sorted({error for record in campaigns for error in record["errors"]}),
    )
    if not trace:
        result.update(end_to_end(setups, campaigns, attempted, failed))
    return result


# -- output -------------------------------------------------------------------


def print_table(results: List[Dict], trace: bool) -> None:
    if trace:
        for result in results:
            print(f"== {result['workload']} (jobs={result['jobs']}, traced run)")
            for name, unit in PER_LAYER_UNITS.items():
                value = result["values"][name]
                shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
                print(f"  {name:<34} {shown} {unit}")
            print(f"  {'cell_fail_ratio':<34} {result['cell_fail_ratio']:>16.6g} ratio")
        return
    # The table shows cell_fail_ratio itself; the JSON carries its complement.
    columns = [name for name in END_TO_END_UNITS if name != "cell_ok_ratio"]
    header = ["workload", "jobs", *(f"{name}[{END_TO_END_UNITS[name]}]" for name in columns), "cell_fail_ratio[ratio]"]
    rows = [
        [
            result["workload"],
            str(result["jobs"]),
            *(f"{result['values'][name]:.6g}" for name in columns),
            f"{result['cell_fail_ratio']:.6g}",
        ]
        for result in results
    ]
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
    for result in results:
        cells = result["cells"]
        print(
            f"{result['workload']}: cell_ms_p50 and cell_ms_tail (p{cells['tail_pct']}) "
            f"over n={cells['n']} per-cell best times of {cells['samples']} samples from "
            f"{len(result['raw']['campaign_s'])} campaigns; reference digests: {result['reference']['source']}"
        )
        if "staged_campaign_s" in result["reference"]:
            staged = result["reference"]["staged_campaign_s"]
            print(
                f"  staged-engine oracle campaign_s: {staged:.6g} s "
                f"({staged / result['values']['campaign_s'] - 1:+.1%} vs the fast path's median)"
            )
        for name, samples in result["raw"].items():
            print(f"  raw {name}: {' '.join(f'{value:.6g}' for value in samples)}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full", help="smoke: seconds-long test size")
    parser.add_argument("--write-digests", action="store_true", help="commit the staged-engine digests of --seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    deadline = clock() + RUN_BUDGET_S * (3 if args.workload == "all" else 1)
    # SIGTERM unwinds like Ctrl-C, so run_child stops the running campaign.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    shutil.rmtree(TMP_DIR, ignore_errors=True)  # stores left by a killed run
    TMP_DIR.mkdir()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    if args.write_digests:
        for name in names:
            oracle = run_child(campaign_args(name, args.seed, args.size, "oracle"), deadline)
            if oracle["errors"]:
                print(f"perfbench: oracle failed: {oracle['errors']}", file=sys.stderr)
                return 1
            DIGEST_DIR.mkdir(exist_ok=True)
            payload = {"workload": name, "seed": args.seed, "size": args.size, "cells": oracle["digests"]}
            (DIGEST_DIR / f"{name}.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
            print(f"wrote {len(oracle['digests'])} cell digests for {name}")
        return 0

    host = host_stamp()
    try:
        results = [measure(name, args.seed, args.seconds, args.size, bool(args.trace), deadline) for name in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(
        f"host: python {host['python']}, cpu_count {host['cpu_count']}, affinity {host['affinity']}, "
        f"calibration {host['calibration_mloops_s']} Mloops/s at start; seed {args.seed}, size {args.size}"
    )
    print_table(results, bool(args.trace))
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        for result in results:
            path = OUT_DIR / f"spans-{result['workload']}-seed{args.seed}.json"
            path.write_text(json.dumps(result.pop("cell_spans")) + "\n")
            print(f"per-cell spans: {path.relative_to(ROOT)}")
    # A second score shows whether the host's speed drifted during the run.
    host["calibration_end_mloops_s"] = round(calibration_score(), 3)
    record = {"host": host, "seed": args.seed, "size": args.size, "trace": args.trace, "results": results}
    print("record " + json.dumps(record, sort_keys=True))

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if len(results) == 1:
        metrics = {name: {"value": results[0]["values"][name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {
            f"{result['workload']}.{name}": {"value": result["values"][name], "unit": unit}
            for result in results
            for name, unit in units.items()
        }
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    correct = failed == 0 and all(result["cells_expected"] > 0 for result in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
