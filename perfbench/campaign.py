"""One campaign in a fresh interpreter; prints one JSON record as its last line.

``run.py`` starts this script once per campaign, so every campaign pays
its own imports and set-up and its resource usage is its own.  Modes:

``setup``
    Stop when the first shard would start (``setup_s`` samples).
``plain``
    The campaign as users run it, plus the report timing.
``oracle``
    The same campaign on the staged engine (``fastpath=False``); only its
    cell digests are used.
``traced``
    The campaign with the layer spans of ``instrument.py`` installed.

Run by hand from the repository root::

    python3 perfbench/campaign.py --workload paper_survey --seed 0 --mode plain
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from instrument import Recorder, SetupDone, clock, install_cell_clock, install_layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Report re-renders per campaign: at least this many, and until this much
#: time passed (a paper_survey render takes ~15 ms, a traversal_pairs one
#: ~160 ms).
REPORT_MIN_REPS = 3
REPORT_MIN_SECONDS = 0.4
REPORT_MAX_REPS = 50


def cell_digests(store_dir: pathlib.Path) -> Dict[str, str]:
    """SHA-256 of every cell file's bytes, keyed by its path under ``cells/``."""
    cells = store_dir / "cells"
    return {
        path.relative_to(cells).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(cells.rglob("*.json"))
    }


def time_report(store_dir: pathlib.Path) -> float:
    """Median seconds of ``CampaignStore.open`` → ``load_results`` → ``render_report``."""
    from repro.analysis.report import render_report
    from repro.core.store import CampaignStore

    def render() -> int:
        return len(render_report(CampaignStore.open(store_dir).load_results()))

    render()  # lazy imports and first-touch caches stay out of the samples
    samples = []
    deadline = clock() + REPORT_MIN_SECONDS
    while len(samples) < REPORT_MAX_REPS and (len(samples) < REPORT_MIN_REPS or clock() < deadline):
        start = clock()
        render()
        samples.append(clock() - start)
    return statistics.median(samples)


def merge_bucket(total: Dict[str, list], bucket: Dict[str, list]) -> None:
    for layer, (calls, self_s, total_s) in bucket.items():
        entry = total.setdefault(layer, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += self_s
        entry[2] += total_s


def merge_counters(total: Dict[str, float], counters: Dict[str, float]) -> None:
    for name, value in counters.items():
        total[name] = total.get(name, 0) + value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    parser.add_argument("--mode", default="plain", choices=("setup", "plain", "oracle", "traced"))
    parser.add_argument("--t0", type=float, default=None, help="parent's perf_counter before start")
    parser.add_argument("--tmp", default=None, help="directory for the temporary store")
    parser.add_argument("--keep-store", default=None, help="copy the finished store here")
    args = parser.parse_args(argv)
    t0 = clock() if args.t0 is None else args.t0

    rec = Recorder(traced=args.mode == "traced", setup_only=args.mode == "setup")
    from repro.core.survey import SurveyRunner
    from repro.devices import catalog_profiles

    if rec.traced:
        install_layers(rec)
    install_cell_clock(rec)

    workload = WORKLOADS[args.workload]
    profiles = catalog_profiles(list(workload.smoke_tags) if args.size == "smoke" else None)
    store_dir = pathlib.Path(tempfile.mkdtemp(prefix="store-", dir=args.tmp))
    try:
        runner = SurveyRunner(
            profiles=profiles,
            seed=args.seed,
            jobs=workload.jobs,
            fastpath=args.mode != "oracle",
            store_dir=str(store_dir),
            **workload.knobs,
        )
        cpu_before = time.process_time()
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = clock()
        try:
            results = runner.run(tests=workload.families)
        except SetupDone:
            print(json.dumps({"setup_s": rec.first_shard_at - t0}))
            return 0
        campaign_s = clock() - start
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu_s = (
            time.process_time()
            - cpu_before
            + (children.ru_utime - children_before.ru_utime)
            + (children.ru_stime - children_before.ru_stime)
        )
        driver_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        own_pid = os.getpid()
        worker_rss: Dict[int, int] = {}
        for shard in rec.shards:
            if shard.get("pid", own_pid) != own_pid:
                worker_rss[shard["pid"]] = max(worker_rss.get(shard["pid"], 0), shard["maxrss_kb"])
        stats = results.stats
        record = {
            "setup_s": rec.first_shard_at - t0,
            "campaign_s": campaign_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": (driver_rss_kb + sum(worker_rss.values())) / 1024.0,
            "errors": [str(error) for error in results.errors],
            "shards": rec.specs,
            "shard_wall_s": sum(shard["wall"] for shard in rec.shards),
            "cells": [[cell["cell"], cell["s"]] for shard in rec.shards for cell in shard["cells"]],
            "digests": cell_digests(store_dir),
            "store_bytes": sum(path.stat().st_size for path in store_dir.rglob("*") if path.is_file()),
            "events": stats.events_processed,
            "events_saved": stats.fastpath_events_saved,
            "segments": stats.segments_modeled,
        }
        if args.mode == "plain":
            record["report_s"] = time_report(store_dir)
        if rec.traced:
            layers: Dict[str, list] = {}
            counters: Dict[str, float] = {}
            merge_bucket(layers, rec.driver_bucket)
            root_wall = rec.root_wall
            spans = rec.spans
            cell_spans = []
            for shard in rec.shards:
                for cell in shard["cells"]:
                    merge_bucket(layers, cell["layers"])
                    merge_counters(counters, cell["counters"])
                    cell_spans.append({"cell": cell["cell"], "s": cell["s"], "layers": cell["layers"]})
                merge_bucket(layers, shard["tail"])
                merge_counters(counters, shard["counters"])
                root_wall += shard.get("root_wall", 0.0)
                spans += shard.get("spans", 0)
            record.update(
                layers=layers,
                counters=counters,
                root_wall=root_wall,
                spans=spans,
                cell_spans=cell_spans,
                serial_runs=rec.serial_runs,
                retries=rec.retries,
            )
        if args.keep_store:
            shutil.copytree(store_dir, args.keep_store)
        print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
