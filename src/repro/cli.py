"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list-devices`` — the Table 1 inventory.
* ``probe`` — run one measurement family against selected devices.
* ``survey`` — run several families, optionally exporting CSV series.
* ``classify`` — STUN-style classification of selected devices.
* ``compliance`` — grade devices against RFC 4787 / 5382 / 5508.
* ``bench`` — run a campaign, print its counters and dump them as JSON;
  ``--jobs N`` shards devices across processes.  Timing belongs to
  ``perfbench/``, not to this dump.
* ``trace`` — summarize JSONL trace files produced by ``--trace``.

``probe``, ``survey``, ``compliance``, ``report`` and ``bench`` all run a
registry campaign (:class:`~repro.core.survey.SurveyRunner`): one fresh
testbed per device and family, seeded from the device tag.  ``classify``
is the one command that builds a shared testbed (STUN classification is
not a campaign family).

``probe``, ``survey``, ``report`` and ``bench`` all accept the flight-recorder
flags ``--trace DIR`` (per-device JSONL event traces), ``--pcap DIR``
(per-link pcap captures) and ``--metrics`` (campaign counters/histograms);
see :mod:`repro.obs`.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional, Sequence

from repro.analysis import render_table1, series_to_csv
from repro.compliance import check_device, population_summary
from repro.core import registry
from repro.devices import CATALOG, catalog_profiles
from repro.obs import render_summary, summarize_paths

#: Campaign families, straight from the experiment registry — a family
#: registered by a core module is a valid ``--test``/``--tests``/``--families``
#: value everywhere without touching this file.
FAMILY_CHOICES = registry.runnable_names()

#: Per-command fallbacks when neither ``--tests`` nor ``--families`` nor a
#: tier switch (``--cgn`` …) picked anything.  Kept out of argparse defaults
#: so the commands can tell "user chose these" from "nothing chosen".
DEFAULT_SURVEY_TESTS = ["udp1", "tcp1", "tcp4"]
DEFAULT_REPORT_TESTS = ["udp1", "udp2", "udp3", "tcp1", "tcp4"]
DEFAULT_BENCH_TESTS = ["udp1", "tcp2"]


def _resolve_tags(tags: Optional[Sequence[str]]) -> List[str]:
    if not tags:
        return sorted(CATALOG)
    unknown = [tag for tag in tags if tag not in CATALOG]
    if unknown:
        raise SystemExit(f"unknown device tags: {unknown}; see `repro list-devices`")
    return list(tags)


def _parse_chaos(args):
    """Parse ``--impair``/``--fault`` flags into campaign chaos config."""
    from repro.gateway.faults import FaultSpec
    from repro.netsim.impair import Impairment

    try:
        impair = getattr(args, "impair", None)
        impairment = Impairment.parse(impair) if impair else None
        faults = [FaultSpec.parse(text) for text in (getattr(args, "fault", None) or [])]
    except ValueError as exc:
        raise SystemExit(f"bad chaos spec: {exc}") from None
    return impairment, faults


def _report_errors(results, out) -> None:
    if results.errors:
        out(f"\n{len(results.errors)} shard(s) failed:")
        for error in results.errors:
            out(f"  {error}")


def _family_selection(args) -> Optional[List[str]]:
    """Resolve ``--families udp1,tcp2`` (preferred) or legacy ``--tests``."""
    families = getattr(args, "families", None)
    if families:
        return [name.strip() for name in families.split(",") if name.strip()]
    tests = getattr(args, "tests", None)
    return list(tests) if tests else None


def _cgn_selection(args, base: Optional[List[str]], default: List[str]) -> List[str]:
    """Fold the tier switches (``--cgn``/``--attack``/…) into a family selection.

    With an explicit ``--tests``/``--families`` selection the opt-in
    families are appended; with none, a tier switch alone means "that
    campaign" (just its families, not them plus the command's default
    menu).  With no switch at all the command's own ``default`` fills in.
    """
    extra = [
        name for tier in registry.tiers() if getattr(args, tier.name, False) for name in tier.families
    ]
    if not extra:
        return base if base is not None else list(default)
    if base is None:
        return extra
    return base + [name for name in extra if name not in base]


def cmd_list_devices(args, out) -> int:
    out(render_table1(catalog_profiles()))
    return 0


def cmd_probe(args, out) -> int:
    """A one-family survey."""
    args.tests = [args.test]
    return cmd_survey(args, out)


def cmd_survey(args, out) -> int:
    """Run the campaign the flags describe and print each family's block.

    Without ``--out`` the campaign is in-memory; with it, every cell lands
    in the store (``--resume`` skips the ones already there).
    """
    if getattr(args, "resume", False) and not args.out:
        raise SystemExit("--resume needs --out DIR (the store to resume from)")
    tags = _resolve_tags(args.tags)
    csv_dir = pathlib.Path(args.csv_dir) if getattr(args, "csv_dir", None) else None
    if csv_dir:
        csv_dir.mkdir(parents=True, exist_ok=True)
    runner, _selected, results = _run_from_args(args, tags, DEFAULT_SURVEY_TESTS)
    partitioned = getattr(args, "partitions", None) is not None
    for name, mapping in results.families.items():
        descriptor = registry.family(name)
        unit = "segment" if partitioned else descriptor.subject_kind
        out(f"{name:>10}: {len(descriptor.cells_of(mapping))} {unit}(s)")
        if descriptor.terminal_block is not None:
            out(descriptor.terminal_block(mapping))
        if csv_dir and descriptor.device_series is not None:
            path = csv_dir / f"{name}.csv"
            path.write_text(series_to_csv(descriptor.device_series(mapping)) + "\n")
            out(f"[wrote {path}]")
    if partitioned:
        out(f"partitions: {runner.partitions}   sync rounds: {runner.last_sync_rounds}   "
            f"boundary frames: {runner.last_boundary_frames}")
    if getattr(args, "out", None):
        skipped = f" ({runner.last_skipped_cells} cell(s) reused)" if args.resume else ""
        out(f"store: {args.out}{skipped}")
    if results.metrics is not None:
        out(json.dumps(results.metrics.as_dict(), indent=2, sort_keys=True))
    _report_errors(results, out)
    return 0 if results.complete else 1


def _runner_from_args(args, tags: Sequence[str]):
    """The campaign runner a ``probe``/``survey``/``report``/``bench``/``compliance``
    invocation describes.

    Every declared knob whose ``dest`` the command parsed is forwarded; the
    rest keep their declared defaults.  A ``--partitions`` run takes only
    the generated tier flags: a command's own per-device flags
    (``--repetitions`` …) carry command defaults that no partitionable
    family reads, and forwarding them would re-key the partitioned store.
    """
    from repro.core import SurveyRunner
    from repro.core.partition import PartitionRunner

    partitions = getattr(args, "partitions", None)
    knobs = {
        knob.name: getattr(args, knob.dest)
        for knob in registry.knobs()
        if hasattr(args, knob.dest) and (partitions is None or knob.flag is not None)
    }
    impairment, faults = _parse_chaos(args)
    config = dict(
        profiles=catalog_profiles(tags),
        seed=args.seed,
        jobs=getattr(args, "jobs", 1),
        fastpath=not getattr(args, "no_fastpath", False),
        impairment=impairment,
        faults=faults,
        trace_dir=getattr(args, "trace", None),
        pcap_dir=getattr(args, "pcap", None),
        metrics=getattr(args, "metrics", False),
        store_dir=getattr(args, "out", None),
        resume=getattr(args, "resume", False),
        **knobs,
    )
    if partitions is None:
        return SurveyRunner(**config)
    return PartitionRunner(partitions=partitions, **config)


def _run_from_args(args, tags: Sequence[str], default: List[str]):
    """Build and run the campaign the flags describe: ``(runner, selected, results)``."""
    from repro.core.partition import PartitionError
    from repro.core.store import StoreError

    if getattr(args, "partitions", None) is not None:
        default = list(registry.partitionable_names())
    selected = _cgn_selection(args, _family_selection(args), default)
    try:
        runner = _runner_from_args(args, tags)
        return runner, selected, runner.run(tests=selected)
    except (ValueError, StoreError, PartitionError) as exc:
        raise SystemExit(str(exc)) from None


def cmd_classify(args, out) -> int:
    from repro.core.runtime import SimTask, run_tasks
    from repro.testbed import Testbed
    from repro.traversal import StunClient, StunServer, classify

    tags = _resolve_tags(args.tags)
    bed = Testbed.build(catalog_profiles(tags), seed=args.seed)
    server = StunServer(bed.server)
    for tag in tags:
        port = bed.port(tag)
        client = StunClient(bed.client, iface_index=port.client_iface_index)
        task = SimTask(bed.sim, classify(client, port.server_ip), name=f"stun:{tag}")
        run_tasks(bed.sim, [task])
        client.close()
        verdict = task.result
        out(f"{tag:>5}  {verdict.rfc3489_type:<22} port-preserved:{verdict.preserves_port}")
    server.close()
    return 0


def cmd_report(args, out) -> int:
    from repro.analysis import render_report

    if args.from_dir:
        from repro.core.store import CampaignStore, StoreError

        try:
            store = CampaignStore.open(args.from_dir)
            results = store.load_results()
        except StoreError as exc:
            raise SystemExit(str(exc)) from None
        devices = len(store.devices())
    else:
        tags = _resolve_tags(args.tags)
        _runner, _selected, results = _run_from_args(args, tags, DEFAULT_REPORT_TESTS)
        devices = len(tags)
    report = render_report(results, title=f"Home gateway survey ({devices} devices)")
    if args.output:
        pathlib.Path(args.output).write_text(report)
        out(f"wrote {args.output}")
    else:
        out(report)
    if results.metrics is not None:
        totals = results.metrics.counters
        out(f"[metrics] {sum(totals.values())} events across {len(totals)} counters")
    _report_errors(results, out)
    return 0


def cmd_bench(args, out) -> int:
    """Time a campaign (``--partitions N``: a partitioned one) and dump its counters.

    The dump's ``campaign`` block is the resolved knob mapping plus seed,
    tests, chaos and engine; a partitioned run adds a ``partition`` block
    (worker count, sync rounds, boundary frames, CPU split).  Nothing is
    written besides ``--output``.
    """
    from repro.core import write_bench_json
    from repro.core.store import SCHEMA_VERSION

    tags = _resolve_tags(args.tags)
    if args.output and not pathlib.Path(args.output).parent.is_dir():
        raise SystemExit(f"--output: directory {pathlib.Path(args.output).parent} does not exist")
    runner, selected, results = _run_from_args(args, tags, DEFAULT_BENCH_TESTS)
    partitioned = args.partitions is not None
    stats = results.stats
    if partitioned:
        out(f"devices: {len(tags)}   families: {' '.join(selected)}   "
            f"partitions: {runner.partitions}")
        out(f"elapsed: {runner.last_elapsed:.2f}s wall   "
            f"sync rounds: {runner.last_sync_rounds}   "
            f"boundary frames: {runner.last_boundary_frames}")
        if runner.last_island_cpu_seconds:
            islands = " ".join(f"{s:.2f}" for s in runner.last_island_cpu_seconds)
            out(f"cpu: hub {runner.last_hub_cpu_seconds:.2f}s   islands [{islands}]s   "
                f"critical path: {runner.last_critical_path_seconds:.2f}s")
        out(f"events: {stats.events_processed}   events/sec (wall): {stats.events_per_sec:.0f}")
    else:
        out(f"devices: {len(tags)}   families: {' '.join(selected)}   jobs: {args.jobs}")
        if runner.impairment is not None or runner.faults:
            out(f"impairment: {args.impair or 'none'}   faults: {', '.join(args.fault or []) or 'none'}")
        out(f"elapsed: {runner.last_elapsed:.2f}s wall   {stats.wall_seconds:.2f}s shard wall sum")
        out(f"events: {stats.events_processed}   events/sec (shard wall): {stats.events_per_sec:.0f}")
        out(f"segments modeled: {stats.segments_modeled}   "
            f"fastpath saved: {stats.fastpath_events_saved} events "
            f"in {stats.fastpath_windows} windows")
        out(f"stale-entry purges: {stats.stale_purges} ({stats.stale_entries_purged} entries)")
    for family in selected:
        wall = stats.family_wall.get(family, 0.0)
        events = stats.family_events.get(family, 0)
        segments = "" if partitioned else f"  {stats.family_segments.get(family, 0):>9} segments"
        out(f"  {family:>10}  {wall:8.2f}s  {events:>9} events{segments}")
    _report_errors(results, out)
    if not args.output:
        return 0
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": runner.fingerprint(),
        "campaign": {
            "devices": len(tags),
            "tests": list(selected),
            "seed": args.seed,
            **runner.knobs,
            "impairment": runner.impairment.describe() if runner.impairment is not None else None,
            "faults": [fault.describe() for fault in runner.faults],
            "fastpath": not args.no_fastpath,
        },
        "elapsed_wall_seconds": round(runner.last_elapsed, 3),
        "shard_errors": [
            {"tag": error.tag, "family": error.family, "error": error.error, "message": error.message}
            for error in results.errors
        ],
        "stats": stats.as_dict(),
    }
    if partitioned:
        payload["partition"] = {
            "partitions": runner.partitions,
            "sync_rounds": runner.last_sync_rounds,
            "boundary_frames": runner.last_boundary_frames,
            "island_cpu_seconds": [round(s, 3) for s in runner.last_island_cpu_seconds],
            "hub_cpu_seconds": round(runner.last_hub_cpu_seconds, 3),
            "critical_path_seconds": round(runner.last_critical_path_seconds, 3),
        }
    if results.metrics is not None:
        payload["metrics"] = results.metrics.as_dict()
    from repro.workload.families import scaling_curves

    curves = scaling_curves(results)
    if curves is not None:
        # The workload tier's deliverable: the decoded scaling curves
        # ride in the bench dump (BENCH_workload.json) so the loss
        # curves are diffable without replaying the campaign.
        payload["curves"] = curves
    write_bench_json(args.output, payload)
    out(f"wrote {args.output}")
    return 0


def cmd_trace(args, out) -> int:
    summaries = summarize_paths([pathlib.Path(path) for path in args.paths])
    if not summaries:
        raise SystemExit(f"no trace files found under: {' '.join(args.paths)}")
    if args.json:
        out(json.dumps(summaries, indent=2, sort_keys=True))
    else:
        out(render_summary(summaries))
    return 0


def cmd_compliance(args, out) -> int:
    tags = _resolve_tags(args.tags)
    _runner, _selected, results = _run_from_args(args, tags, ["udp1", "tcp1", "icmp"])
    reports = {
        tag: check_device(tag, udp1=results.udp1[tag], tcp1=results.tcp1[tag], icmp=results.icmp[tag])
        for tag in tags
    }
    for tag in tags:
        report = reports[tag]
        failures = report.failures()
        status = "PASS" if not failures else f"FAIL ({len(failures)})"
        out(f"{tag:>5}  {status}")
        for failure in failures:
            out(f"        {failure}")
    summary = population_summary(reports)
    out("")
    out(f"below RFC4787 120s: {summary['udp_below_required']:.0%}   "
        f"below RFC5382 124min: {summary['tcp_below_minimum']:.0%}   "
        f"RFC5508 compliant: {summary['icmp_compliant']:.0%}")
    return 0


def _add_cgn_flags(parser: argparse.ArgumentParser) -> None:
    """The tier switches and tier-knob flags shared by survey/report/bench.

    Generated from the registry: each :class:`~repro.core.registry.Tier`'s
    ``--<tier>`` switch, followed by the flags of the knobs listed under it.
    """
    for tier in registry.tiers():
        parser.add_argument(f"--{tier.name}", action="store_true", help=tier.help)
        for knob in registry.knobs():
            if knob.tier != tier.name:
                continue
            if knob.type is bool:
                parser.add_argument(knob.flag, action="store_true", dest=knob.dest, help=knob.help)
            else:
                parser.add_argument(knob.flag, type=knob.type, default=knob.default, dest=knob.dest,
                                    metavar=knob.metavar, choices=knob.choices, help=knob.help)


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The flight-recorder flags shared by probe/survey/report/bench."""
    parser.add_argument("--trace", metavar="DIR",
                        help="write per-device JSONL event traces into DIR")
    parser.add_argument("--pcap", metavar="DIR",
                        help="write per-link pcap captures into DIR (open in Wireshark)")
    parser.add_argument("--metrics", action="store_true",
                        help="collect campaign counters/gauges/histograms")
    parser.add_argument("--no-fastpath", action="store_true", dest="no_fastpath",
                        help="run every simulation on the staged event engine "
                        "(the fast path's property-test oracle); results are "
                        "identical, wall-clock is not")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Home-gateway characteristics laboratory (IMC 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-devices", help="print the Table 1 inventory").set_defaults(func=cmd_list_devices)

    probe = sub.add_parser("probe", help="run one measurement family")
    probe.add_argument("--test", required=True, choices=FAMILY_CHOICES)
    probe.add_argument("--tags", nargs="*", help="device tags (default: all 34)")
    probe.add_argument("--repetitions", type=int, default=3)
    probe.add_argument("--seed", type=int, default=0)
    _add_obs_flags(probe)
    probe.set_defaults(func=cmd_probe)

    survey = sub.add_parser("survey", help="run several families")
    survey.add_argument("--tests", nargs="+", default=None, choices=FAMILY_CHOICES,
                        help="families to run (default: udp1 tcp1 tcp4)")
    survey.add_argument("--families", metavar="F1,F2",
                        help=f"comma-joined campaign families ({','.join(FAMILY_CHOICES)})")
    survey.add_argument("--tags", nargs="*")
    survey.add_argument("--repetitions", type=int, default=3)
    survey.add_argument("--seed", type=int, default=0)
    survey.add_argument("--csv-dir", help="export each series as CSV here")
    survey.add_argument("--jobs", type=int, default=1, help="shard devices across N worker processes")
    survey.add_argument("--partitions", type=int, default=None, metavar="N",
                        help="cut the (partitionable) topology into N islands in "
                        "separate worker processes, synchronized at boundary links "
                        "(1 = the single-process reference engine; cells are "
                        "byte-identical either way)")
    survey.add_argument("--out", metavar="DIR",
                        help="persist every (device, family) cell into a campaign store at DIR")
    survey.add_argument("--resume", action="store_true",
                        help="with --out: skip cells already in the store, run only the missing ones")
    _add_cgn_flags(survey)
    _add_obs_flags(survey)
    survey.set_defaults(func=cmd_survey)

    stun = sub.add_parser("classify", help="STUN-style classification")
    stun.add_argument("--tags", nargs="*")
    stun.add_argument("--seed", type=int, default=0)
    stun.set_defaults(func=cmd_classify)

    report = sub.add_parser("report", help="full markdown survey report")
    report.add_argument("--tests", nargs="+", default=None, choices=FAMILY_CHOICES,
                        help="families to run (default: udp1 udp2 udp3 tcp1 tcp4)")
    report.add_argument("--families", metavar="F1,F2",
                        help=f"comma-joined campaign families ({','.join(FAMILY_CHOICES)})")
    report.add_argument("--from", dest="from_dir", metavar="DIR",
                        help="render from a campaign store written by `survey --out` (no simulation)")
    report.add_argument("--tags", nargs="*")
    report.add_argument("--repetitions", type=int, default=3)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--output", help="write the markdown here instead of stdout")
    report.add_argument("--jobs", type=int, default=1, help="shard devices across N worker processes")
    report.add_argument("--impair", help="link impairment, e.g. loss=0.01,reorder=5ms,dup=0.001")
    report.add_argument("--fault", action="append",
                        help="gateway fault, e.g. crash@t=30,boot=never,device=dl8 (repeatable)")
    _add_cgn_flags(report)
    _add_obs_flags(report)
    report.set_defaults(func=cmd_report)

    bench = sub.add_parser("bench", help="time a campaign and dump perf counters")
    bench.add_argument("--tests", nargs="+", default=None, choices=FAMILY_CHOICES,
                       help="families to run (default: udp1 tcp2)")
    bench.add_argument("--families", metavar="F1,F2",
                       help=f"comma-joined campaign families ({','.join(FAMILY_CHOICES)})")
    bench.add_argument("--tags", nargs="*")
    bench.add_argument("--repetitions", type=int, default=1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--tcp1-cutoff", type=float, default=600.0)
    bench.add_argument("--transfer-bytes", type=int, default=512 * 1024)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--partitions", type=int, default=None, metavar="N",
                       help="time a partitioned campaign on N worker processes "
                       "(see `survey --partitions`)")
    bench.add_argument("--impair", help="link impairment, e.g. loss=0.01,reorder=5ms,dup=0.001")
    bench.add_argument("--fault", action="append",
                       help="gateway fault, e.g. crash@t=30,boot=never,device=dl8 (repeatable)")
    bench.add_argument("--output", help="write the JSON counter dump here")
    _add_cgn_flags(bench)
    _add_obs_flags(bench)
    bench.set_defaults(func=cmd_bench)

    trace = sub.add_parser("trace", help="summarize JSONL trace files from --trace")
    trace.add_argument("paths", nargs="+",
                       help="trace files or directories of per-device .jsonl files")
    trace.add_argument("--json", action="store_true", help="emit the summary as JSON")
    trace.set_defaults(func=cmd_trace)

    comp = sub.add_parser("compliance", help="grade against the IETF BCPs")
    comp.add_argument("--tags", nargs="*")
    comp.add_argument("--repetitions", type=int, default=1)
    comp.add_argument("--seed", type=int, default=0)
    comp.set_defaults(func=cmd_compliance)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args, print)


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
