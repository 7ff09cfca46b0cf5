"""Conservative parallel simulation of partitionable mega-topologies.

:class:`PartitionRunner` is the :class:`~repro.core.survey.SurveyRunner`
peer for topologies too large for one process.  Where the survey shards
*per device* (independent simulations, embarrassingly parallel), this
runner cuts **one** simulation into islands along its boundary links and
runs the islands in worker processes that synchronize in conservative
lookahead windows:

* the partitionable family (see
  :attr:`~repro.core.registry.ExperimentFamily.partition_factory`) supplies
  *hooks* — builders for the full single-process topology, for the hub's
  core island, and for each worker's segment island, plus the ``lookahead``
  (the boundary links' propagation delay ``d``) and a virtual ``horizon``
  past which nothing measurable happens;
* the hub (this process) computes the **global event floor** ``M`` — the
  minimum over every island's next event time and every boundary frame
  awaiting injection — and grants every island the window ``[*, M + d)``:
  no frame shipped during that window can arrive before ``M + d``, so no
  island can receive anything that would rewind it (the classic
  conservative-lookahead bound, CMB-style);
* boundary frames travel over pipes as ``(arrival, channel, frame)``
  triples; the hub routes them and, crucially, **sorts every island's
  injections by** ``(arrival, segment index)`` so the injection order is a
  pure function of the frames themselves — independent of how many
  partitions produced them;
* idle stretches collapse: the floor jumps straight to the next event in
  the whole system, so a quiet topology costs rounds proportional to its
  boundary traffic, not to its virtual duration.

The determinism contract is the same one the per-device shard engine and
the eager fastpath already honor, extended across processes: store cells
from ``--partitions 1``, ``2`` and ``4`` are **byte-identical**, and a
partitioned campaign may be resumed by any later run regardless of its
partition count.  ``docs/SCALING.md`` develops the full argument; the
property tests in ``tests/test_partition.py`` enforce it.
"""

from __future__ import annotations

import math
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import registry
from repro.core.stats import SimStats
from repro.core.store import CampaignStore
from repro.core.survey import DEFAULT_FAMILY_TIMEOUT, SurveyResults, SurveyRunner
from repro.devices.profile import DeviceProfile

__all__ = ["PartitionError", "PartitionRunner"]


class PartitionError(RuntimeError):
    """A partitioned run could not start or an island died mid-window."""


@dataclass
class _WorkerSpec:
    """Everything one worker needs to rebuild its island (picklable).

    The worker re-derives its hooks from ``(family, knobs)`` through the
    registry rather than receiving live objects, so the pipe carries only
    plain data and the island is constructed exactly as the hub's
    ``build_segments`` contract describes.
    """

    family: str
    knobs: Dict[str, Any]
    #: ``(global segment index, profile)`` pairs, contiguous, ascending.
    numbered: List[Tuple[int, DeviceProfile]]
    worker: int
    seed: int
    fastpath: bool = True
    family_timeout: Optional[float] = DEFAULT_FAMILY_TIMEOUT


def _frame_key(entry: Tuple[float, str, Any]) -> Tuple[float, int]:
    """Canonical injection order: ``(arrival, global segment index)``.

    The segment index comes from the channel name (``up:7`` / ``down:7``)
    and is compared numerically — string order would put segment 10 before
    segment 2 and silently break partition-count independence.
    """
    arrival, channel, _frame = entry
    return (arrival, int(channel.rsplit(":", 1)[1]))


def _drain_island(island) -> List[Tuple[float, str, Any]]:
    """Collect one island's outbound boundary frames, channel-tagged."""
    out: List[Tuple[float, str, Any]] = []
    for channel, half in island.halves.items():
        for arrival, frame in half.drain_outbound():
            out.append((arrival, channel, frame))
    return out


def _inject(island, frames: Sequence[Tuple[float, str, Any]]) -> None:
    """Inject routed frames into an island, in canonical order."""
    for arrival, channel, frame in sorted(frames, key=_frame_key):
        island.inject_map[channel].inject(arrival, frame)


def _island_stats(island) -> Dict[str, Any]:
    sim = island.sim
    return {
        "events": sim.events_processed,
        "saved": sim.fastpath_events_saved,
        "windows": sim.fastpath_windows,
        "stale_purges": sim.stale_purges,
        "stale_entries_purged": sim.stale_entries_purged,
        "frames_shipped": sum(h.frames_shipped for h in island.halves.values()),
        "frames_dropped": sum(h.frames_dropped for h in island.halves.values()),
        # Whole-process CPU: the worker does nothing but build and run its
        # island, so this is the island's cost on a core of its own — the
        # number the critical-path projection sums (see docs/SCALING.md).
        "cpu_seconds": time.process_time(),
    }


def _partition_worker(conn, spec: _WorkerSpec) -> None:
    """Run one segment island to the hub's drum (worker-process entry).

    Protocol, worker side::

        send ("ready", next_event_time)
        loop:
          recv ("run", bound, frames)  -> inject, run_window(bound),
                                          send ("window", out, next_event_time)
          recv ("collect",)            -> send ("cells", {tag: payload}, stats)
          recv ("stop",)               -> exit without collecting

    Any exception turns into ``("error", type, message, traceback)`` so the
    hub can re-raise with the worker's context instead of hanging.
    """
    try:
        family = registry.family(spec.family)
        hooks = family.partition_factory(spec.knobs)
        island = hooks.build_segments(
            spec.numbered, spec.seed, spec.worker, fastpath=spec.fastpath
        )
        if spec.family_timeout is not None:
            island.sim.watchdog_limit = island.sim.now + spec.family_timeout
        conn.send(("ready", island.sim.next_event_time()))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "run":
                _, bound, frames = message
                _inject(island, frames)
                island.sim.run_window(bound)
                conn.send(("window", _drain_island(island), island.sim.next_event_time()))
            elif kind == "collect":
                cells = {
                    tag: family.encode(cell) for tag, cell in island.collect().items()
                }
                conn.send(("cells", cells, _island_stats(island)))
                return
            elif kind == "stop":
                return
            else:  # pragma: no cover - protocol bug
                raise PartitionError(f"unknown hub message {kind!r}")
    except Exception as exc:  # pragma: no cover - exercised via hub re-raise
        try:
            conn.send(("error", type(exc).__name__, str(exc), traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class _PartitionedOutcome:
    """What one partitioned family run hands back to the runner."""

    cells: Dict[str, Any]
    stats: SimStats = field(default_factory=SimStats)
    boundary_frames: int = 0
    sync_rounds: int = 0
    #: Per-worker whole-process CPU seconds (build + windows + collect).
    island_cpu_seconds: List[float] = field(default_factory=list)
    #: The hub process's CPU seconds for this family (core island + routing).
    hub_cpu_seconds: float = 0.0

    @property
    def critical_path_seconds(self) -> float:
        """CPU time of the longest chain: hub plus its slowest island.

        An honest projection of the family's wall-clock on a host with at
        least ``partitions + 1`` cores: worker islands run concurrently, so
        only the slowest one bounds the run, while the hub's core island
        and routing are serial with every window.  On a single-core host
        the measured wall is instead the *sum* of all islands (plus IPC),
        which is why the bench dump's ``partition`` block records both.
        """
        worst = max(self.island_cpu_seconds, default=0.0)
        return self.hub_cpu_seconds + worst


class _Hub:
    """The parent-process side of one partitioned family run.

    Owns the core island (run inline — the hub would otherwise idle while
    workers simulate) and the boundary-frame router.  One instance per
    ``(family, population)``; :meth:`run` drives the whole window protocol
    and returns the merged cells.
    """

    def __init__(
        self,
        family: registry.ExperimentFamily,
        knobs: Mapping[str, Any],
        numbered: Sequence[Tuple[int, DeviceProfile]],
        seed: int,
        partitions: int,
        fastpath: bool,
        family_timeout: Optional[float],
    ):
        self.family = family
        self.knobs = dict(knobs)
        self.numbered = list(numbered)
        self.seed = seed
        self.partitions = partitions
        self.fastpath = fastpath
        self.family_timeout = family_timeout
        self.hooks = family.partition_factory(knobs)

    def _groups(self) -> List[List[Tuple[int, DeviceProfile]]]:
        """Contiguous, near-equal segment groups, one per worker."""
        count = len(self.numbered)
        workers = min(self.partitions, count)
        bounds = [round(w * count / workers) for w in range(workers + 1)]
        return [self.numbered[bounds[w]:bounds[w + 1]] for w in range(workers)]

    def _owner_of(self, groups) -> Dict[int, int]:
        owners: Dict[int, int] = {}
        for w, group in enumerate(groups):
            for index, _profile in group:
                owners[index] = w
        return owners

    def run(self) -> _PartitionedOutcome:
        """Drive the window protocol to the horizon; return merged cells."""
        hooks = self.hooks
        lookahead = hooks.lookahead
        if not lookahead > 0:
            raise PartitionError(
                f"family {self.family.name!r} reports non-positive lookahead "
                f"{lookahead!r}; boundary links must have real propagation delay"
            )
        core = hooks.build_core(self.numbered, self.seed, fastpath=self.fastpath)
        if self.family_timeout is not None:
            core.sim.watchdog_limit = core.sim.now + self.family_timeout
        groups = self._groups()
        owners = self._owner_of(groups)
        context = multiprocessing.get_context()
        workers: List[Tuple[Any, Any]] = []
        outcome = _PartitionedOutcome(cells={})
        hub_cpu_start = time.process_time()
        try:
            for w, group in enumerate(groups):
                spec = _WorkerSpec(
                    family=self.family.name,
                    knobs=self.knobs,
                    numbered=group,
                    worker=w,
                    seed=self.seed,
                    fastpath=self.fastpath,
                    family_timeout=self.family_timeout,
                )
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_partition_worker, args=(child_conn, spec), daemon=True
                )
                process.start()
                child_conn.close()
                workers.append((process, parent_conn))
            worker_next = [self._recv(conn, "ready")[1] for _proc, conn in workers]
            pending: List[List[Tuple[float, str, Any]]] = [[] for _ in workers]
            while True:
                floor = min(
                    [core.sim.next_event_time()]
                    + worker_next
                    + [entry[0] for frames in pending for entry in frames]
                )
                if floor == math.inf or floor > hooks.horizon:
                    break
                bound = floor + lookahead
                outcome.sync_rounds += 1
                for w, (_proc, conn) in enumerate(workers):
                    conn.send(("run", bound, sorted(pending[w], key=_frame_key)))
                    pending[w] = []
                core.sim.run_window(bound)
                for entry in _drain_island(core):
                    _arrival, channel, _frame = entry
                    index = int(channel.rsplit(":", 1)[1])
                    pending[owners[index]].append(entry)
                    outcome.boundary_frames += 1
                inbound: List[Tuple[float, str, Any]] = []
                for w, (_proc, conn) in enumerate(workers):
                    _kind, out, next_t = self._recv(conn, "window")
                    worker_next[w] = next_t
                    inbound.extend(out)
                outcome.boundary_frames += len(inbound)
                _inject(core, inbound)
            merged_stats = SimStats()
            for w, (_proc, conn) in enumerate(workers):
                conn.send(("collect",))
                _kind, cells, raw = self._recv(conn, "cells")
                overlap = set(cells) & set(outcome.cells)
                if overlap:  # pragma: no cover - builder contract violation
                    raise PartitionError(f"duplicate cells across islands: {sorted(overlap)}")
                outcome.cells.update(cells)
                outcome.island_cpu_seconds.append(raw["cpu_seconds"])
                self._fold(merged_stats, raw)
            self._fold(merged_stats, _island_stats(core))
            outcome.stats = merged_stats
            outcome.hub_cpu_seconds = time.process_time() - hub_cpu_start
            for process, conn in workers:
                conn.close()
                process.join(timeout=30)
        finally:
            for process, _conn in workers:
                if process.is_alive():  # pragma: no cover - crash cleanup
                    process.terminate()
                    process.join()
        return outcome

    @staticmethod
    def _fold(stats: SimStats, raw: Mapping[str, int]) -> None:
        stats.events_processed += raw["events"]
        stats.fastpath_events_saved += raw["saved"]
        stats.fastpath_windows += raw["windows"]
        stats.stale_purges += raw["stale_purges"]
        stats.stale_entries_purged += raw["stale_entries_purged"]

    @staticmethod
    def _recv(conn, expected: str):
        try:
            message = conn.recv()
        except EOFError as exc:
            raise PartitionError(
                "partition worker died without reporting an error "
                f"(while waiting for {expected!r})"
            ) from exc
        if message[0] == "error":
            _kind, name, text, trace = message
            raise PartitionError(
                f"partition worker failed with {name}: {text}\n{trace}"
            )
        if message[0] != expected:
            raise PartitionError(
                f"protocol error: expected {expected!r}, got {message[0]!r}"
            )
        return message


class PartitionRunner:
    """Run partitionable campaigns across worker processes.

    A thin campaign driver around the window protocol: it reuses the
    survey's knob schema, fingerprint and store layout (an internal
    :class:`~repro.core.survey.SurveyRunner` supplies all three), so a
    store written by a partitioned run is the *same artifact* a
    single-process run writes — resumable and reportable by either engine,
    under any ``--partitions N``.

    Parameters
    ----------
    profiles : sequence of DeviceProfile, optional
        The segment population, one segment per profile (catalog order by
        default).  Global segment indices are 1-based catalog positions.
    seed : int
        Campaign seed.  Cells of partitionable families are seed-independent
        by construction; the seed still namespaces the store fingerprint.
    partitions : int
        Worker-process count. ``1`` runs the reference single-simulation
        build in-process (no pipes, no windows) — the baseline the
        byte-identity tests diff against.
    survey_kwargs
        Remaining knobs (``cgn_subscribers``, ``metro_requests``,
        ``store_dir``, ``resume`` …) are forwarded verbatim to the internal
        :class:`~repro.core.survey.SurveyRunner`; chaos knobs
        (``impairment``/``faults``) are rejected — per-link chaos is not
        defined across partition boundaries.

    Attributes
    ----------
    last_boundary_frames : int
        Frames shipped across partition boundaries by the last :meth:`run`.
    last_sync_rounds : int
        Lookahead windows the hub granted during the last :meth:`run`.
    last_island_cpu_seconds : list of float
        Whole-process CPU seconds per worker island (one entry per island
        per family run), as reported at collect time.
    last_hub_cpu_seconds : float
        The hub process's CPU seconds (core island plus frame routing).
    last_critical_path_seconds : float
        Hub CPU plus the slowest island's CPU, summed over families — the
        projected wall-clock on a host with ``partitions + 1`` cores (see
        ``docs/SCALING.md``); on a single-core host the measured wall is
        the sum of all islands instead.
    """

    def __init__(
        self,
        profiles: Optional[Sequence[DeviceProfile]] = None,
        seed: int = 0,
        partitions: int = 1,
        **survey_kwargs: Any,
    ):
        if survey_kwargs.get("impairment") is not None or survey_kwargs.get("faults"):
            raise PartitionError(
                "partitioned campaigns do not support impairment or faults: "
                "per-link chaos is not defined across partition boundaries"
            )
        self.partitions = max(1, int(partitions))
        self._survey = SurveyRunner(profiles=profiles, seed=seed, **survey_kwargs)
        self.profiles = self._survey.profiles
        self.seed = seed
        self.last_elapsed: Optional[float] = None
        self.last_skipped_cells: int = 0
        self.last_boundary_frames: int = 0
        self.last_sync_rounds: int = 0
        self.last_island_cpu_seconds: List[float] = []
        self.last_hub_cpu_seconds: float = 0.0
        self.last_critical_path_seconds: float = 0.0

    #: Partitioned campaigns run chaos-free (``__init__`` rejects chaos).
    impairment = None
    faults = ()

    @property
    def knobs(self) -> Dict[str, Any]:
        """The resolved campaign knobs (the internal survey runner's)."""
        return self._survey.knobs

    def fingerprint(self) -> str:
        """The campaign fingerprint (identical to the survey's)."""
        return self._survey.fingerprint()

    def _validate(self, tests: Optional[Sequence[str]]) -> List[registry.ExperimentFamily]:
        """Resolve the selection to partitionable families (or raise)."""
        names = tests if tests is not None else registry.partitionable_names()
        families = []
        for name in names:
            family = registry.get(name)
            if family is None:
                raise PartitionError(
                    f"unknown experiment family {name!r}; registered families "
                    f"are: {', '.join(registry.runnable_names())}"
                )
            if not family.partitionable:
                raise PartitionError(
                    f"family {name!r} is not partitionable; run it through the "
                    "survey engine instead (drop --partitions or pick from: "
                    + ", ".join(registry.partitionable_names())
                )
            families.append(family)
        if not families:
            raise PartitionError("no partitionable families selected")
        return families

    def _run_single(self, family: registry.ExperimentFamily, profiles) -> _PartitionedOutcome:
        """The ``--partitions 1`` reference engine: one simulation, inline."""
        survey = self._survey
        cpu_start = time.process_time()
        hooks = family.partition_factory(survey.knobs)
        bed = hooks.build_full(profiles, self.seed, fastpath=survey.fastpath)
        if survey.family_timeout is not None:
            bed.sim.watchdog_limit = bed.sim.now + survey.family_timeout
        mapping = family.probe_factory(survey.knobs)(bed)
        stats = SimStats()
        stats.events_processed = bed.sim.events_processed
        stats.fastpath_events_saved = bed.sim.fastpath_events_saved
        stats.fastpath_windows = bed.sim.fastpath_windows
        stats.stale_purges = bed.sim.stale_purges
        stats.stale_entries_purged = bed.sim.stale_entries_purged
        cells = {
            tag: family.encode(cell) for tag, cell in family.cells_of(mapping).items()
        }
        return _PartitionedOutcome(
            cells=cells,
            stats=stats,
            hub_cpu_seconds=time.process_time() - cpu_start,
        )

    def run(self, tests: Optional[Sequence[str]] = None) -> SurveyResults:
        """Run the selected partitionable families over the population.

        Families run sequentially; each family's topology is partitioned
        across ``partitions`` worker processes (the hub simulates the core
        island between window grants).  With a store, cells persist as each
        family completes and ``resume=True`` rebuilds the topology over
        only the devices whose cells are missing — valid precisely because
        partitionable cells are population-independent.

        Returns
        -------
        SurveyResults
            Families keyed like the survey's; ``stats`` carries the summed
            island counters with ``jobs=partitions``.
        """
        survey = self._survey
        families = self._validate(tests)
        selected = [family.name for family in families]
        store: Optional[CampaignStore] = None
        to_run: Dict[str, List[DeviceProfile]] = {
            family.name: list(self.profiles) for family in families
        }
        self.last_skipped_cells = 0
        self.last_boundary_frames = 0
        self.last_sync_rounds = 0
        self.last_island_cpu_seconds = []
        self.last_hub_cpu_seconds = 0.0
        self.last_critical_path_seconds = 0.0
        if survey.store_dir is not None:
            fingerprint = survey.store_key or survey.fingerprint()
            survey.store_key = fingerprint
            store = CampaignStore.create_or_open(
                survey.store_dir, fingerprint, meta=survey._campaign_meta(selected)
            )
            if survey.resume:
                for family in families:
                    missing = [
                        profile
                        for profile in self.profiles
                        if family.name not in store.completed_families(profile.tag)
                    ]
                    self.last_skipped_cells += len(self.profiles) - len(missing)
                    to_run[family.name] = missing
        stats = SimStats(jobs=self.partitions)
        decoded: Dict[str, Dict[str, Any]] = {}
        started = time.perf_counter()
        try:
            for family in families:
                profiles = to_run[family.name]
                if not profiles:
                    continue
                numbered = [
                    (index, profile)
                    for index, profile in enumerate(self.profiles, start=1)
                    if profile in profiles
                ]
                family_started = time.perf_counter()
                if self.partitions == 1:
                    outcome = self._run_single(family, profiles)
                else:
                    hub = _Hub(
                        family,
                        survey.knobs,
                        numbered,
                        self.seed,
                        self.partitions,
                        survey.fastpath,
                        survey.family_timeout,
                    )
                    outcome = hub.run()
                wall = time.perf_counter() - family_started
                self.last_boundary_frames += outcome.boundary_frames
                self.last_sync_rounds += outcome.sync_rounds
                self.last_island_cpu_seconds.extend(outcome.island_cpu_seconds)
                self.last_hub_cpu_seconds += outcome.hub_cpu_seconds
                self.last_critical_path_seconds += outcome.critical_path_seconds
                stats.note_family(
                    family.name,
                    wall,
                    outcome.stats.events_processed,
                    saved=outcome.stats.fastpath_events_saved,
                    windows=outcome.stats.fastpath_windows,
                )
                stats.wall_seconds += wall
                stats.stale_purges += outcome.stats.stale_purges
                stats.stale_entries_purged += outcome.stats.stale_entries_purged
                if store is not None:
                    for tag, payload in outcome.cells.items():
                        store.save_cell(tag, family.name, payload)
                decoded[family.name] = {
                    tag: family.decode(payload)
                    for tag, payload in outcome.cells.items()
                }
        finally:
            self.last_elapsed = time.perf_counter() - started
        if store is not None:
            results = store.load_results(
                tags=[profile.tag for profile in self.profiles], families=selected
            )
        else:
            results = SurveyResults(families=decoded)
        results.stats = stats
        return results
