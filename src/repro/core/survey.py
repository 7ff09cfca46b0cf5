"""Run the paper's entire measurement campaign in one call.

:class:`SurveyRunner` executes every experiment family against the device
population.  The family menu is no longer hard-coded here: the runner
iterates the :mod:`experiment registry <repro.core.registry>`, so a family
registered by any core module is measured, merged, persisted and reported
without touching this file.  The campaign is sharded per *subject*
(:class:`~repro.core.registry.Subject`): device families shard one device
per shard — exactly the pre-subject schedule, same tags, same seeds — while
non-device families (the pairwise ``traversal_matrix``) enumerate their
subjects and get one shard each.  Every shard builds its own fresh testbed
per family (deterministic isolation — residual NAT state from one test
family can never contaminate another, and no subject shares a simulation
with another), seeded from the campaign seed and the subject tag.  Shards
run serially by default, or across worker processes with ``jobs=N``; both
schedules produce field-for-field identical results.

With ``store_dir`` set, every completed ``(subject, family)`` cell is
persisted to a :class:`~repro.core.store.CampaignStore` as it finishes —
from inside the worker process, so a campaign killed at any point keeps
its completed work.  ``resume=True`` skips cells already in the store and
re-runs only the missing ones; because each family builds a fresh testbed
from the shard seed, a resumed campaign is field-for-field (and on disk,
byte-for-byte) identical to an uninterrupted one, under any ``jobs=N``.

Within a shard the paper's parallel/serial discipline per test is preserved:
a family probe still runs its measurement tasks concurrently in simulated
time, and the serial-only throughput test (§3.1) keeps its bottleneck queue
alone in its own simulation.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import registry
from repro.core.parallel import (
    ShardError,
    ShardFailure,
    ShardSpec,
    merge_shards,
    run_shards,
    shard_seed,
)
from repro.core.stats import SimStats
from repro.core.registry import Subject
from repro.core.store import CampaignStore, campaign_fingerprint, ensure_distinct_dirnames
from repro.devices import catalog_profiles
from repro.devices.profile import DeviceProfile
from repro.gateway.faults import FaultSpec
from repro.netsim.impair import Impairment
from repro.obs import MetricsRegistry, ObsConfig, ShardObserver
from repro.testbed.testbed import Testbed

registry.ensure_loaded()

#: Default per-family virtual-time watchdog: far beyond any legitimate
#: family (TCP-1 caps at 24 h + margin), tight enough to catch a simulation
#: that a pathological impairment has sent spinning.
DEFAULT_FAMILY_TIMEOUT = 30 * 24 * 3600.0


class SurveyResults:
    """Everything the campaign produced, keyed the way the paper reports it.

    Family results live in one generic container — ``families`` maps each
    registered family name to its canonical result mapping (device-keyed
    for most families, service-first for UDP-5).  The historical per-family
    attributes (``results.udp1`` …) remain as properties over that
    container, so existing callers and tests read unchanged.

    ``stats``/``metrics`` carry the run's performance counters; they are
    excluded from equality so that two runs of the same campaign (e.g.
    serial vs parallel, or resumed vs uninterrupted) compare equal on what
    was *measured*, not on how fast it went.
    """

    def __init__(
        self,
        families: Optional[Mapping[str, Mapping]] = None,
        errors: Optional[Sequence[ShardError]] = None,
        stats: Optional[SimStats] = None,
        metrics: Optional[MetricsRegistry] = None,
        **family_results: Mapping,
    ):
        self.families: Dict[str, Dict] = {}
        for name, mapping in (families or {}).items():
            self.families[name] = dict(mapping)
        for name, mapping in family_results.items():
            if registry.get(name) is None:
                raise TypeError(
                    f"unknown experiment family {name!r}; registered families: "
                    f"{', '.join(registry.family_names())}"
                )
            self.families[name] = dict(mapping)
        #: Shards that failed, in catalog order.  Part of equality (minus
        #: retry counts) — a campaign that lost a device is not equal to one
        #: that didn't, under any ``jobs``.
        self.errors: List[ShardError] = list(errors or [])
        self.stats: Optional[SimStats] = stats
        #: Merged observability metrics when the campaign ran with
        #: ``metrics=True`` (see :mod:`repro.obs`); excluded from equality
        #: like ``stats`` — the registry records *how much happened*, not
        #: what was measured.
        self.metrics: Optional[MetricsRegistry] = metrics

    def family(self, name: str) -> Dict:
        """One family's canonical result mapping (empty when absent)."""
        return self.families.get(name, {})

    def set_family(self, name: str, mapping: Mapping) -> None:
        """Replace one family's result mapping."""
        self.families[name] = dict(mapping)

    @property
    def complete(self) -> bool:
        """True when every shard produced a result."""
        return not self.errors

    def _measured(self) -> Dict[str, Dict]:
        return {name: mapping for name, mapping in self.families.items() if mapping}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurveyResults):
            return NotImplemented
        return self._measured() == other._measured() and self.errors == other.errors

    def __repr__(self) -> str:
        populated = ", ".join(f"{name}:{len(mapping)}" for name, mapping in self._measured().items())
        return f"SurveyResults({populated or 'empty'}, errors={len(self.errors)})"


def _family_property(name: str) -> property:
    def getter(self: SurveyResults) -> Dict:
        """Read the family mapping (creating it empty on first access)."""
        return self.families.setdefault(name, {})

    def setter(self: SurveyResults, value: Mapping) -> None:
        """Replace the family mapping."""
        self.families[name] = value if isinstance(value, dict) else dict(value)

    return property(getter, setter, doc=f"Back-compat accessor for families[{name!r}].")


for _family in registry.families():
    setattr(SurveyResults, _family.name, _family_property(_family.name))


class SurveyRunner:
    """Configurable full-campaign driver.

    One instance describes a whole measurement campaign: the device
    population, the campaign seed, per-family knobs (repetitions, cutoffs,
    transfer sizes — any knob a family module declares, see
    :func:`~repro.core.registry.register_knob`), the chaos configuration (``impairment``/``faults``),
    the execution schedule (``jobs``), the durable result store
    (``store_dir``/``resume`` — see :mod:`repro.core.store`), and what the
    flight recorder should capture (``trace_dir``/``pcap_dir``/``metrics``
    — see :mod:`repro.obs`).  :meth:`run` executes the selected families
    and returns a :class:`SurveyResults`.

    The determinism contract: results (and, when recording, trace/pcap
    bytes, the metrics registry and the store's cell bytes) are a pure
    function of ``(profiles, seed)`` — independent of ``jobs``, of which
    other devices share the population, of whether a recorder was attached,
    and of whether the campaign was interrupted and resumed.

    Example::

        runner = SurveyRunner(seed=7, jobs=4, store_dir="out/campaign")
        results = runner.run(tests=["udp1", "tcp2"])
        results.udp1["je"].summary().median   # ≈ 30 s
        # later, after a crash: resume=True re-runs only missing cells
    """

    #: Every directly runnable experiment family, in execution order
    #: (registry-driven; kept as an attribute for back-compat).
    ALL_TESTS = registry.runnable_names()

    def __init__(
        self,
        profiles: Optional[Sequence[DeviceProfile]] = None,
        seed: int = 0,
        jobs: int = 1,
        fastpath: bool = True,
        impairment: Optional[Impairment] = None,
        faults: Sequence[FaultSpec] = (),
        shard_retries: int = 1,
        family_timeout: Optional[float] = DEFAULT_FAMILY_TIMEOUT,
        trace_dir: Optional[str] = None,
        pcap_dir: Optional[str] = None,
        metrics: bool = False,
        store_dir: Optional[str] = None,
        resume: bool = False,
        store_key: Optional[str] = None,
        **knobs: Any,
    ):
        self.profiles = list(profiles if profiles is not None else catalog_profiles())
        tags = [profile.tag for profile in self.profiles]
        if len(set(tags)) != len(tags):
            raise ValueError(f"duplicate device tags in survey population: {tags}")
        self.seed = seed
        #: The per-family measurement knobs (repetitions, cutoffs, CGN
        #: sizes …), validated and coerced against their
        #: :class:`~repro.core.registry.Knob` declarations, defaults filled
        #: in.  Families, shard config, fingerprint and store manifest all
        #: read this one mapping.
        self.knobs: Dict[str, Any] = registry.knob_values(knobs)
        self.jobs = max(1, int(jobs))
        #: Run the eager event-elision kernels (``--no-fastpath`` clears it).
        #: Results are engine-independent by construction, so this knob is
        #: deliberately *not* part of the campaign fingerprint: cells written
        #: by either engine are interchangeable, and property tests hold the
        #: two engines to byte-identical store cells.
        self.fastpath = bool(fastpath)
        #: Link impairment applied to every family testbed (None = clean).
        self.impairment = impairment
        #: Gateway faults scheduled on every family testbed, post bring-up.
        self.faults = tuple(faults)
        #: Serial retries granted to a shard lost to infrastructure errors.
        self.shard_retries = max(0, int(shard_retries))
        #: Virtual seconds a single family may run before its shard is
        #: declared hung (None disables the watchdog).
        self.family_timeout = family_timeout
        #: What the flight recorder should capture (nothing by default); see
        #: :mod:`repro.obs`.  Carried as plain strings/bool so the shard
        #: config stays trivially picklable.
        self.obs = ObsConfig(trace_dir=trace_dir, pcap_dir=pcap_dir, metrics=metrics)
        #: Directory of the durable campaign store (None = in-memory only).
        self.store_dir = store_dir
        #: With ``store_dir``: skip cells already persisted there.
        self.resume = resume
        #: Campaign config hash the store cells are stamped with.  Computed
        #: from this runner's own configuration when not supplied; shard
        #: workers receive the campaign-level hash through the shard config
        #: (their single-device fingerprint would differ).
        self.store_key = store_key
        #: Elapsed wall-clock of the last :meth:`run` (set even when shards fail).
        self.last_elapsed: Optional[float] = None
        #: Cells skipped by the last resumed :meth:`run`.
        self.last_skipped_cells: int = 0

    def fingerprint(self) -> str:
        """Content hash of everything that determines this campaign's cells.

        Selection knobs (which subjects run, not how) stay out, so a subject
        slice resumes into, and stays comparable with, the full campaign.
        """
        knobs = {k.name: self.knobs[k.name] for k in registry.knobs() if not k.selection}
        knobs["family_timeout"] = self.family_timeout
        return campaign_fingerprint(
            self.profiles, self.seed, knobs, impairment=self.impairment, faults=self.faults
        )

    def _fresh_testbed(
        self,
        family: Optional[registry.ExperimentFamily] = None,
        subject: Optional[Subject] = None,
        bed_seed: Optional[int] = None,
    ):
        fastpath = self.fastpath and not self.faults
        seed = self.seed if bed_seed is None else bed_seed
        if family is not None and family.testbed_factory is not None:
            # The family measures its own topology (e.g. the CGN families
            # run a NAT444 chain); build it from the same (profiles, seed)
            # contract so shard determinism carries over unchanged.  The
            # factory contract predates the engine flag, so it lands on the
            # built bed below (bring-up there runs eager; harmless, since the
            # engines are byte-identical and bring-up settles before chaos).
            # Non-device families use the subject overload: one bed per
            # enumerated subject, built from (subject, seed).
            build = family.testbed_factory(self.knobs)
            if subject is not None and subject.kind != "device":
                bed = build(subject, seed)
            else:
                bed = build(self.profiles, seed)
        else:
            bed = Testbed.build(self.profiles, seed=self.seed, fastpath=fastpath)
        # Chaos goes in *after* bring-up: DHCP configuration stays clean, and
        # impairment/fault clocks are anchored at measurement start, so a
        # fault hits each family at the same virtual offset regardless of
        # how long its bring-up took.
        if self.impairment is not None and not self.impairment.is_null:
            bed.apply_impairment(self.impairment)
        if self.faults:
            bed.schedule_faults(self.faults)
        # Fault campaigns run the staged engine throughout: a crash flush
        # must see every queued packet as a heap-visible entity to drop it
        # the way the paper's power-cycled gateways do (the eager kernels
        # have already consumed rate tokens for admitted packets and cannot
        # un-consume them).
        bed.sim.fastpath = fastpath
        return bed

    def _shard_config(self) -> Dict:
        return dict(
            self.knobs,
            fastpath=self.fastpath,
            impairment=self.impairment,
            faults=self.faults,
            family_timeout=self.family_timeout,
            trace_dir=self.obs.trace_dir,
            pcap_dir=self.obs.pcap_dir,
            metrics=self.obs.metrics,
            store_dir=self.store_dir,
            store_key=self.store_key or (self.fingerprint() if self.store_dir else None),
        )

    def _validate(self, tests: Optional[Sequence[str]]) -> List[str]:
        """Resolve the family selection, failing with the registered menu."""
        known = registry.runnable_names()
        # No explicit selection = the paper's own menu; opt-in families
        # (``default_selected=False``, e.g. the CGN pair) must be named.
        selected = list(tests if tests is not None else registry.default_names())
        unknown = [name for name in selected if name not in known]
        if unknown:
            raise ValueError(
                f"unknown experiment families: {sorted(set(unknown))}; "
                f"registered families are: {', '.join(known)}"
            )
        return selected

    def _campaign_meta(
        self, selected: Sequence[str], subjects: Optional[Sequence[str]] = None
    ) -> Dict:
        return {
            "devices": [profile.tag for profile in self.profiles],
            # Every subject tag the campaign will produce cells for (device
            # tags plus enumerated pair/segment tags).  Kept alongside the
            # device list so legacy tooling reading "devices" still works.
            "subjects": list(subjects)
            if subjects is not None
            else [profile.tag for profile in self.profiles],
            "seed": self.seed,
            "families": list(selected),
            "knobs": self.knobs,
            "impairment": self.impairment.describe() if self.impairment is not None else None,
            "faults": [fault.describe() for fault in self.faults],
        }

    def _shard_plan(self, selected: Sequence[str]) -> List[Tuple[Subject, List[str]]]:
        """The campaign's shard schedule: ordered ``(subject, families)``.

        Device families keep the pre-subject schedule — one shard per
        profile, in population order, carrying every selected device family
        (same tags, therefore same derived seeds, therefore byte-identical
        cells).  Each non-device family then appends one shard per
        enumerated subject, in the family's own enumeration order.
        """
        device_families = []
        other_families = []
        for name in selected:
            descriptor = registry.get(name)
            if descriptor is not None and descriptor.subject_kind != "device":
                other_families.append(descriptor)
            else:
                device_families.append(name)
        plan: List[Tuple[Subject, List[str]]] = []
        if device_families:
            for profile in self.profiles:
                plan.append((Subject.device(profile), list(device_families)))
        for descriptor in other_families:
            for subject in descriptor.subjects_of(self.profiles, self.knobs):
                plan.append((subject, [descriptor.name]))
        return plan

    def run(self, tests: Optional[Sequence[str]] = None) -> SurveyResults:
        """Run the selected experiment families (all by default).

        The campaign is sharded per subject with tag-derived seeds, so the
        result is independent of ``jobs`` and of which other subjects are in
        the campaign.  A failing shard does not abort the campaign: its
        :class:`~repro.core.parallel.ShardError` lands in
        ``SurveyResults.errors`` (schedule order) while every other
        subject's results are kept, and timing/stats are finalized either
        way.

        With ``store_dir``, cells persist as they complete and the returned
        results are decoded from the store — the exact artifact ``repro
        report --from`` renders later.
        """
        selected = self._validate(tests)
        plan = self._shard_plan(selected)
        # Refuse ambiguous stores up front: two subject tags that sanitize
        # to the same cell directory would silently share cells.
        ensure_distinct_dirnames(subject.tag for subject, _families in plan)
        store: Optional[CampaignStore] = None
        self.last_skipped_cells = 0
        if self.store_dir is not None:
            fingerprint = self.store_key or self.fingerprint()
            self.store_key = fingerprint
            store = CampaignStore.create_or_open(
                self.store_dir,
                fingerprint,
                meta=self._campaign_meta(
                    selected, subjects=[subject.tag for subject, _families in plan]
                ),
            )
            if self.resume:
                filtered: List[Tuple[Subject, List[str]]] = []
                for subject, families in plan:
                    done = store.completed_families(subject.tag)
                    missing = [name for name in families if name not in done]
                    self.last_skipped_cells += len(families) - len(missing)
                    filtered.append((subject, missing))
                plan = filtered
        specs = [
            ShardSpec(
                subject=subject,
                seed=shard_seed(self.seed, subject.tag),
                tests=tuple(families),
                config=self._shard_config(),
            )
            for subject, families in plan
            if families
        ]
        started = time.perf_counter()
        try:
            shard_outcomes = run_shards(specs, jobs=self.jobs, retries=self.shard_retries)
        finally:
            # Set even if the executor itself blows up: timing must never
            # go stale on the failure path.
            self.last_elapsed = time.perf_counter() - started
        successes = [outcome for outcome in shard_outcomes if not isinstance(outcome, ShardError)]
        errors = [outcome for outcome in shard_outcomes if isinstance(outcome, ShardError)]
        if store is not None:
            # The store holds every completed cell — from this run's workers
            # plus all previous interrupted runs.  Decoding it is the same
            # code path `repro report --from` uses, which is what makes a
            # resumed campaign indistinguishable from an uninterrupted one.
            results = store.load_results(
                tags=[subject.tag for subject, _families in plan], families=selected
            )
        else:
            results = merge_shards(shard for shard, _stats in successes)
        results.errors = errors
        stats = SimStats(jobs=self.jobs)
        for _shard, shard_stats in successes:
            stats.merge(shard_stats)
        results.stats = stats
        if self.obs.metrics:
            # Catalog-order merge: counters add, gauges high-water, spans
            # accumulate — jobs=N lands on the same registry as jobs=1.
            metrics_registry = MetricsRegistry()
            for shard, _stats in successes:
                if shard.metrics is not None:
                    metrics_registry.merge(shard.metrics)
            results.metrics = metrics_registry
        return results

    # -- shard engine (one subject, its families; used by the workers) ------

    def run_shard(
        self, tests: Optional[Sequence[str]] = None, subject: Optional[Subject] = None
    ) -> Tuple[SurveyResults, SimStats]:
        """Run the selected families serially on this runner's population.

        This is the per-shard execution engine behind :meth:`run`; it builds
        one fresh testbed per family and records per-family wall time and
        simulator event counts.  A family that raises becomes a picklable
        :class:`~repro.core.parallel.ShardFailure` carrying the subject tag
        and family name — and the family's timing still lands in the stats,
        so partial runs account for the work they did.

        ``subject`` scopes the shard: a device subject runs the selected
        device families against the population (the pre-subject behaviour),
        while a non-device subject runs only the families whose
        ``subject_kind`` matches, against that one enumerated subject.
        Without a subject — the direct-call path — device families run as
        before, and non-device families enumerate *all* their subjects from
        the population, each on its own per-subject-seeded testbed, so a
        direct ``run_shard`` reproduces the sharded campaign exactly.

        When a store is configured, each family's cells (and its derived
        families' cells) are persisted the moment the family completes, so
        a shard killed mid-flight keeps everything it finished.
        """
        selected = self._validate(tests)
        results = SurveyResults()
        stats = SimStats()
        store: Optional[CampaignStore] = None
        if self.store_dir is not None:
            store = CampaignStore(self.store_dir, self.store_key or self.fingerprint())
        observer: Optional[ShardObserver] = None
        if self.obs.enabled:
            if subject is not None:
                device = subject.tag
            else:
                device = self.profiles[0].tag if len(self.profiles) == 1 else None
            observer = ShardObserver(self.obs, device=device)

        def failure_tag() -> str:
            if subject is not None:
                return subject.tag
            return ",".join(profile.tag for profile in self.profiles)

        def timed(
            descriptor: registry.ExperimentFamily,
            probe_call,
            bed_subject: Optional[Subject] = None,
            bed_seed: Optional[int] = None,
        ) -> Dict:
            family = descriptor.name
            bed = self._fresh_testbed(descriptor, subject=bed_subject, bed_seed=bed_seed)
            if self.family_timeout is not None:
                bed.sim.watchdog_limit = bed.sim.now + self.family_timeout
            # The observer attaches *after* bring-up: DHCP chatter stays out
            # of the trace, and emission is passive (no RNG draws, no
            # scheduling), so traced campaigns measure identically.
            if observer is not None:
                observer.begin(bed, family)
            started = time.perf_counter()
            try:
                outcome = probe_call(bed)
            except ShardFailure:
                raise
            except Exception as exc:
                raise ShardFailure(failure_tag(), family, type(exc).__name__, str(exc)) from exc
            finally:
                wall = time.perf_counter() - started
                stats.note_family(
                    family,
                    wall,
                    bed.sim.events_processed,
                    saved=bed.sim.fastpath_events_saved,
                    windows=bed.sim.fastpath_windows,
                )
                stats.wall_seconds += wall
                stats.stale_purges += bed.sim.stale_purges
                stats.stale_entries_purged += bed.sim.stale_entries_purged
                if observer is not None:
                    observer.finish(bed, family)
            return outcome

        def persist(family: registry.ExperimentFamily, mapping: Mapping) -> None:
            if store is None:
                return
            for tag, cell in family.cells_of(mapping).items():
                store.save_cell(tag, family.name, family.encode(cell))

        def measure(family: registry.ExperimentFamily) -> Optional[Dict]:
            """One family's result mapping for this shard (None = not ours)."""
            if family.subject_kind == "device":
                if subject is not None and subject.kind != "device":
                    return None
                return timed(family, family.probe_factory(self.knobs))
            # Non-device family: one fresh testbed per enumerated subject.
            if subject is not None:
                if subject.kind != family.subject_kind:
                    return None
                # Sharded path: the shard seed already encodes the subject
                # tag, so the bed is built straight from self.seed.
                enumerated = [(subject, None)]
            else:
                # Direct-call path: derive each subject's seed exactly as the
                # campaign scheduler would, so results match the sharded run.
                enumerated = [
                    (sub, shard_seed(self.seed, sub.tag))
                    for sub in family.subjects_of(self.profiles, self.knobs)
                ]
            probe = family.probe_factory(self.knobs)
            mapping: Dict[str, Any] = {}
            for sub, bed_seed in enumerated:
                family.merge_into(
                    mapping, timed(family, probe, bed_subject=sub, bed_seed=bed_seed)
                )
            return mapping

        try:
            for family in registry.families():
                if not family.runnable or family.name not in selected:
                    continue
                mapping = measure(family)
                if mapping is None:
                    continue
                results.set_family(family.name, mapping)
                persist(family, mapping)
                for derived in registry.derived_families(family.name):
                    derived_mapping: Dict[str, Any] = {}
                    for tag, cell in family.cells_of(mapping).items():
                        derived.insert(derived_mapping, tag, derived.derive(cell))
                    results.set_family(derived.name, derived_mapping)
                    persist(derived, derived_mapping)
        finally:
            # Streams must land on disk even when a family dies mid-shard:
            # a partial trace of a failed run is exactly when you want one.
            if observer is not None:
                observer.close()
                results.metrics = observer.registry
        results.stats = stats
        return results, stats
