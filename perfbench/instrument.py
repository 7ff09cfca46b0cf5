"""Cell clock and span recorder, installed from outside the program.

Everything here wraps public entry points of ``repro`` at class or module
level; nothing in ``src/`` knows it is being measured.  Two levels:

* :func:`install_cell_clock` (every campaign): wraps
  ``SurveyRunner.run_shard`` and ``CampaignStore.save_cell`` so each
  ``(subject, family)`` cell gets a wall time, and ``run_shards`` so the
  driver knows when the first shard starts.  One wrapper call per cell or
  shard, so the untraced campaign is the program as users run it.
* :func:`install_layers` (the traced run only): a span around each layer
  entry point listed in :data:`SPAN_POINTS`, plus instance registries whose
  counters are read when a cell closes.

A span's *self time* is its duration minus the time covered by its child
spans.  Spans are not kept one by one (a survey makes millions): each
closes into the bucket of the cell it ran in, keyed ``layer|entry point``,
as calls, self seconds and total seconds, so every span of one cell shares
that cell's id.  A cell
closes when its store cell is saved; spans outside any shard land in the
driver's ``campaign`` bucket.  The sum of all self times equals the summed
duration of the root spans (``SurveyRunner.run`` in the driver, one
``run_shard`` per worker-run shard), which the benchmark's tests check.

The flight recorder (``repro.obs``) is deliberately not used: a non-None
``sim.bus`` turns the eager fast path off, so a TraceBus run would time a
different engine.  These wrappers never touch the bus.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Optional

clock = time.perf_counter

#: Bucket key of the outermost bed builds (calls, -, seconds).  Span keys
#: are ``layer|entry point``; this key has no ``|`` because it is no span.
OUTERMOST_BUILDS = "testbed.outermost_builds"


class SetupDone(Exception):
    """Raised at the first shard start of a set-up-only campaign."""


class Recorder:
    """Per-process span and cell state (a forked worker resets its copy)."""

    def __init__(self, traced: bool = False, setup_only: bool = False):
        self.traced = traced
        self.setup_only = setup_only
        self.pid = os.getpid()
        self.first_shard_at: Optional[float] = None
        #: Driver side: one record per shard outcome seen by run_shards.
        self.shards: List[Dict[str, Any]] = []
        self.specs = 0
        self.serial_runs = 0
        self.retries = 0
        self.run_shard_calls = 0
        self._reset_process_state()
        self.driver_bucket = self.bucket

    def _reset_process_state(self) -> None:
        self.stack: List[List[float]] = []
        self.bucket: Dict[str, List[float]] = {}
        self.root_wall = 0.0
        self.spans = 0
        self.mark = 0.0
        self.cells: List[Dict[str, Any]] = []
        self.objects: Dict[str, List[Any]] = {kind: [] for kind in COUNTED_CLASSES}
        self.in_shard = False
        self.building = False

    # -- spans ----------------------------------------------------------------

    def close_span(self, key: str, start: float, slot: List[float]) -> float:
        """Account one finished span (the hot wrapper inlines this)."""
        duration = clock() - start
        stack = self.stack
        stack.pop()
        if stack:
            stack[-1][0] += duration
        else:
            self.root_wall += duration
        entry = self.bucket.get(key)
        if entry is None:
            entry = self.bucket[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration - slot[0]
        entry[2] += duration
        self.spans += 1
        return duration

    # -- cells ----------------------------------------------------------------

    def shard_begin(self) -> None:
        if os.getpid() != self.pid:
            # A forked pool worker inherits the driver's open spans; its
            # shards are roots of their own timeline.
            self.pid = os.getpid()
            self._reset_process_state()
            self.driver_bucket = self.bucket
        self.in_shard = True
        self.outer_bucket = self.bucket
        self.bucket = {}
        self.cells = []
        self.mark = clock()

    def close_cell(self, subject: str, family: str) -> None:
        now = clock()
        cell: Dict[str, Any] = {"cell": f"{subject}/{family}", "s": now - self.mark}
        if self.traced:
            cell["layers"] = self.bucket
            cell["counters"] = self.harvest()
            self.bucket = {}
        self.cells.append(cell)
        self.mark = now

    def shard_end(self, wall: float) -> Dict[str, Any]:
        info: Dict[str, Any] = {
            "pid": os.getpid(),
            "wall": wall,
            "cells": self.cells,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if self.traced:
            info["tail"] = self.bucket
            info["counters"] = self.harvest()
            if not self.stack:  # a worker: hand over its root time and spans
                info["root_wall"] = self.root_wall
                info["spans"] = self.spans
                self.root_wall = 0.0
                self.spans = 0
        self.bucket = self.outer_bucket
        self.cells = []
        self.in_shard = False
        return info

    def harvest(self) -> Dict[str, float]:
        """Read and drop the counters of every object built since the last cell."""
        totals: Dict[str, float] = {}
        for kind, objects in self.objects.items():
            read = COUNTED_CLASSES[kind][2]
            for obj in objects:
                for name, value in read(obj).items():
                    totals[name] = totals.get(name, 0) + value
            objects.clear()
        return totals


def _link_counters(link) -> Dict[str, int]:
    dropped = sum(end.frames_dropped for end in (link.endpoint_a, link.endpoint_b) if end is not None)
    return {"frames_carried": link.frames_carried, "frames_dropped": dropped}


def _nat_counters(nat) -> Dict[str, int]:
    return {
        "bindings_created": nat.bindings_created,
        "bindings_expired": nat.bindings_expired,
        "bindings_refused": nat.bindings_refused,
    }


def _forwarding_counters(engine) -> Dict[str, int]:
    return {"fwd_drops": sum(engine.dropped.values())}


def _tcp_counters(conn) -> Dict[str, int]:
    return {"tcp_segments": conn.segments_sent, "tcp_retransmits": conn.retransmitted_segments}


def _allocator_counters(allocator) -> Dict[str, int]:
    return {"blocks_allocated": allocator.blocks_allocated}


def _task_counters(_task) -> Dict[str, int]:
    return {"tasks": 1}


#: kind -> (module, class, counter reader); instances register on __init__.
COUNTED_CLASSES: Dict[str, tuple] = {
    "link": ("repro.netsim.link", "Link", _link_counters),
    "nat": ("repro.gateway.nat", "NatEngine", _nat_counters),
    "forwarding": ("repro.gateway.forwarding", "ForwardingEngine", _forwarding_counters),
    "tcp": ("repro.protocols.tcp", "TcpConnection", _tcp_counters),
    "allocator": ("repro.cgn.node", "PortBlockAllocator", _allocator_counters),
    "task": ("repro.core.runtime", "SimTask", _task_counters),
}

#: (module, attribute path, layer) of every traced entry point.  Functions
#: (no dot in the path) are patched in their defining module and in every
#: ``repro`` module that imported them by name.
SPAN_POINTS = [
    ("repro.netsim.node", "Interface.transmit", "netsim"),
    ("repro.netsim.node", "Interface.deliver", "netsim"),
    ("repro.netsim.sim", "Simulation.run", "netsim"),
    ("repro.gateway.device", "HomeGateway.receive_frame", "gateway"),
    ("repro.gateway.nat", "NatEngine.lookup_or_create", "gateway"),
    ("repro.gateway.forwarding", "ForwardingEngine.forward", "gateway"),
    ("repro.cgn.node", "PortBlockAllocator.allocate", "cgn"),
    ("repro.protocols.stack", "Host.receive_frame", "protocols"),
    ("repro.protocols.stack", "Host.send_ip", "protocols"),
    ("repro.packets.checksum", "checksum_of_parts", "packets"),
    ("repro.packets.clone", "clone_packet", "packets"),
    ("repro.core.runtime", "run_tasks", "core.runtime"),
    ("repro.core.parallel", "run_shards", "core.parallel"),
    ("repro.core.store", "CampaignStore.load_results", "core.store"),
    ("repro.workload.generator", "SegmentWindow._open_flow", "workload"),
    ("repro.workload.generator", "SegmentWindow._send", "workload"),
    ("repro.workload.generator", "WorkloadGenerator.schedule_window", "workload"),
    ("repro.workload.families", "WorkloadMixProbe.run_all", "workload"),
    ("repro.traversal.matrix", "PairProbe.run_all", "traversal"),
    ("repro.traversal.matrix", "_PairPeer.allocate_relay", "traversal"),
    ("repro.traversal.stun", "StunServer._serve", "traversal"),
    ("repro.traversal.stun", "StunClient.request", "traversal"),
    ("repro.traversal.stun", "StunClient._on_datagram", "traversal"),
    ("repro.traversal.relay", "RelayServer._on_control", "traversal"),
]

#: Methods that return a per-socket callback; the callback gets the span.
CALLBACK_FACTORIES = [
    ("repro.workload.generator", "WorkloadServer._handler", "workload"),
    ("repro.workload.generator", "SegmentWindow._receiver", "workload"),
]

#: Bed builders: ``Testbed.build`` and the builders behind the registry's
#: ``testbed_factory`` hooks.  Only the outermost build of a nest counts.
BUILDERS = [
    ("repro.testbed.testbed", "Testbed"),
    ("repro.cgn.topology", "Nat444Topology"),
    ("repro.traversal.matrix", "PairTopology"),
]


def _span(rec: Recorder, key: str, fn: Callable) -> Callable:
    """Wrap ``fn`` in a span keyed ``layer|entry`` (``Recorder.close_span``, inlined)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        slot = [0.0]
        stack = rec.stack
        stack.append(slot)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            else:
                rec.root_wall += duration
            entry = rec.bucket.get(key)
            if entry is None:
                entry = rec.bucket[key] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration - slot[0]
            entry[2] += duration
            rec.spans += 1

    return wrapper


def _replace_function(module_name: str, name: str, make: Callable[[Callable], Callable]) -> None:
    """Patch a function in its module and wherever ``repro`` imported it."""
    module = importlib.import_module(module_name)
    original = getattr(module, name)
    wrapper = make(original)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded is None or not (loaded_name == "repro" or loaded_name.startswith("repro.")):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)


def _replace_method(module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
    cls_name, method = path.split(".")
    cls = getattr(importlib.import_module(module_name), cls_name)
    raw = cls.__dict__[method]
    if isinstance(raw, classmethod):
        setattr(cls, method, classmethod(make(raw.__func__)))
    else:
        setattr(cls, method, make(raw))


def install_cell_clock(rec: Recorder) -> None:
    """Per-cell wall times, shard records and the first-shard stamp."""
    from repro.core import survey
    from repro.core.store import CampaignStore

    run_shard = survey.SurveyRunner.run_shard

    @functools.wraps(run_shard)
    def timed_run_shard(self, *args, **kwargs):
        rec.shard_begin()
        slot = [0.0]
        rec.stack.append(slot)
        start = clock()
        try:
            outcome = run_shard(self, *args, **kwargs)
        finally:
            wall = rec.close_span("core.survey|SurveyRunner.run_shard", start, slot)
            info = rec.shard_end(wall)
        outcome[1].perfbench = info
        return outcome

    survey.SurveyRunner.run_shard = timed_run_shard

    save_cell = CampaignStore.save_cell

    @functools.wraps(save_cell)
    def timed_save_cell(self, subject, family, payload):
        if rec.traced:
            slot = [0.0]
            rec.stack.append(slot)
            start = clock()
            try:
                save_cell(self, subject, family, payload)
            finally:
                rec.close_span("core.store|CampaignStore.save_cell", start, slot)
        else:
            save_cell(self, subject, family, payload)
        if rec.in_shard:
            rec.close_cell(subject, family)

    CampaignStore.save_cell = timed_save_cell

    run_shards = survey.run_shards

    @functools.wraps(run_shards)
    def observed_run_shards(specs, *args, **kwargs):
        if rec.first_shard_at is None:
            rec.first_shard_at = clock()
        if rec.setup_only:
            raise SetupDone()
        rec.specs += len(specs)
        outcomes = run_shards(specs, *args, **kwargs)
        for outcome in outcomes:
            if isinstance(outcome, tuple):
                rec.shards.append(getattr(outcome[1], "perfbench", {}))
        return outcomes

    survey.run_shards = observed_run_shards


def install_layers(rec: Recorder) -> None:
    """Spans on every layer entry point plus the instance registries.

    Must run after every ``repro`` module is imported (so importers of the
    patched functions are found), before any bed is built (so bound
    methods cached at bring-up are the wrapped ones) and before
    :func:`install_cell_clock` (which then wraps the spanned functions).
    """
    from repro.core import parallel, registry, survey

    registry.ensure_loaded()
    for module_name in {module for module, _path, _layer in SPAN_POINTS}:
        importlib.import_module(module_name)

    for module_name, path, layer in SPAN_POINTS:
        make = functools.partial(_span, rec, f"{layer}|{path}")
        if "." in path:
            _replace_method(module_name, path, make)
        else:
            _replace_function(module_name, path, make)
    survey.SurveyRunner.run = _span(rec, "core.survey|SurveyRunner.run", survey.SurveyRunner.run)

    # CGN nodes are HomeGateway subclasses: give their frames their own layer.
    from repro.cgn.node import CgnNode
    from repro.gateway.device import HomeGateway

    CgnNode.receive_frame = _span(rec, "cgn|CgnNode.receive_frame", HomeGateway.receive_frame.__wrapped__)

    for module_name, path, layer in CALLBACK_FACTORIES:

        def make(factory, key=f"{layer}|{path}"):
            @functools.wraps(factory)
            def wrapped_factory(*args, **kwargs):
                return _span(rec, key, factory(*args, **kwargs))

            return wrapped_factory

        _replace_method(module_name, path, make)

    for module_name, cls_name in BUILDERS:
        key = f"testbed|{cls_name}.build"
        _replace_method(module_name, f"{cls_name}.build", functools.partial(_build_span, rec, key))

    for kind, (module_name, cls_name, _read) in COUNTED_CLASSES.items():
        _replace_method(module_name, f"{cls_name}.__init__", functools.partial(_registering_init, rec, kind))

    guarded = parallel._run_shard_guarded

    @functools.wraps(guarded)
    def counted_guarded(spec, *args, **kwargs):
        rec.serial_runs += 1
        before = rec.run_shard_calls
        try:
            return guarded(spec, *args, **kwargs)
        finally:
            rec.retries += max(0, rec.run_shard_calls - before - 1)

    parallel._run_shard_guarded = counted_guarded

    # ``functools.wraps`` keeps the module and qualified name, so the pool
    # still pickles this wrapper by reference as ``parallel._run_shard``.
    inner = parallel._run_shard

    @functools.wraps(inner)
    def counted_run_shard(spec):
        rec.run_shard_calls += 1
        return inner(spec)

    parallel._run_shard = counted_run_shard


def _build_span(rec: Recorder, key: str, build: Callable) -> Callable:
    spanned = _span(rec, key, build)

    @functools.wraps(build)
    def outermost(*args, **kwargs):
        if rec.building:
            return spanned(*args, **kwargs)
        rec.building = True
        start = clock()
        try:
            return spanned(*args, **kwargs)
        finally:
            rec.building = False
            entry = rec.bucket.setdefault(OUTERMOST_BUILDS, [0, 0.0, 0.0])
            entry[0] += 1
            entry[2] += clock() - start

    return outermost


def _registering_init(rec: Recorder, kind: str, init: Callable) -> Callable:
    @functools.wraps(init)
    def registering(self, *args, **kwargs):
        init(self, *args, **kwargs)
        rec.objects[kind].append(self)

    return registering
