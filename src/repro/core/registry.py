"""The experiment-family registry: one pluggable descriptor per family.

The paper's campaign is a fixed menu of experiment families (UDP-1…5,
TCP-1…4, ICMP, SCTP/DCCP, DNS).  Historically that menu was hard-coded in
five separate layers — the survey runner's dispatch, the results container,
the CLI's choice lists, and every analysis module.  This module replaces
all of that with a single registry:

* :class:`ExperimentFamily` describes one family end to end — how to build
  its probe from the campaign knobs, the type of one stored cell (from
  which the JSON codec of the on-disk :mod:`campaign store
  <repro.core.store>` is derived), how its results merge across
  per-device shards, and how ``repro probe``/``survey`` print them — the
  CLI holds no per-family code.
* :class:`ReportSection` is a render hook: a block of the markdown survey
  report owned by one or more families.  ``analysis/report.py`` iterates
  these instead of enumerating family attributes, so a family added here
  appears in reports without touching ``analysis/`` again.

Each core measurement module registers its families at import time with
:func:`register_family` / :func:`register_section`; consumers call
:func:`families`, :func:`runnable_names` or :func:`report_sections`, all
of which lazily import the family modules first (:func:`ensure_loaded`).

Derived families — UDP-4 is an *analysis* of UDP-1's observed ports, not a
measurement of its own — carry ``derived_from``/``derive`` instead of a
probe factory; the survey engine and the store recompute them from the
parent family's cells.

Campaign knobs live here too.  **Adding a knob** is one
:func:`register_knob` call in the module whose families read it: the
:class:`Knob` declaration (name, type, default, help, optional CLI flag,
selection-vs-measurement) is all there is.  ``SurveyRunner(**knobs)``
validates and coerces against it (:func:`knob_values`), the shard config,
campaign fingerprint, store manifest and ``bench`` dump carry the resolved
mapping, and the CLI generates the flag under its :class:`Tier`'s
``--<tier>`` switch — no edit to the runner, the CLI or the fingerprint.
"""

from __future__ import annotations

import importlib
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.devices.profile import DeviceProfile

__all__ = [
    "Subject",
    "ExperimentFamily",
    "ReportSection",
    "Knob",
    "Tier",
    "register_family",
    "register_section",
    "register_knob",
    "register_tier",
    "ensure_loaded",
    "families",
    "family",
    "get",
    "runnable_names",
    "default_names",
    "family_names",
    "derived_families",
    "report_sections",
    "knobs",
    "knob_values",
    "tiers",
    "partitionable_names",
]

#: Modules that register experiment families as an import side effect.
#: Adding a new family module here is the *only* central edit a new
#: experiment needs; everything else (survey dispatch, store codec,
#: report sections, CLI choices) follows from its registrations.
FAMILY_MODULES = (
    "repro.core.udp_timeouts",
    "repro.core.tcp_binding",
    "repro.core.throughput",
    "repro.core.icmp_tests",
    "repro.core.transport_support",
    "repro.core.dns_tests",
    "repro.core.options_tests",
    "repro.core.binding_rate",
    "repro.core.pmtu",
    "repro.cgn.families",
    "repro.attack.families",
    "repro.cgn.metro",
    "repro.traversal.matrix",
    "repro.workload.families",
)


@dataclass(frozen=True)
class Subject:
    """One unit of the campaign axis: what a store cell is keyed by.

    Historically the campaign axis was hard-coded to *devices* — one shard,
    one store directory, one report row per device tag.  A subject
    generalizes that: it is *anything a family measures once* — a device, an
    ordered device pair (the traversal matrix), a metro segment — carrying
    the profiles it involves and a campaign-unique ``tag``.

    Tags are the stable identity: shard seeds derive from them
    (:func:`~repro.core.parallel.shard_seed`), store cells live under their
    sanitized form (:func:`~repro.core.store.subject_dirname`), and resume
    matches completed work by them.  Device subjects use the bare device tag,
    so every pre-existing device campaign keys — and therefore measures,
    seeds and persists — exactly as before the refactor.
    """

    #: Subject kind: ``"device"``, ``"pair"``, ... — must match the
    #: ``subject_kind`` of every family run against it.
    kind: str
    #: Campaign-unique identity (seeds, store keys, report rows).
    tag: str
    #: The device profiles involved, in role order (a pair subject carries
    #: ``(profile_a, profile_b)``; a device subject just ``(profile,)``).
    profiles: Tuple["DeviceProfile", ...]
    #: Extra subject parameters as a sorted tuple of ``(key, value)`` pairs
    #: (hashable, picklable); e.g. which sides of a pair sit behind a CGN.
    params: Tuple[Tuple[str, Any], ...] = field(default=())

    @classmethod
    def device(cls, profile: "DeviceProfile") -> "Subject":
        """The canonical device subject: kind ``device``, the bare tag."""
        return cls(kind="device", tag=profile.tag, profiles=(profile,))

    def param(self, key: str, default: Any = None) -> Any:
        """Look up one subject parameter (``default`` when absent)."""
        for name, value in self.params:
            if name == key:
                return value
        return default


@dataclass(frozen=True)
class ExperimentFamily:
    """Everything the campaign machinery needs to know about one family.

    A family's results live in two orientations: the *canonical* mapping
    its probe returns (device-keyed for most, service-first for UDP-5) and
    per-device *cells* — the unit the campaign store persists, one JSON
    blob per ``(device, family)``.  ``cells``/``insert_cell`` convert
    between the two; the defaults are the identity for device-keyed
    families.
    """

    #: Registry key; also the CLI test name (``udp1``, ``transports`` …).
    name: str
    #: Execution and report position (ascending).
    order: int
    #: The type of one stored cell: a result dataclass, or the mapping a
    #: cell holds (``Dict[str, UdpTimeoutResult]`` for UDP-5's per-service
    #: cells).  The store codec is derived from it when the family
    #: registers; an annotation the codec cannot map fails registration.
    result_type: Any
    #: One-line description for CLI help and error messages.
    description: str = ""
    #: ``knobs -> run_all(bed)`` — builds the probe from the campaign's
    #: knob mapping and returns its population entry point.  ``None`` for
    #: derived families.
    probe_factory: Optional[Callable[[Mapping[str, Any]], Callable]] = None
    #: Canonical family mapping -> ``{device_tag: cell}`` (default: identity).
    cells: Optional[Callable[[Mapping[str, Any]], Dict[str, Any]]] = None
    #: Insert one device cell into a canonical mapping (default: ``m[tag]=c``).
    insert_cell: Optional[Callable[[Dict[str, Any], str, Any], None]] = None
    #: Merge one shard's canonical mapping into the campaign's (default:
    #: ``dict.update``; UDP-5 needs a nested service-first merge).
    merge_cells: Optional[Callable[[Dict[str, Any], Mapping[str, Any]], None]] = None
    #: Name of the family this one is derived from (``None`` = measured).
    derived_from: Optional[str] = None
    #: Parent cell -> derived cell (e.g. ``analyze_port_behavior``).
    derive: Optional[Callable[[Any], Any]] = None
    #: ``knobs -> build(profiles, seed)`` — families that measure something
    #: other than the paper's Figure-1 topology (the CGN families run a
    #: NAT444 chain) supply the builder for their own testbed here.  ``None``
    #: = the standard single-tier :class:`~repro.testbed.testbed.Testbed`.
    #: Non-device families get the overload ``knobs -> build(subject, seed)``:
    #: the engine builds one bed per enumerated :class:`Subject`.
    testbed_factory: Optional[Callable[[Mapping[str, Any]], Callable]] = None
    #: Included when the caller selects no families explicitly.  The paper's
    #: own menu stays the default; opt-in extensions (CGN) set ``False`` and
    #: run only when named (or via ``--cgn``).
    default_selected: bool = True
    #: What this family's cells are keyed by: ``"device"`` (the default —
    #: one cell per device profile, probes take the whole-population bed) or
    #: a non-device kind such as ``"pair"`` (one cell per enumerated
    #: :class:`Subject`; the probe and testbed factory run once per subject).
    subject_kind: str = "device"
    #: ``(profiles, knobs) -> [Subject, ...]`` — non-device families
    #: enumerate their subjects here (e.g. every ordered profile pair).
    #: Must be deterministic in its inputs: the enumeration order defines
    #: shard order, store meta and resume bookkeeping.  ``None`` for device
    #: families (one :meth:`Subject.device` per profile).
    subjects: Optional[Callable[[Sequence["DeviceProfile"], Mapping[str, Any]], List["Subject"]]] = None
    #: ``knobs -> PartitionHooks`` — families whose topology can be cut at
    #: boundary links and run across worker processes supply the hooks the
    #: :class:`~repro.core.partition.PartitionRunner` drives (island
    #: builders, lookahead, stop horizon).  ``None`` = the family only runs
    #: single-process (the per-device shard schedule still applies).
    partition_factory: Optional[Callable[[Mapping[str, Any]], Any]] = None
    #: Canonical family mapping -> the terminal block ``repro probe``/``survey``
    #: print under the family's cell count.  ``None`` = the count line alone.
    terminal_block: Optional[Callable[[Mapping[str, Any]], str]] = None
    #: Canonical family mapping -> its :class:`~repro.core.results.DeviceSeries`
    #: (what ``survey --csv-dir`` exports).  ``None`` = no CSV for the family.
    device_series: Optional[Callable[[Mapping[str, Any]], Any]] = None

    @property
    def partitionable(self) -> bool:
        """True when the family supplies partition hooks (``--partitions``)."""
        return self.partition_factory is not None

    @property
    def runnable(self) -> bool:
        """True when the family runs a probe (False for derived families)."""
        return self.probe_factory is not None

    def subjects_of(
        self, profiles: Sequence["DeviceProfile"], knobs: Mapping[str, Any]
    ) -> List["Subject"]:
        """Enumerate this family's subjects over ``profiles``.

        Device families yield one :meth:`Subject.device` per profile (in
        population order — the pre-refactor shard order, exactly); families
        with a ``subjects`` hook delegate to it.
        """
        if self.subjects is not None:
            return list(self.subjects(profiles, knobs))
        return [Subject.device(profile) for profile in profiles]

    def cells_of(self, mapping: Mapping[str, Any]) -> Dict[str, Any]:
        """Per-device cells of a canonical family mapping."""
        if self.cells is not None:
            return self.cells(mapping)
        return dict(mapping)

    def insert(self, target: Dict[str, Any], tag: str, cell: Any) -> None:
        """Insert one device's cell into a canonical mapping."""
        if self.insert_cell is not None:
            self.insert_cell(target, tag, cell)
        else:
            target[tag] = cell

    def merge_into(self, target: Dict[str, Any], mapping: Mapping[str, Any]) -> None:
        """Fold one shard's canonical mapping into ``target``."""
        if self.merge_cells is not None:
            self.merge_cells(target, mapping)
        else:
            target.update(mapping)

    def encode(self, cell: Any) -> Any:
        """One result cell as the JSON payload the store persists."""
        return _encode(cell)

    def decode(self, payload: Any) -> Any:
        """One stored payload as a cell equal to the encoded one, type for type."""
        decoder = self._decoder
        return payload if decoder is None else decoder(payload)

    @cached_property
    def _decoder(self) -> Optional[Callable[[Any], Any]]:
        return _cell_decoder(self.result_type, f"family {self.name!r}")


@dataclass(frozen=True)
class ReportSection:
    """One block of the markdown survey report, owned by its families.

    ``render`` receives the whole :class:`~repro.core.survey.SurveyResults`
    and returns the section's markdown (or ``None`` to skip).  The section
    renders when *any* of its families has results, or — with
    ``requires_all`` — only when every one of them does (Table 2 needs the
    ICMP, transport and DNS columns together).
    """

    key: str
    order: int
    families: Tuple[str, ...]
    render: Callable[[Any], Optional[str]]
    requires_all: bool = False

    def wants(self, results: Any) -> bool:
        """Whether enough of the section's families have results to render."""
        present = [bool(results.family(name)) for name in self.families]
        return all(present) if self.requires_all else any(present)


@dataclass(frozen=True)
class Knob:
    """One campaign knob, declared once by the module whose families read it.

    Families receive the resolved mapping (every declared knob, coerced to
    its type) and read ``knobs[name]``; nothing else restates the default.
    """

    name: str
    #: Declared type; values are coerced through it (``600`` -> ``600.0``
    #: for a float knob), so one campaign has one fingerprint however a
    #: number was spelled.
    type: type
    default: Any
    #: CLI help text, verbatim (default description included).
    help: str
    #: Long option generated on ``survey``/``report``/``bench`` under the
    #: knob's ``tier`` switch; ``None`` = no generated flag.
    flag: Optional[str] = None
    #: argparse attribute the CLI parses the knob into (default: ``name``);
    #: also how a command's own flag (``--repetitions``) reaches the knob.
    dest: Optional[str] = None
    metavar: Optional[str] = None
    choices: Optional[Tuple[str, ...]] = None
    #: The :class:`Tier` whose ``--<tier>`` switch the flag is listed under.
    tier: Optional[str] = None
    #: Selects *which subjects run* rather than how anything is measured:
    #: kept out of the campaign fingerprint, so a subject slice and the full
    #: campaign share one store (exactly like a ``--families`` subset does).
    selection: bool = False

    def __post_init__(self) -> None:
        if self.flag is not None and self.tier is None:
            raise ValueError(f"knob {self.name!r} has a CLI flag but no tier to list it under")
        object.__setattr__(self, "default", self.coerce(self.default))
        if self.dest is None:
            object.__setattr__(self, "dest", self.name)

    def coerce(self, value: Any) -> Any:
        """``value`` as the declared type (integral floats only, for ints)."""
        if self.type is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"knob {self.name!r} takes an integer, got {value!r}")
        return self.type(value)


@dataclass(frozen=True)
class Tier:
    """An opt-in campaign tier: one ``--<name>`` CLI switch selecting its families.

    With an explicit family selection the switch appends its families;
    alone, it means "that campaign".  Knobs name the tier whose switch
    their generated flag is listed under.
    """

    name: str
    #: CLI listing position (ascending).
    order: int
    families: Tuple[str, ...]
    help: str


#: JSON scalars: stored as-is and decoded by passing them through.
_SCALARS = (str, int, float, bool, type(None))
#: Init-field names per dataclass, cached by the encoder.
_INIT_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _encode(value: Any) -> Any:
    """A cell as JSON data: dataclasses by init field, sequences as lists."""
    cls = type(value)
    if cls in _SCALARS:
        return value
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    names = _INIT_FIELDS.get(cls)
    if names is None:
        if not is_dataclass(cls):
            return value
        names = _INIT_FIELDS[cls] = tuple(f.name for f in fields(cls) if f.init)
    return {name: _encode(getattr(value, name)) for name in names}


def _cell_decoder(tp: Any, where: str) -> Optional[Callable[[Any], Any]]:
    """The store decoder for annotation ``tp``: JSON payload -> value.

    Only nested dataclasses and tuples need rebuilding; JSON scalars, and
    lists and ``str``-keyed dicts of them, pass through unchanged, so a
    decoded cell equals the live one field for field and type for type.
    Returns ``None`` when the payload already *is* the value.  Raises
    ``TypeError`` naming ``where`` for an annotation JSON cannot carry
    back (sets, non-``str`` dict keys, arbitrary classes).
    """
    if tp in _SCALARS:
        return None
    if isinstance(tp, type) and is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        plan = [
            (f.name, _cell_decoder(hints[f.name], f"{where}: field {tp.__name__}.{f.name}"))
            for f in fields(tp) if f.init
        ]
        plain = tuple(name for name, decoder in plan if decoder is None)
        nested = tuple((name, decoder) for name, decoder in plan if decoder is not None)

        def from_payload(payload):
            kwargs = {name: payload[name] for name in plain}
            for name, decoder in nested:
                kwargs[name] = decoder(payload[name])
            return tp(**kwargs)

        return from_payload
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Union and len(args) == 2 and type(None) in args:
        decoder = _cell_decoder(args[0] if args[1] is type(None) else args[1], where)
        if decoder is None:
            return None
        return lambda payload: None if payload is None else decoder(payload)
    if origin is list and len(args) == 1:
        item = _cell_decoder(args[0], where)
        if item is None:
            return None
        return lambda payload: [item(value) for value in payload]
    if origin is tuple:
        items = [_cell_decoder(arg, where) for arg in args]
        if all(item is None for item in items):
            return tuple
        return lambda payload: tuple(
            value if item is None else item(value) for item, value in zip(items, payload)
        )
    if origin is dict and len(args) == 2 and args[0] is str:
        value_decoder = _cell_decoder(args[1], where)
        if value_decoder is None:
            return None
        return lambda payload: {key: value_decoder(value) for key, value in payload.items()}
    raise TypeError(f"{where}: the store codec cannot map annotation {tp!r}")


_FAMILIES: Dict[str, ExperimentFamily] = {}
_SECTIONS: Dict[str, ReportSection] = {}
_KNOBS: Dict[str, Knob] = {}
_TIERS: Dict[str, Tier] = {}
_LOADED = False


def register_family(descriptor: ExperimentFamily) -> ExperimentFamily:
    """Register one family descriptor (import-time side effect).

    Builds the family's store decoder here, once, so a result type the
    codec cannot map fails at import rather than at a mid-campaign write.
    """
    if descriptor.name in _FAMILIES:
        raise ValueError(f"experiment family {descriptor.name!r} already registered")
    if descriptor.derived_from is not None and descriptor.derive is None:
        raise ValueError(f"derived family {descriptor.name!r} needs a derive hook")
    descriptor._decoder  # noqa: B018 - builds and caches the codec
    _FAMILIES[descriptor.name] = descriptor
    return descriptor


def register_section(section: ReportSection) -> ReportSection:
    """Register one report render hook (import-time side effect)."""
    if section.key in _SECTIONS:
        raise ValueError(f"report section {section.key!r} already registered")
    _SECTIONS[section.key] = section
    return section


def register_knob(knob: Knob) -> Knob:
    """Declare one campaign knob (import-time side effect)."""
    if knob.name in _KNOBS:
        raise ValueError(f"campaign knob {knob.name!r} already registered")
    _KNOBS[knob.name] = knob
    return knob


def register_tier(tier: Tier) -> Tier:
    """Declare one opt-in campaign tier (import-time side effect)."""
    if tier.name in _TIERS:
        raise ValueError(f"campaign tier {tier.name!r} already registered")
    _TIERS[tier.name] = tier
    return tier


def ensure_loaded() -> None:
    """Import every family module so their registrations have run."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True  # set first: the modules themselves may query the registry
    for module in FAMILY_MODULES:
        importlib.import_module(module)


def families() -> List[ExperimentFamily]:
    """All registered families, in execution/report order."""
    ensure_loaded()
    return sorted(_FAMILIES.values(), key=lambda f: (f.order, f.name))


def family(name: str) -> ExperimentFamily:
    """Look up one family; raises ``KeyError`` listing the registry."""
    ensure_loaded()
    try:
        return _FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment family {name!r}; registered families: "
            f"{', '.join(family_names())}"
        ) from None


def get(name: str) -> Optional[ExperimentFamily]:
    """Like :func:`family` but returns ``None`` for unknown names."""
    ensure_loaded()
    return _FAMILIES.get(name)


def runnable_names() -> Tuple[str, ...]:
    """Names of the directly runnable families, in execution order."""
    return tuple(f.name for f in families() if f.runnable)


def default_names() -> Tuple[str, ...]:
    """Runnable families included when no explicit selection is given."""
    return tuple(f.name for f in families() if f.runnable and f.default_selected)


def family_names() -> Tuple[str, ...]:
    """Every registered family name (runnable and derived), in order."""
    return tuple(f.name for f in families())


def derived_families(parent: str) -> List[ExperimentFamily]:
    """Families derived from ``parent``, in order."""
    return [f for f in families() if f.derived_from == parent]


def report_sections() -> List[ReportSection]:
    """All registered report sections, in report order."""
    ensure_loaded()
    return sorted(_SECTIONS.values(), key=lambda s: (s.order, s.key))


def partitionable_names() -> Tuple[str, ...]:
    """Runnable families that supply partition hooks, in execution order."""
    return tuple(f.name for f in families() if f.runnable and f.partitionable)


def knobs() -> List[Knob]:
    """Every declared campaign knob, in declaration order."""
    ensure_loaded()
    return list(_KNOBS.values())


def knob_values(overrides: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    """The complete knob mapping: declared defaults, then coerced ``overrides``."""
    overrides = overrides or {}
    declared = knobs()
    unknown = sorted(set(overrides) - {k.name for k in declared})
    if unknown:
        raise TypeError(f"unknown campaign knob(s) {unknown}; declared knobs: {', '.join(_KNOBS)}")
    return {k.name: k.coerce(overrides[k.name]) if k.name in overrides else k.default for k in declared}


def tiers() -> List[Tier]:
    """Every opt-in campaign tier, in CLI order."""
    ensure_loaded()
    return sorted(_TIERS.values(), key=lambda t: (t.order, t.name))
