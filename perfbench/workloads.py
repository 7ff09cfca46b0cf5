"""The benchmark's workloads: which families, over which subjects, how.

Each workload is one closed-loop campaign: the driver process calls
``SurveyRunner.run`` once and the next campaign starts only after it
returns.  Why each one is here is written down in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: The seed whose cell digests are committed under ``digests/``.  Any other
#: seed is checked against a staged-engine run of the same campaign.
DEFAULT_SEED = 0

#: Sizes: ``full`` is what the benchmark measures; ``smoke`` is the
#: seconds-long version the benchmark's own tests run.
SIZES = ("full", "smoke")


@dataclass(frozen=True)
class Workload:
    name: str
    #: Registry family names; ``None`` is the paper's default menu.
    families: Optional[Tuple[str, ...]]
    jobs: int
    #: ``SurveyRunner`` keyword knobs on top of its defaults.
    knobs: Dict[str, object] = field(default_factory=dict)
    #: Device tags of the smoke population (the full size uses all 34).
    smoke_tags: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper_survey",
            families=None,
            jobs=1,
            knobs={"udp_repetitions": 1, "transfer_bytes": 512 * 1024, "tcp1_cutoff": 600.0},
            smoke_tags=("je", "ls1"),
        ),
        Workload(
            name="nat444_load",
            families=("cgn_timeouts", "cgn_exhaustion", "workload_mix"),
            jobs=1,
            smoke_tags=("al", "be1"),
        ),
        Workload(
            name="traversal_pairs",
            families=("traversal_matrix",),
            jobs=2,
            smoke_tags=("al", "be1", "ls1"),
        ),
    )
}
