"""Workload definitions: which instances each workload generates and
which CLI request it sends for each one.

A workload is a tuple of slots.  Every slot is one instance shape
(family, arity, size, generator mode, planted edits) plus the request
arguments; the pool holds `copies` instances per slot, each drawn with
its own generator seed derived from the run seed.  Requests cycle
through the pool round-robin over slots, so a run cut short mid-pass
still sees every shape in the same proportion.

Why each workload exists, and which layer it stresses, is in README.md
next to this file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass(frozen=True)
class Slot:
    family: str
    r: int
    n: int
    mode: str = "planted"
    edits: int = 0
    k: Optional[int] = None
    provider: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    slots: tuple[Slot, ...]
    copies: int


# Request times inside one slot are close, so a quantile that falls on
# the border between two slots jumps with the mix of a partial pass.
# The pools are shaped so that the median and the tail percentile
# (about p80-p90 at the request counts of one run) fall inside a group
# of slots with similar times: solve-exact by slot weights, approx-large
# by slot sizes (slots 2-3 and slots 4-5 hold about as many constraints
# each), and the kernelize workloads by many distinct instances whose
# times overlap.
_SOLVE_8 = tuple(Slot(f, r, 8, edits=3) for f, r in (("fast", 3), ("betweenness", 4), ("tfast", 3)))
_SOLVE_9 = tuple(
    Slot(f, r, 9, edits=3)
    for f, r in (
        ("fast", 2), ("fast", 3),
        ("betweenness", 3), ("tfast", 3), ("betweenness", 3), ("tfast", 3),
        ("betweenness", 4), ("betweenness", 4), ("betweenness", 4),
    )
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-exact",
            command="solve",
            why="exact optimum by n! enumeration at n = 8-9; the oracle is almost all of each request",
            slots=_SOLVE_8 + _SOLVE_9,
            copies=1,
        ),
        Workload(
            name="kernelize-fast",
            command="kernelize",
            why="FAST kernelization with edits in (k, 3k]: drops and sunflower edits fire, no oracle search",
            slots=(
                Slot("fast", 3, 32, edits=6, k=3),
                Slot("fast", 3, 36, edits=9, k=3),
                Slot("fast", 2, 45, edits=6, k=3),
                Slot("fast", 2, 50, edits=8, k=4),
            ),
            copies=12,
        ),
        Workload(
            name="kernelize-localsearch",
            command="kernelize",
            why="characterized kernelization with the local-search provider, which recounts all C(n,3) faults per swap",
            slots=(
                Slot("betweenness", 3, 16, edits=4, k=2, provider="localsearch"),
                Slot("tfast", 3, 16, edits=4, k=2, provider="localsearch"),
                Slot("betweenness", 3, 18, edits=4, k=2, provider="localsearch"),
                Slot("tfast", 3, 18, edits=4, k=2, provider="localsearch"),
            ),
            copies=24,
        ),
        Workload(
            name="approx-large",
            command="approx",
            why="Inc-Degree on large FAST files: parse and one verdict pass dominate, with no rebuilds",
            slots=(
                Slot("fast", 3, 50, edits=5),
                Slot("fast", 2, 240, edits=10),
                Slot("fast", 3, 56, mode="uniform"),
                Slot("fast", 2, 300, mode="uniform"),
                Slot("fast", 3, 65, edits=5),
            ),
            copies=1,
        ),
    )
}


def definitions_sha256() -> str:
    """Hash of every workload definition, reported with each result so
    that runs made with different definitions are never compared."""
    blob = json.dumps([asdict(w) for w in WORKLOADS.values()], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def generator_seed(workload: str, seed: int, slot: int, copy: int) -> int:
    """64-bit generator seed of one pool instance, a pure function of
    the run seed and the instance's place in the pool."""
    digest = hashlib.sha256(f"{workload}/{seed}/{slot}/{copy}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def pool(workload: Workload) -> list[tuple[int, int, Slot]]:
    """(slot index, copy, slot) in request order: round-robin over slots."""
    return [
        (i, c, slot) for c in range(workload.copies) for i, slot in enumerate(workload.slots)
    ]
