"""Seeded instance generators.

Instances are a pure function of their GeneratorSpec.  The draw order is
part of the format contract (see rng.py for the generator itself):

* PLANTED: one Fisher-Yates shuffle for the base ranking, then the set
  of re-edit targets via rejection draws, then one violating-value draw
  per target in ascending lexicographic target order.  Every constraint
  starts out satisfied by the base ranking, so the planted optimum is at
  most the edit count.
* UNIFORM: one selected-value draw per constraint, lexicographic order,
  uniform over all values including the identity-satisfying one.

A constraint's values are numbered in a canonical order: a FAST
member by its slot, a BETWEENNESS pair in `itertools.combinations`
order, a TRANSITIVE_FAST member order in `itertools.permutations`
order.  A uniform draw is a value's number; a planted draw numbers the
values left once the satisfied one is taken out.  The tables are built
in one pass from the same draws: the base table by one `satisfied_data`
call, the value draws by one `below_many` block, and each drawn number
is unranked straight into its value, so no list of a constraint's
values (r! of them for TRANSITIVE_FAST) is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb, factorial

import numpy as np

from .errors import ConfigError
from .model import Family, Instance, ProblemKind, Ranking, satisfied_data, subsets
from .rng import SplitMix64


class GenerationMode(Enum):
    PLANTED = "planted"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class GeneratorSpec:
    kind: ProblemKind
    n: int
    mode: GenerationMode
    seed: int
    edits: int = 0

    def __post_init__(self):
        if self.n < self.kind.r:
            raise ConfigError(f"n={self.n} below arity r={self.kind.r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.edits < 0:
            raise ConfigError("edit count must be non-negative")
        if self.mode is GenerationMode.PLANTED:
            if self.edits > comb(self.n, self.kind.r):
                raise ConfigError(
                    f"cannot re-edit {self.edits} of {comb(self.n, self.kind.r)} constraints"
                )
        elif self.edits != 0:
            raise ConfigError("edit count only applies to PLANTED instances")


def _value_count(kind: ProblemKind) -> int:
    """How many selected data a constraint of this kind can carry."""
    if kind.family is Family.FAST:
        return kind.r
    if kind.family is Family.BETWEENNESS:
        return comb(kind.r, 2)
    return factorial(kind.r)


def _value_slots(kind: ProblemKind, numbers: np.ndarray) -> np.ndarray:
    """The member slots of each value number, one row per number: the
    (m, width) inverse of `_value_numbers`."""
    r = kind.r
    if kind.family is Family.FAST:
        return numbers[:, None]
    if kind.family is Family.BETWEENNESS:
        return subsets(r, 2)[numbers]
    # Lehmer unrank: digit j picks among the slots not yet placed
    slots = np.empty((len(numbers), r), dtype=np.int64)
    free = np.ones((len(numbers), r), dtype=bool)
    rest = numbers.copy()
    for j in range(r):
        digit, rest = np.divmod(rest, factorial(r - 1 - j))
        slot = (np.cumsum(free, axis=1) > digit[:, None]).argmax(axis=1)
        slots[:, j] = slot
        free[np.arange(len(numbers)), slot] = False
    return slots


def _value_numbers(kind: ProblemKind, slots: np.ndarray) -> np.ndarray:
    """The canonical number of each row of member slots."""
    r = kind.r
    if kind.family is Family.FAST:
        return slots[:, 0]
    if kind.family is Family.BETWEENNESS:
        return Instance._ranks(r, 2, slots.T)
    # Lehmer rank: digit j counts the later slots below slot j
    numbers = np.zeros(len(slots), dtype=np.int64)
    for j in range(r):
        digit = (slots[:, j + 1 :] < slots[:, j : j + 1]).sum(axis=1)
        numbers += digit * factorial(r - 1 - j)
    return numbers


def generate_with_details(
    spec: GeneratorSpec,
) -> tuple[Instance, Ranking | None, tuple[tuple[int, ...], ...]]:
    """Generate plus the planted base ranking and re-edited subsets.

    For UNIFORM the extras are None and an empty tuple.
    """
    rng = SplitMix64(spec.seed)
    kind, n = spec.kind, spec.n
    members = subsets(n, kind.r)
    count = _value_count(kind)

    if spec.mode is GenerationMode.UNIFORM:
        numbers = rng.below_many(count, len(members)).astype(np.int64)
        selected = np.take_along_axis(members, _value_slots(kind, numbers), axis=1)
        return Instance._from_table(n, kind, selected), None, ()

    base = Ranking(tuple(rng.permutation(n)))
    selected = satisfied_data(kind, members, base.position)
    rows = np.array(rng.sample_indices(spec.edits, len(members)), dtype=np.int64)
    targets = members[rows]
    # the satisfied value's number; draws skip over it
    satisfied = _value_numbers(kind, (selected[rows, :, None] == targets[:, None, :]).argmax(axis=2))
    numbers = rng.below_many(count - 1, len(rows)).astype(np.int64)
    numbers += numbers >= satisfied
    selected[rows] = np.take_along_axis(targets, _value_slots(kind, numbers), axis=1)
    return Instance._from_table(n, kind, selected), base, tuple(map(tuple, targets.tolist()))


def generate(spec: GeneratorSpec) -> Instance:
    inst, _, _ = generate_with_details(spec)
    return inst
