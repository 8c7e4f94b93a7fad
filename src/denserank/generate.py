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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from math import comb

from .characterize import violating_selected_values
from .errors import ConfigError
from .model import Instance, ProblemKind, Ranking, all_selected_values, satisfied_selected
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


def generate_with_details(
    spec: GeneratorSpec,
) -> tuple[Instance, Ranking | None, tuple[tuple[int, ...], ...]]:
    """Generate plus the planted base ranking and re-edited subsets.

    For UNIFORM the extras are None and an empty tuple.
    """
    rng = SplitMix64(spec.seed)
    kind, n = spec.kind, spec.n

    all_subsets = list(itertools.combinations(range(n), kind.r))
    if spec.mode is GenerationMode.UNIFORM:
        selected = []
        for subset in all_subsets:
            values = all_selected_values(kind, subset)
            selected.append(values[rng.below(len(values))])
        return Instance._from_table(n, kind, selected), None, ()

    base = Ranking(tuple(rng.permutation(n)))
    selected = [satisfied_selected(kind, subset, base) for subset in all_subsets]
    indices = rng.sample_indices(spec.edits, len(all_subsets))
    for idx in indices:
        values = violating_selected_values(kind, all_subsets[idx], base)
        selected[idx] = values[rng.below(len(values))]
    return Instance._from_table(n, kind, selected), base, tuple(all_subsets[idx] for idx in indices)


def generate(spec: GeneratorSpec) -> Instance:
    inst, _, _ = generate_with_details(spec)
    return inst
