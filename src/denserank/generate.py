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

from dataclasses import dataclass
from enum import Enum
from math import comb

from .characterize import violating_selected_values
from .errors import ConfigError
from .model import (
    Constraint,
    Instance,
    ProblemKind,
    Ranking,
    all_selected_values,
    nth_combination,
    satisfied_selected,
)
from .rng import SplitMix64
import itertools


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

    if spec.mode is GenerationMode.UNIFORM:
        constraints = []
        for subset in itertools.combinations(range(n), kind.r):
            values = all_selected_values(kind, subset)
            constraints.append(Constraint(subset, values[rng.below(len(values))]))
        return Instance(n, kind, constraints), None, ()

    base = Ranking(tuple(rng.permutation(n)))
    constraints = {}
    for subset in itertools.combinations(range(n), kind.r):
        constraints[subset] = Constraint(subset, satisfied_selected(kind, subset, base))
    targets = tuple(
        nth_combination(n, kind.r, idx)
        for idx in rng.sample_indices(spec.edits, comb(n, kind.r))
    )
    for subset in targets:
        values = violating_selected_values(kind, subset, base)
        constraints[subset] = Constraint(subset, values[rng.below(len(values))])
    return Instance(n, kind, constraints.values()), base, targets


def generate(spec: GeneratorSpec) -> Instance:
    inst, _, _ = generate_with_details(spec)
    return inst
