"""Single-fault configurations and small-conflict characterizations.

A single-fault configuration is an ordered instance in which exactly one
constraint is violated.  These are the hard cases when asking whether a
constraint family admits conflicts of bounded size: every verdict
reported here is phrased as "is this whole vertex set a conflict", i.e.
does it admit no consistent ranking at all.

As in the kernel drivers, the fault is a table row: a configuration
holds its row, checks it against `OrderedInstance.violated`, and reads
its members and selected datum off that row; the builder writes the
fault datum into a copy of the satisfied table.

For BETWEENNESS and FAST on r+1 vertices the verdict is decided by
closed-form rules (position of the faulty constraint within the order,
plus the shape of its selected pair); the rules are kept as literal
decision tables so each table row can be pinned against the exact
oracle in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Iterator, Optional

import numpy as np

from . import oracle
from .errors import ConfigError, PreconditionError, SemanticsError
from .model import (
    Family,
    Instance,
    OrderedInstance,
    ProblemKind,
    Ranking,
    SelectedData,
    VertexId,
    all_selected_values,
    nth_combination,
    satisfied_data,
    satisfied_selected,
    selected_datum,
    subsets,
    validate_constraint,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class SingleFaultConfig:
    """Ordered instance with exactly one violated constraint, the one in
    table row `row`.

    Construction re-checks the single-fault premise, so holding one of
    these is proof the premise holds.
    """

    ordered: OrderedInstance
    row: int

    def __post_init__(self):
        bad = np.flatnonzero(self.ordered.violated).tolist()
        if bad != [self.row]:
            raise ConfigError(f"expected exactly row {self.row} to be violated, got rows {bad}")

    @property
    def instance(self) -> Instance:
        return self.ordered.instance

    @property
    def sigma(self) -> Ranking:
        return self.ordered.sigma

    @property
    def members(self) -> tuple[VertexId, ...]:
        inst = self.instance
        return tuple(subsets(inst.n, inst.r)[self.row].tolist())

    @property
    def selected(self) -> SelectedData:
        return selected_datum(self.instance.kind, self.instance.selected[self.row].tolist())


def single_fault_config(
    kind: ProblemKind,
    size: int,
    fault_members: tuple[VertexId, ...],
    fault_selected: SelectedData,
) -> SingleFaultConfig:
    """Identity-ordered instance on `size` vertices where every
    constraint is satisfied except the one given.  The fault datum is
    written into its row of a copy of the satisfied table."""
    identity = Ranking.identity(size)
    satisfied = satisfied_data(kind, subsets(size, kind.r), identity.position)
    inst = Instance._from_table(size, kind, satisfied)
    members, row = inst._row(fault_members)
    validate_constraint(kind, members, fault_selected)
    table = inst.selected.copy()
    table[row] = fault_selected
    inst = Instance._from_table(size, kind, table)
    return SingleFaultConfig(OrderedInstance(inst, identity), row)


def violating_selected_values(
    kind: ProblemKind, members: tuple[VertexId, ...], sigma: Ranking
) -> list[SelectedData]:
    """All selected data for `members` that `sigma` does not satisfy,
    in canonical order."""
    satisfied = satisfied_selected(kind, members, sigma)
    return [v for v in all_selected_values(kind, members) if v != satisfied]


def enumerate_single_fault_configs(
    kind: ProblemKind, size: int
) -> Iterator[SingleFaultConfig]:
    """Every identity-ordered single-fault configuration on `size`
    vertices: all fault placements times all violating selected data."""
    identity = Ranking.identity(size)
    for subset in itertools.combinations(range(size), kind.r):
        for sel in violating_selected_values(kind, subset, identity):
            yield single_fault_config(kind, size, subset, sel)


class Compatibility(Enum):
    RIGHT = "right"
    LEFT = "left"
    NEITHER = "neither"


class _Placement(Enum):
    SPLIT = "split"  # some non-member sits strictly inside the span
    PREFIX = "prefix"  # members occupy the first r positions
    SUFFIX = "suffix"  # members occupy the last r positions


def _pattern(
    members: tuple[VertexId, ...], selected: SelectedData, sigma: Ranking
) -> Compatibility:
    """Shape of an unsatisfied BETWEENNESS pair relative to the order.

    With members by rank t_1 < ... < t_r: selecting {t_1, t_l} for an
    interior t_l beyond t_2 leaves room to repair on the right; the
    mirror shape {t_l, t_r} with t_l before t_{r-1} repairs on the left.
    At r = 3 there is no interior slack, so nothing matches.  The two
    shapes are mutually exclusive: both at once would force the selected
    pair to be the span's extremes, which is the satisfied case.
    """
    by_rank = sorted(members, key=sigma.pos)
    r = len(by_rank)
    sel = set(selected)
    for l in range(2, r - 1):  # 0-based index of t_{l+1}, i.e. ranks 3..r-1
        if sel == {by_rank[0], by_rank[l]}:
            return Compatibility.RIGHT
    for l in range(1, r - 2):  # ranks 2..r-2
        if sel == {by_rank[l], by_rank[r - 1]}:
            return Compatibility.LEFT
    return Compatibility.NEITHER


def _placement(config: SingleFaultConfig) -> _Placement:
    members = set(config.members)
    order = config.sigma.order
    if order[0] not in members:
        return _Placement.SUFFIX if all(v in members for v in order[1:]) else _Placement.SPLIT
    if all(v in members for v in order[: len(members)]):
        return _Placement.PREFIX
    return _Placement.SPLIT


def _require_arity_plus_one(config: SingleFaultConfig, family: Family) -> None:
    kind = config.instance.kind
    if kind.family is not family:
        raise SemanticsError(f"verdict is for {family.value}, got {kind.family.value}")
    if config.instance.n != kind.r + 1:
        raise PreconditionError(
            f"verdict covers configurations on r+1 vertices, got n={config.instance.n}"
        )


# Verdict tables for single-fault configurations on r+1 vertices.  One row
# per case of the supporting argument; the tests check every row against
# the oracle.
_BETWEENNESS_CONFLICT = {
    (_Placement.SPLIT, Compatibility.RIGHT): True,
    (_Placement.SPLIT, Compatibility.LEFT): True,
    (_Placement.SPLIT, Compatibility.NEITHER): True,
    (_Placement.PREFIX, Compatibility.RIGHT): False,
    (_Placement.PREFIX, Compatibility.LEFT): True,
    (_Placement.PREFIX, Compatibility.NEITHER): True,
    (_Placement.SUFFIX, Compatibility.RIGHT): True,
    (_Placement.SUFFIX, Compatibility.LEFT): False,
    (_Placement.SUFFIX, Compatibility.NEITHER): True,
}

_FAST_CONFLICT = {
    _Placement.SPLIT: True,
    _Placement.PREFIX: False,
    _Placement.SUFFIX: True,
}


def betweenness_single_fault_conflict(config: SingleFaultConfig) -> bool:
    """Conflict verdict for a BETWEENNESS single fault on r+1 vertices."""
    _require_arity_plus_one(config, Family.BETWEENNESS)
    key = (_placement(config), _pattern(config.members, config.selected, config.sigma))
    return _BETWEENNESS_CONFLICT[key]


def fast_single_fault_conflict(config: SingleFaultConfig) -> bool:
    """Conflict verdict for a FAST single fault on r+1 vertices.

    Only stated for arity >= 3.  At r = 2 the suffix case genuinely
    flips (a backward pair plus a vertex before it is an acyclic
    triangle), so callers there must consult the oracle.
    """
    _require_arity_plus_one(config, Family.FAST)
    if config.instance.kind.r < 3:
        raise PreconditionError("closed-form FAST verdict needs arity >= 3")
    return _FAST_CONFLICT[_placement(config)]


def default_conflict_size(kind: ProblemKind) -> int:
    """Size below which a single fault certifies a conflict, per family."""
    if kind.family is Family.BETWEENNESS:
        return kind.r + 1 if kind.r == 3 else 2 * kind.r
    if kind.family is Family.TRANSITIVE_FAST:
        return kind.r + 1
    raise SemanticsError(
        "FAST admits no bounded single-fault conflict size; use kernelize_fast"
    )


def predicted_non_conflicts(
    kind: ProblemKind, size: int
) -> Optional[tuple[tuple[tuple[VertexId, ...], SelectedData], ...]]:
    """What a single-fault sweep of this size must report as non-conflicts.

    Returns the (fault members, selected) pairs in enumeration order when
    a closed form covers the size: the empty tuple at or beyond the
    certified conflict size, the verdict-table misses on r+1 vertices.
    None means no claim is stated (FAST at width 2 or beyond r+1 vertices,
    BETWEENNESS between r+2 and 2r-1 vertices) and a sweep is data only.
    """
    if kind.family is not Family.FAST and size >= default_conflict_size(kind):
        return ()
    if size != kind.r + 1:
        return None
    if kind.family is Family.BETWEENNESS:
        table = betweenness_single_fault_conflict
    elif kind.family is Family.FAST and kind.r >= 3:
        table = fast_single_fault_conflict
    else:
        return None
    return tuple(
        (config.members, config.selected)
        for config in enumerate_single_fault_configs(kind, size)
        if not table(config)
    )


@dataclass(frozen=True)
class CharacterizationReport:
    """Outcome of sweeping single-fault configurations of one size.

    Counterexamples (configurations that are not conflicts) are data,
    not errors: for FAST they are expected at every size.
    """

    kind: ProblemKind
    size: int
    checked: int
    space: int
    exhaustive: bool
    counterexamples: tuple[tuple[tuple[VertexId, ...], SelectedData], ...]

    def summary(self) -> str:
        mode = "exhaustive" if self.exhaustive else f"sampled {self.checked} of {self.space}"
        head = (
            f"family={self.kind.family.value} r={self.kind.r} size={self.size}: "
            f"{self.checked} single-fault configurations checked ({mode}), "
            f"{len(self.counterexamples)} non-conflicts"
        )
        lines = [head]
        for members, sel in self.counterexamples:
            lines.append(f"  non-conflict: fault members={members} selected={sel}")
        return "\n".join(lines)


def _config_space(kind: ProblemKind, size: int) -> tuple[int, int]:
    per_subset = len(all_selected_values(kind, tuple(range(kind.r)))) - 1
    return comb(size, kind.r), per_subset


def verify_simple_characterization(
    kind: ProblemKind,
    size: int,
    sample: Optional[int] = None,
    seed: int = 0,
    oracle_cap: Optional[int] = None,
) -> CharacterizationReport:
    """Ask the oracle, for single-fault configurations on `size`
    vertices, whether the whole vertex set is a conflict.

    With `sample=None` the configuration space is exhausted; otherwise
    `sample` configurations are drawn without replacement from a seeded
    stream.  Exhausting is the right choice up to a few hundred
    configurations; beyond that (BETWEENNESS at r >= 5, say) sampling
    keeps the oracle cost sane.  A size the oracle would refuse is
    refused up front, before any selected datum is listed.
    """
    if size <= kind.r:
        raise ConfigError(f"size must exceed the arity, got size={size} r={kind.r}")
    oracle._check_cap(oracle._engine(kind), size, oracle_cap)
    subsets, per_subset = _config_space(kind, size)
    space = subsets * per_subset

    def config_at(index: int) -> SingleFaultConfig:
        subset_idx, value_idx = divmod(index, per_subset)
        subset = nth_combination(size, kind.r, subset_idx)
        values = violating_selected_values(kind, subset, Ranking.identity(size))
        return single_fault_config(kind, size, subset, values[value_idx])

    if sample is None or sample >= space:
        indices = range(space)
        exhaustive = True
    else:
        indices = SplitMix64(seed).sample_indices(sample, space)
        exhaustive = False

    bad = []
    checked = 0
    for idx in indices:
        config = config_at(idx)
        checked += 1
        if not oracle.is_conflict(config.instance, range(size), cap=oracle_cap):
            bad.append((config.members, config.selected))
    return CharacterizationReport(kind, size, checked, space, exhaustive, tuple(bad))
