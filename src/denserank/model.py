"""Data model for dense ranking constraint systems.

An instance is *dense*: it carries exactly one constraint for every
r-subset of its vertex set.  Vertices are the integers 0..n-1.  Three
constraint families are supported:

* BETWEENNESS: the two selected members must occupy the two extreme
  positions of the member set, in either orientation.
* FAST: the single selected member must come last among the members.
* TRANSITIVE_FAST: the stored member order must agree with the ranking
  position by position.

An instance stores its selected data as one read-only int64 table with
one row per r-subset in lexicographic order, the members of row i being
row i of `subsets(n, r)`, so all downstream behaviour is deterministic.
Inside the package a constraint is a row of that table, and
`selected_datum` reads a row's datum as one id (FAST) or a tuple.
`Constraint` is only the form of data at the edge: `Instance(...)`
reads it, and `Instance.replace` and `inconsistent_constraints` still
speak it.  Outside data is checked once, by `Instance(...)` or the file
parser, with the selected-data rule written here as a scalar over row
fields (`validate_constraint`) and a batch (`batch_valid`), next to the
lexicographic subset rank (`Instance._rank`, batch `Instance._ranks`
in int64).

Each family's rule is written here once and nowhere else:
`_ranked_datum`, the selected datum that members in ranking order
satisfy.  A ranking is judged in position space: `_ranked_positions`
gathers each member column's positions and reduces the columns with
elementwise minima and maxima to the ranked positions the rule reads.
A constraint is violated exactly when the rule, read off those ranked
positions, differs from the rule read off the positions of its selected
data; positions are a bijection of ids, so this is the same verdict as
comparing ids.  `OrderedInstance.violated` compares the two column by
column, `satisfied_data` maps the ranked positions back to ids through
the ranking's order before reading the rule (`satisfied_selected` is
its one-row call), and `order_violations` applies the rule to every
member order of every constraint.  Everything that judges a ranking
reads one of these.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum
from math import comb, factorial
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import (
    DensityError,
    EmptyInstanceError,
    InvalidConstraintError,
)

VertexId = int
SelectedData = Union[int, tuple]


class Family(Enum):
    BETWEENNESS = "betweenness"
    FAST = "fast"
    TRANSITIVE_FAST = "tfast"


_MIN_ARITY = {
    Family.BETWEENNESS: 3,
    Family.FAST: 2,
    Family.TRANSITIVE_FAST: 3,
}


@dataclass(frozen=True)
class ProblemKind:
    """Constraint family plus arity, validated together.

    BETWEENNESS needs three members for "strictly between" to mean
    anything, and two-member TRANSITIVE_FAST would collapse into FAST,
    so both are rejected.  FAST is allowed at r = 2, where it is the
    classic feedback problem on tournaments.
    """

    family: Family
    r: int

    def __post_init__(self):
        if self.r < _MIN_ARITY[self.family]:
            raise InvalidConstraintError(
                f"{self.family.value} requires arity >= "
                f"{_MIN_ARITY[self.family]}, got r={self.r}"
            )


@dataclass(frozen=True)
class Ranking:
    """A total order of 0..n-1 with O(1) position lookup."""

    order: tuple[VertexId, ...]
    position: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.order)
        pos = [-1] * n
        for i, v in enumerate(self.order):
            if not 0 <= v < n or pos[v] != -1:
                raise InvalidConstraintError(f"not a permutation of 0..{n - 1}: {self.order}")
            pos[v] = i
        object.__setattr__(self, "position", tuple(pos))

    @classmethod
    def identity(cls, n: int) -> "Ranking":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.order)

    def pos(self, v: VertexId) -> int:
        return self.position[v]

    def last(self) -> VertexId:
        return self.order[-1]


@dataclass(frozen=True)
class Constraint:
    """One constraint: sorted members plus family-specific selected data.

    selected is a single vertex for FAST, an increasing pair for
    BETWEENNESS, and a permutation of the members for TRANSITIVE_FAST.
    """

    members: tuple[VertexId, ...]
    selected: SelectedData


def validate_constraint(
    kind: ProblemKind, members: tuple[VertexId, ...], selected: SelectedData
) -> None:
    """Raise InvalidConstraintError unless `members` are r strictly
    increasing ids and `selected` is a datum of the family on them."""
    m, sel = members, selected
    if len(m) != kind.r or any(m[i] >= m[i + 1] for i in range(len(m) - 1)):
        raise InvalidConstraintError(f"members must be {kind.r} strictly increasing ids: {m}")
    if kind.family is Family.FAST:
        if not isinstance(sel, int) or sel not in m:
            raise InvalidConstraintError(f"FAST selected must be one member, got {sel!r} for {m}")
    elif kind.family is Family.BETWEENNESS:
        ok = (
            isinstance(sel, tuple)
            and len(sel) == 2
            and sel[0] < sel[1]
            and sel[0] in m
            and sel[1] in m
        )
        if not ok:
            raise InvalidConstraintError(
                f"BETWEENNESS selected must be an increasing member pair, got {sel!r} for {m}"
            )
    else:
        if not (isinstance(sel, tuple) and tuple(sorted(sel)) == m):
            raise InvalidConstraintError(
                f"TRANSITIVE_FAST selected must be a permutation of members, got {sel!r} for {m}"
            )


def batch_valid(kind: ProblemKind, members: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """Batch form of `validate_constraint` over table columns: `members`
    (r, C) and `selected` (width, C) hold one field per row, and the
    result is the (C,) mask of the columns that make valid constraints."""
    ok = (members[1:] > members[:-1]).all(axis=0)
    if kind.family is Family.TRANSITIVE_FAST:
        # a permutation of strictly increasing members sorts back to them
        return ok & (np.sort(selected, axis=0) == members).all(axis=0)
    # every selected id is a member
    for ids in selected:
        ok &= functools.reduce(np.logical_or, [ids == m for m in members])
    if kind.family is Family.BETWEENNESS:
        ok &= selected[0] < selected[1]
    return ok


def all_selected_values(kind: ProblemKind, members: tuple[VertexId, ...]) -> list[SelectedData]:
    """Every selected datum a constraint on `members` could carry, in a
    fixed canonical order (ascending / lexicographic)."""
    if kind.family is Family.FAST:
        return list(members)
    if kind.family is Family.BETWEENNESS:
        return list(itertools.combinations(members, 2))
    return list(itertools.permutations(members))


def selected_width(kind: ProblemKind) -> int:
    """Integers per selected datum: a row's width in `Instance.selected`."""
    if kind.family is Family.FAST:
        return 1
    if kind.family is Family.BETWEENNESS:
        return 2
    return kind.r


# r -> (n, subsets(n, r)) for the largest n built so far
_LARGEST_SUBSETS: dict[int, tuple[int, np.ndarray]] = {}


@functools.lru_cache(maxsize=8)
def subsets(n: int, r: int) -> np.ndarray:
    """Members of every r-subset of 0..n-1, one row each, lexicographic (read-only).

    A table for a smaller n is filtered from the largest one built for
    the same r: the rows whose members all lie below n are exactly the
    smaller table, and filtering keeps their lexicographic order.
    """
    largest_n, largest = _LARGEST_SUBSETS.get(r, (-1, None))
    if n <= largest_n:
        table = largest[largest[:, -1] < n]
    else:
        flat = itertools.chain.from_iterable(itertools.combinations(range(n), r))
        table = np.fromiter(flat, dtype=np.int64, count=comb(n, r) * r).reshape(-1, r)
        _LARGEST_SUBSETS[r] = (n, table)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=8)
def _rank_terms(n: int, r: int) -> np.ndarray:
    """The (r, n) int64 table of the terms comb(n - 1 - v, r - i) of
    `Instance._ranks` over the ids v in 0..n-1 (read-only).  Slot i of a
    valid subset holds i <= v <= n - r + i, so only those terms are
    computed; below them a term is never used and could outgrow C(n, r),
    above them it is 0, and both are tabled as 0."""
    terms = np.zeros((r, n), dtype=np.int64)
    for i in range(r):
        terms[i, i : n - r + i + 1] = [comb(n - 1 - v, r - i) for v in range(i, n - r + i + 1)]
    terms.flags.writeable = False
    return terms


def selected_datum(kind: ProblemKind, row: list) -> SelectedData:
    """The selected datum a table row holds: one id for FAST, a tuple
    otherwise."""
    return row[0] if kind.family is Family.FAST else tuple(row)


class Instance:
    """Dense instance: one constraint per r-subset of 0..n-1."""

    __slots__ = ("n", "kind", "selected")

    def __init__(self, n: int, kind: ProblemKind, constraints: Iterable[Constraint]):
        if n < kind.r:
            raise EmptyInstanceError(f"need at least r={kind.r} vertices, got n={n}")
        by_members: dict[tuple[VertexId, ...], SelectedData] = {}
        for c in constraints:
            validate_constraint(kind, c.members, c.selected)
            if any(v < 0 or v >= n for v in c.members):
                raise DensityError(f"constraint members {c.members} outside 0..{n - 1}")
            if c.members in by_members:
                raise DensityError(f"duplicate constraint for subset {c.members}")
            by_members[c.members] = c.selected
        # Gather in lexicographic order; this also finds any missing subset.
        rows = []
        for subset in itertools.combinations(range(n), kind.r):
            try:
                rows.append(by_members[subset])
            except KeyError:
                raise DensityError(f"missing constraint for subset {subset}") from None
        self.n, self.kind, self.selected = n, kind, Instance._from_table(n, kind, rows).selected

    @classmethod
    def _from_table(cls, n: int, kind: ProblemKind, selected) -> "Instance":
        """Package-internal constructor that checks nothing.

        `selected` is a (C(n, r), width) table, or a sequence of valid
        selected data, in lexicographic subset order.
        """
        inst = cls.__new__(cls)
        inst.n, inst.kind = n, kind
        inst.selected = np.asarray(selected, dtype=np.int64).reshape(-1, selected_width(kind))
        inst.selected.flags.writeable = False
        return inst

    @property
    def r(self) -> int:
        return self.kind.r

    def constraint_count(self) -> int:
        return len(self.selected)

    def _row(self, members: Iterable[VertexId]) -> tuple[tuple[VertexId, ...], int]:
        """The sorted member tuple and its lexicographic rank."""
        key = tuple(sorted(members))
        n, r = self.n, self.r
        valid = len(key) == r and 0 <= key[0] and key[-1] < n
        if not valid or any(key[i] == key[i + 1] for i in range(r - 1)):
            raise DensityError(f"no constraint for subset {key}")
        return key, Instance._rank(n, r, key)

    @staticmethod
    def _rank(n: int, r: int, key: tuple[VertexId, ...]) -> int:
        """The lexicographic rank of `key`, r strictly increasing ids in 0..n-1."""
        return comb(n, r) - 1 - sum(comb(n - 1 - v, r - i) for i, v in enumerate(key))

    @staticmethod
    def _ranks(n: int, r: int, members: np.ndarray) -> np.ndarray:
        """Batch form of `_rank`: the (C,) int64 lexicographic ranks
        of the columns of `members`, (r, C) with strictly increasing ids in
        0..n-1 down each column, for C(n, r) within the int64 range."""
        terms = _rank_terms(n, r)
        ranks = np.full(members.shape[1], comb(n, r) - 1, dtype=np.int64)
        for i in range(r):
            ranks -= terms[i][members[i]]
        return ranks

    def replace(self, changes: Mapping[tuple[VertexId, ...], Constraint]) -> "Instance":
        """New instance with the given subsets' constraints swapped out."""
        table = self.selected.copy()
        for key, c in changes.items():
            key, row = self._row(key)
            if c.members != key:
                raise InvalidConstraintError(f"replacement members {c.members} != subset {key}")
            validate_constraint(self.kind, c.members, c.selected)
            table[row] = c.selected
        return Instance._from_table(self.n, self.kind, table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.n == other.n
            and self.kind == other.kind
            and np.array_equal(self.selected, other.selected)
        )

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, kind={self.kind.family.value}/r={self.kind.r})"


@dataclass(frozen=True)
class OrderedInstance:
    """An instance together with a ranking of its vertices."""

    instance: Instance
    sigma: Ranking

    def __post_init__(self):
        if self.sigma.n != self.instance.n:
            raise InvalidConstraintError(
                f"ranking covers {self.sigma.n} vertices, instance has {self.instance.n}"
            )

    @functools.cached_property
    def violated(self) -> np.ndarray:
        """Read-only mask of the violated constraints, built on first read.

        Judged in position space, one column at a time: the datum that
        `_ranked_datum` reads off each row's ranked member positions
        against the one it reads off the positions of the row's selected
        data, the width columns OR-ed together.  Positions are a
        bijection of ids, so a row differs here exactly when its selected
        datum differs from the one the ranking satisfies.
        """
        inst = self.instance
        kind, position = inst.kind, _narrow(self.sigma.position)
        satisfied = _ranked_datum(kind, _ranked_positions(kind, subsets(inst.n, inst.r), position))
        selected = _ranked_datum(kind, position[inst.selected.T].T)
        mask = satisfied[:, 0] != selected[:, 0]
        for j in range(1, selected_width(kind)):
            mask |= satisfied[:, j] != selected[:, j]
        mask.flags.writeable = False
        return mask


def _ranked_datum(kind: ProblemKind, ranked: np.ndarray) -> np.ndarray:
    """The selected datum that members in ranking order satisfy.

    `ranked` (..., m) lists members first-ranked first.  Returns the
    (..., width) data: for FAST the last-ranked member; for BETWEENNESS
    the first- and last-ranked members as an increasing pair; for
    TRANSITIVE_FAST the members in ranking order.  FAST reads only the
    last column and BETWEENNESS only the first and last, so `ranked` may
    hold just those.
    """
    if kind.family is Family.FAST:
        return ranked[..., -1:]
    if kind.family is Family.BETWEENNESS:
        first, last = ranked[..., 0], ranked[..., -1]
        return np.stack((np.minimum(first, last), np.maximum(first, last)), axis=-1)
    return ranked


def _narrow(position) -> np.ndarray:
    """A position vector in the narrowest integer type that holds its
    length: positions are below n."""
    return np.asarray(position, dtype=np.min_scalar_type(len(position)))


def _ranked_positions(kind: ProblemKind, members: np.ndarray, position: np.ndarray) -> np.ndarray:
    """The positions of each member row's members, first-ranked first.

    `members` is a (C, r) table of distinct vertex ids per row and
    `position` the ranking's position vector, narrowed by `_narrow`.
    Returns a (C, m) view whose columns are contiguous, holding only
    the positions that `_ranked_datum` reads: the last (FAST), the
    first and last (BETWEENNESS) or all r in rank order
    (TRANSITIVE_FAST).  Each member column is gathered on its own and
    the columns are reduced with elementwise minima and maxima, so no
    row is sorted.
    """
    columns = [position[members[:, j]] for j in range(members.shape[1])]
    if kind.family is Family.FAST:
        ranked = [functools.reduce(np.maximum, columns)]
    elif kind.family is Family.BETWEENNESS:
        ranked = [functools.reduce(np.minimum, columns), functools.reduce(np.maximum, columns)]
    else:
        # an insertion network: after step i the first i + 1 columns are in rank order
        ranked = columns
        for i in range(1, len(ranked)):
            for j in range(i, 0, -1):
                early, late = ranked[j - 1], ranked[j]
                ranked[j - 1], ranked[j] = np.minimum(early, late), np.maximum(early, late)
    return np.stack(ranked).T


def satisfied_data(kind: ProblemKind, members: np.ndarray, position: np.ndarray) -> np.ndarray:
    """The selected data that a ranking satisfies, one row per member row.

    `members` is a (C, r) table of distinct vertex ids per row and
    `position` the ranking's position vector (position[v] is the
    position of vertex v).  Returns the (C, width) int64 table of
    `_ranked_datum` over the ranked member positions of
    `_ranked_positions`, mapped back to ids through the ranking's order.
    """
    members = np.asarray(members, dtype=np.int64)
    position = _narrow(position)
    order = np.empty(len(position), dtype=np.int64)
    order[position] = np.arange(len(position))
    ranked = order[_ranked_positions(kind, members, position)]
    return np.ascontiguousarray(_ranked_datum(kind, ranked))


def satisfied_selected(
    kind: ProblemKind, members: tuple[VertexId, ...], ranking: Ranking
) -> SelectedData:
    """The one selected datum on `members` that `ranking` satisfies:
    `satisfied_data` on one row, read with `selected_datum`."""
    return selected_datum(kind, satisfied_data(kind, [members], ranking.position)[0].tolist())


_WHOLE_ORDERS = 8  # arity up to which `order_violations` scores all orders at once


@functools.lru_cache(maxsize=None)
def member_orders(r: int) -> np.ndarray:
    """The r! orders of r member slots, lexicographic and read-only.

    Row o lists the slots first-ranked first, so row 0 is the members'
    own increasing order.
    """
    orders = np.array(list(itertools.permutations(range(r))), dtype=np.int8)
    orders.flags.writeable = False
    return orders


def order_violations(inst: Instance) -> np.ndarray:
    """The (C, r!) mask of every member order of every constraint.

    Entry [c, o] is True when constraint c is violated by a ranking that
    puts its members in the o-th member order, lexicographically (row o
    of `member_orders(r)`): when the datum that `_ranked_datum` reads off
    that order differs from the constraint's selected datum, both in
    member slots and compared as one base-r integer each.  Above r = 8
    the orders come in blocks of 8! that share their leading slots; the
    data of one template block are coded once, and each block compares
    them with the selected data relabelled to the template's slots, so
    the r! x r table of `member_orders(r)` is never built.
    """
    kind, r = inst.kind, inst.r
    members = subsets(inst.n, r)
    digits = (r,) * selected_width(kind)
    # the slot of each selected vertex within its member row
    slots = (inst.selected[:, :, None] == members[:, None, :]).argmax(axis=2)
    lead = max(r - _WHOLE_ORDERS, 0)
    tail = member_orders(r - lead)
    size = len(tail)
    # the template block ranks slots 0..lead-1 first, in that order
    first = np.broadcast_to(np.arange(lead, dtype=np.int8), (size, lead))
    data = _ranked_datum(kind, np.column_stack((first, tail + lead)))
    template = np.ravel_multi_index(tuple(data.T), digits)
    out = np.empty((len(members), factorial(r)), dtype=bool)
    for i, head in enumerate(itertools.permutations(range(r), lead)):
        # this block is the template with slot label[j] in place of slot j;
        # re-reading the relabelled data sorts a BETWEENNESS pair again
        label = [*head, *(slot for slot in range(r) if slot not in head)]
        relabelled = _ranked_datum(kind, np.argsort(label)[slots])
        selected = np.ravel_multi_index(tuple(relabelled.T), digits)
        np.not_equal(selected[:, None], template, out=out[:, i * size : (i + 1) * size])
    return out


def inconsistent_constraints(oi: OrderedInstance) -> list[Constraint]:
    """Constraints the ranking violates, lexicographic by members."""
    inst = oi.instance
    bad = np.flatnonzero(oi.violated)
    members = map(tuple, subsets(inst.n, inst.r)[bad].tolist())
    rows = inst.selected[bad].tolist()
    return [Constraint(m, selected_datum(inst.kind, row)) for m, row in zip(members, rows)]


def fault_count(oi: OrderedInstance) -> int:
    return int(oi.violated.sum())


def induced(
    inst: Instance, subset: Iterable[VertexId]
) -> tuple[Instance, dict[VertexId, VertexId]]:
    """Sub-instance on `subset`, densely relabelled to 0..m-1.

    The relabel map (old id -> new id) assigns new ids by ascending old
    id.  Raises EmptyInstanceError when the subset is smaller than the
    arity, because no dense instance exists there.
    """
    kept = sorted(set(subset))
    r = inst.kind.r
    if len(kept) < r:
        raise EmptyInstanceError(f"induced subset has {len(kept)} vertices, arity is {r}")
    if kept[0] < 0 or kept[-1] >= inst.n:
        raise DensityError(f"subset {kept} not within 0..{inst.n - 1}")
    relabel = {v: i for i, v in enumerate(kept)}
    # The relabel is monotone, so kept rows stay in lexicographic order
    # and BETWEENNESS pairs stay increasing.
    lookup = np.full(inst.n, -1, dtype=np.int64)
    lookup[kept] = np.arange(len(kept))
    # a row is kept when every member column holds a kept id
    inside = lookup >= 0
    members = subsets(inst.n, r)
    rows = functools.reduce(np.logical_and, [inside[members[:, j]] for j in range(r)])
    return Instance._from_table(len(kept), inst.kind, lookup[inst.selected[rows]]), relabel


def nth_combination(n: int, r: int, index: int) -> tuple[int, ...]:
    """The index-th r-subset of 0..n-1 in lexicographic order."""
    if not 0 <= index < comb(n, r):
        raise IndexError(f"combination index {index} out of range for C({n},{r})")
    out = []
    x = 0
    for slot in range(r, 0, -1):
        while comb(n - x - 1, slot - 1) <= index:
            index -= comb(n - x - 1, slot - 1)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)
