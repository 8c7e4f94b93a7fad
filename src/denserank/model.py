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
Outside data is checked once, by `Instance(...)` or the file parser,
with the selected-data rule written here as a scalar
(`validate_constraint`) and a batch (`batch_valid`), next to the
lexicographic subset rank (`Instance._row`, batch `Instance._ranks`).

Each family's verdict is written here once per form and nowhere else:
`satisfied_data` (numpy: the selected data a ranking satisfies on a
table of member rows; `satisfied_selected` is its one-row call) and
`batch_verdict` (numpy: ranking positions to a satisfied mask;
`member_verdict` runs the same rule on each constraint's own member
positions, and `order_violations` tabulates it over every member
order).  Everything that judges a ranking is built on these.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, Union

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


def validate_constraint(kind: ProblemKind, c: Constraint) -> None:
    m = c.members
    if len(m) != kind.r or any(m[i] >= m[i + 1] for i in range(len(m) - 1)):
        raise InvalidConstraintError(f"members must be {kind.r} strictly increasing ids: {m}")
    sel = c.selected
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
    # every selected id is a member; tfast's r of them must also be distinct
    for ids in selected:
        ok &= functools.reduce(np.logical_or, [ids == m for m in members])
    if kind.family is Family.BETWEENNESS:
        ok &= selected[0] < selected[1]
    elif kind.family is Family.TRANSITIVE_FAST:
        for i, j in itertools.combinations(range(len(selected)), 2):
            ok &= selected[i] != selected[j]
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


def _rank_terms(n: int, r: int, ids) -> np.ndarray:
    """The (r, len(ids)) table of the terms comb(n - 1 - v, r - i) of
    `Instance._ranks` over `ids`; int64 when C(n, r) fits in it, else
    Python ints.  Slot i of a valid subset holds v >= i; below that the
    term is never used and could outgrow C(n, r), so it is tabled as 0."""
    dtype = np.int64 if comb(n, r) <= np.iinfo(np.int64).max else object
    rows = [[comb(n - 1 - v, r - i) if v >= i else 0 for v in ids] for i in range(r)]
    return np.array(rows, dtype=dtype)


@functools.lru_cache(maxsize=8)
def _dense_rank_terms(n: int, r: int) -> np.ndarray:
    """`_rank_terms` over every id 0..n-1 (read-only)."""
    terms = _rank_terms(n, r, range(n))
    terms.flags.writeable = False
    return terms


def constraint_from_row(kind: ProblemKind, members: tuple[VertexId, ...], row: list) -> Constraint:
    """The constraint on `members` whose selected datum is a table row."""
    return Constraint(members, row[0] if kind.family is Family.FAST else tuple(row))


class Instance:
    """Dense instance: one constraint per r-subset of 0..n-1."""

    __slots__ = ("n", "kind", "selected")

    def __init__(self, n: int, kind: ProblemKind, constraints: Iterable[Constraint]):
        if n < kind.r:
            raise EmptyInstanceError(f"need at least r={kind.r} vertices, got n={n}")
        by_members: dict[tuple[VertexId, ...], SelectedData] = {}
        for c in constraints:
            validate_constraint(kind, c)
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

    def constraints(self) -> Iterator[Constraint]:
        """All constraints, lexicographic by member tuple."""
        members = itertools.combinations(range(self.n), self.r)
        rows = self.selected.tolist()
        return (constraint_from_row(self.kind, m, row) for m, row in zip(members, rows))

    def _row(self, members: Iterable[VertexId]) -> tuple[tuple[VertexId, ...], int]:
        """The sorted member tuple and its lexicographic rank."""
        key = tuple(sorted(members))
        n, r = self.n, self.r
        valid = len(key) == r and 0 <= key[0] and key[-1] < n
        if not valid or any(key[i] == key[i + 1] for i in range(r - 1)):
            raise DensityError(f"no constraint for subset {key}")
        return key, comb(n, r) - 1 - sum(comb(n - 1 - v, r - i) for i, v in enumerate(key))

    @staticmethod
    def _ranks(n: int, r: int, members: np.ndarray) -> np.ndarray:
        """Batch form of `_row`'s rank: the (C,) lexicographic ranks of the
        columns of `members`, (r, C) with strictly increasing ids in 0..n-1
        down each column.  int64 when C(n, r) fits in it, else Python ints."""
        # the terms are tabled over the ids 0..n-1 (once per n and r), or
        # over the ids that occur when there are fewer cells than ids
        if n <= members.size:
            terms, slots = _dense_rank_terms(n, r), members
        else:
            ids, slots = np.unique(members, return_inverse=True)
            terms, slots = _rank_terms(n, r, ids.tolist()), slots.reshape(members.shape)
        ranks = np.full(members.shape[1], comb(n, r) - 1, dtype=terms.dtype)
        for i in range(r):
            ranks -= terms[i][slots[i]]
        return ranks

    def constraint(self, members: Iterable[VertexId]) -> Constraint:
        key, row = self._row(members)
        return constraint_from_row(self.kind, key, self.selected[row].tolist())

    def replace(self, changes: Mapping[tuple[VertexId, ...], Constraint]) -> "Instance":
        """New instance with the given subsets' constraints swapped out."""
        table = self.selected.copy()
        for key, c in changes.items():
            key, row = self._row(key)
            if c.members != key:
                raise InvalidConstraintError(f"replacement members {c.members} != subset {key}")
            validate_constraint(self.kind, c)
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
        """Read-only mask of the violated constraints: one batch verdict, on first read."""
        mask = ~batch_verdict(self.instance)(np.array([self.sigma.position], dtype=np.int64))[0]
        mask.flags.writeable = False
        return mask


def satisfied_data(kind: ProblemKind, members: np.ndarray, position: np.ndarray) -> np.ndarray:
    """The selected data that a ranking satisfies, one row per member row.

    `members` is a (C, r) table of distinct vertex ids per row and
    `position` the ranking's position vector (position[v] is the
    position of vertex v).  Returns the (C, width) int64 table, one row
    per constraint: for FAST the last-ranked member; for BETWEENNESS the
    first- and last-ranked members as an increasing pair; for
    TRANSITIVE_FAST the members in ranking order.
    """
    members = np.asarray(members, dtype=np.int64)
    order = np.argsort(np.asarray(position, dtype=np.int64)[members], axis=1)
    by_rank = np.take_along_axis(members, order, axis=1)
    if kind.family is Family.FAST:
        return by_rank[:, -1:].copy()
    if kind.family is Family.BETWEENNESS:
        return np.sort(by_rank[:, [0, -1]], axis=1)
    return by_rank


def satisfied_selected(
    kind: ProblemKind, members: tuple[VertexId, ...], ranking: Ranking
) -> SelectedData:
    """The one selected datum on `members` that `ranking` satisfies
    (`satisfied_data` on one row)."""
    row = satisfied_data(kind, [members], ranking.position)[0].tolist()
    return constraint_from_row(kind, members, row).selected


def _verdict(family: Family, members: np.ndarray, columns: np.ndarray):
    """The family's verdict over position rows: `members` (C, r) and the
    selected columns `columns` (width, C) index into each row."""
    if family is Family.FAST:
        (sel,) = columns

        def verdict(pos: np.ndarray) -> np.ndarray:
            return pos[:, sel] == pos[:, members].max(axis=2)

    elif family is Family.BETWEENNESS:
        first, second = columns

        def verdict(pos: np.ndarray) -> np.ndarray:
            mp = pos[:, members]
            lo = mp.min(axis=2)
            hi = mp.max(axis=2)
            pa = pos[:, first]
            pb = pos[:, second]
            return ((pa == lo) & (pb == hi)) | ((pa == hi) & (pb == lo))

    else:

        def verdict(pos: np.ndarray) -> np.ndarray:
            ok = np.ones((pos.shape[0], len(members)), dtype=bool)
            left = pos[:, columns[0]]
            for column in columns[1:]:
                right = pos[:, column]
                ok &= left < right
                left = right
            return ok

    return verdict


def batch_verdict(inst: Instance) -> Callable[[np.ndarray], np.ndarray]:
    """Compile the instance into a batch verdict.

    The returned function maps an (m, n) matrix whose rows are ranking
    positions (row[v] is the position of vertex v) to the (m, C) mask of
    satisfied constraints, columns in lexicographic member order.
    """
    members = subsets(inst.n, inst.r)
    return _verdict(inst.kind.family, members, np.ascontiguousarray(inst.selected.T))


def member_verdict(inst: Instance) -> Callable[[np.ndarray], np.ndarray]:
    """The batch verdict with every constraint under its own member order.

    The returned function maps an (m, C, r) array of member positions
    (entry [i, c, j] is the position of the j-th member of constraint c)
    to the (m, C) satisfied mask.  Each member slot of each constraint is
    its own column of a position row, so `batch_verdict`'s rule runs
    unchanged.
    """
    members = subsets(inst.n, inst.r)
    count, r = members.shape
    slots = np.arange(count * r).reshape(count, r)
    # the slot of each selected vertex within its member row
    where = (inst.selected[:, :, None] == members[:, None, :]).argmax(axis=2)
    verdict = _verdict(inst.kind.family, slots, np.ascontiguousarray((slots[:, :1] + where).T))
    return lambda pos: verdict(pos.reshape(len(pos), count * r))


_WHOLE_ORDERS = 8  # arity up to which `order_violations` scores all orders at once


@functools.lru_cache(maxsize=None)
def member_orders(r: int) -> np.ndarray:
    """The r! orders of r member slots, lexicographic and read-only.

    Row o lists the slots first-ranked first, so row 0 is the members'
    own increasing order.
    """
    orders = np.array(list(itertools.permutations(range(r))), dtype=np.int64)
    orders.flags.writeable = False
    return orders


def order_violations(inst: Instance) -> np.ndarray:
    """The (C, r!) mask of every member order of every constraint.

    Entry [c, o] is True when constraint c is violated by a ranking that
    puts its members in the o-th member order, lexicographically (row o
    of `member_orders(r)`).  One `member_verdict` pass per 8! orders;
    positions are int8, so its temporaries take a few bytes per
    (constraint, order, member).  Above r = 8 the orders are built one
    block of fixed leading slots at a time, so the r! x r table of
    `member_orders(r)` is never built.
    """
    r = inst.r
    lead = max(r - _WHOLE_ORDERS, 0)
    tail = np.argsort(member_orders(r - lead), axis=1).astype(np.int8)  # position of each slot
    shape = (len(tail), inst.constraint_count(), r)
    verdict = member_verdict(inst)
    blocks = []
    for head in itertools.permutations(range(r), lead):
        rest = [slot for slot in range(r) if slot not in head]
        pos = np.empty((len(tail), r), dtype=np.int8)
        pos[:, list(head)] = np.arange(lead)
        pos[:, rest] = tail + lead
        blocks.append(~verdict(np.broadcast_to(pos[:, None, :], shape)).T)
    return np.concatenate(blocks, axis=1)


def evaluate(kind: ProblemKind, c: Constraint, ranking: Ranking) -> bool:
    """Does `ranking` satisfy this constraint?"""
    return satisfied_selected(kind, c.members, ranking) == c.selected


def inconsistent_constraints(oi: OrderedInstance) -> list[Constraint]:
    """Constraints the ranking violates, lexicographic by members."""
    inst = oi.instance
    bad = np.flatnonzero(oi.violated)
    members = map(tuple, subsets(inst.n, inst.r)[bad].tolist())
    rows = inst.selected[bad].tolist()
    return [constraint_from_row(inst.kind, m, row) for m, row in zip(members, rows)]


def fault_count(oi: OrderedInstance) -> int:
    return int(oi.violated.sum())


def span(c: Constraint, ranking: Ranking) -> tuple[tuple[VertexId, ...], bool]:
    """Vertices between the constraint's extreme positions, inclusive.

    Returned in ranking order, together with a flag telling whether the
    members sit consecutively (span size equals arity).
    """
    ps = [ranking.pos(v) for v in c.members]
    lo, hi = min(ps), max(ps)
    vertices = tuple(ranking.order[lo : hi + 1])
    return vertices, len(vertices) == len(c.members)


def span_minus(c: Constraint, ranking: Ranking) -> tuple[VertexId, ...]:
    """The span extended with every vertex ranked before it."""
    hi = max(ranking.pos(v) for v in c.members)
    return tuple(ranking.order[: hi + 1])


def edit_wrt(kind: ProblemKind, c: Constraint, ranking: Ranking) -> Constraint:
    """The unique constraint on the same members that `ranking` satisfies."""
    return Constraint(c.members, satisfied_selected(kind, c.members, ranking))


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
    rows = (lookup[subsets(inst.n, r)] >= 0).all(axis=1)
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
