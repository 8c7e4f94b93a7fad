"""Exact ground-truth oracle with two engines.

* Subset DP (Held and Karp 1962), for every kind with arity r <= 3.
  Build a ranking front to back.  A constraint is charged when its
  second-to-last member v goes on top of the placed set S: then at most
  r - 2 <= 1 of its members are in S and the rest come later, so its
  whole member order is known.  The cost of that step depends only on
  (S, v), and g(S) = min over v not in S of cost(S, v) + g(S + v)
  is a table over the 2^n vertex subsets.
* Prefix search, for r >= 4, where a constraint's verdict is not fixed
  by the set of vertices placed before it.  Rankings are again built
  front to back, and their prefixes are visited in lexicographic order;
  a prefix whose bound is above a budget K is cut off with everything
  below it.  A constraint's state is the ordered tuple of its members
  placed so far, and `settled[c, state]` is the fewest violations of c
  over every member order extending that state: its verdict at full
  depth, the minimum over the one-slot extensions below that.  A
  prefix's bound, the sum of its constraints' settled values, never
  falls as the prefix grows and is the fault count once the prefix is a
  whole ranking; placing v moves only the C(n-1, r-1) constraints that
  hold v.  `decide` searches with K = k and stops at the first complete
  ranking.  `min_inconsistencies` takes K from the fault count of a
  greedy dive, which follows one prefix to a whole ranking, and, each
  time the search completes a ranking of cost B, prunes the rest of it
  at B - 1.  Only the settled table depends on the instance: the state
  transitions depend on (n, r) alone and are built once per pair
  (`_search_tables`).  A move counts the unplaced members before v with
  `np.bitwise_count`, so nothing of size 2^n is built and the search
  has no set-up cost exponential in n.  Prefixes are extended a block
  at a time, depth first, and the stack keeps at most one block of at
  most `_BLOCK` prefixes per depth, so the search holds about
  n * `_BLOCK` * C constraint states whatever the budget.

Both report the lexicographically first optimal ranking: the DP
rebuilds its witness front to back, each time placing the smallest
vertex that still reaches the optimum, and the prefix search keeps a
ranking only when it is cheaper than every ranking before it in
lexicographic order.  Each engine refuses instances above its own vertex
cap (`DEFAULT_CAPS`) unless the caller passes an explicit cap.

Both engines read the family's rule once, through
`model.order_violations`: the violation of every member order of every
constraint.  The prefix search recounts the ranking it returns with
`model.fault_count`.  The tests pin both engines against each other,
against the n! enumerator they replaced and against an independently
written pure-Python enumerator.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import factorial
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import EnumerationCapError, OracleError, SemanticsError
from .model import (
    Instance,
    OrderedInstance,
    ProblemKind,
    Ranking,
    VertexId,
    fault_count,
    induced,
    member_orders,
    order_violations,
    subsets,
)

SUBSET_DP = "subset-dp"
PREFIX_SEARCH = "prefix-search"
DEFAULT_CAPS = {SUBSET_DP: 18, PREFIX_SEARCH: 10}

_BLOCK = 1024  # children per extend, the most prefixes held at one depth; at least n
_PLACED = 1 << 24  # step cost of a vertex already placed; far above any real sum


@dataclass(frozen=True)
class ExactResult:
    """Optimum and witness, with the engine that found them and how much
    it searched: DP states (2^n) or ranking prefixes extended."""

    opt: int
    witness: Ranking
    engine: str
    searched: int


def _engine(kind: ProblemKind) -> str:
    return SUBSET_DP if kind.r <= 3 else PREFIX_SEARCH


def refuses(kind: ProblemKind, n: int, cap: Optional[int] = None) -> bool:
    """Would the oracle refuse an instance of this kind on n vertices?
    `cap=None` means the default cap of the engine that would run."""
    return n > _cap(_engine(kind), cap)


def _cap(engine: str, cap: Optional[int]) -> int:
    return DEFAULT_CAPS[engine] if cap is None else cap


def _check_cap(engine: str, n: int, cap: Optional[int]) -> None:
    cap = _cap(engine, cap)
    if n <= cap:
        return
    if engine == SUBSET_DP:
        work = f"a table over {2 ** n} vertex subsets"
    else:
        work = f"a search over the prefixes of up to {factorial(n)} rankings"
    raise EnumerationCapError(
        f"exact {engine} over {n} vertices exceeds the cap of {cap}; "
        f"raise the cap explicitly if you really want {work}"
    )


# ---------------------------------------------------------------------------
# prefix search


class _Prefixes(NamedTuple):
    """Ranking prefixes of one length, in lexicographic order."""

    order: np.ndarray  # (m, d) the placed vertices, first-ranked first
    placed: np.ndarray  # (m,) bitmask of the placed vertices
    state: np.ndarray  # (m, C) each constraint's state: its column of the table
    bound: np.ndarray  # (m,) settled violations

    def take(self, rows) -> "_Prefixes":
        return _Prefixes(*(column[rows] for column in self))


class _Tables(NamedTuple):
    """What the prefix search reads that depends only on (n, r)."""

    first: np.ndarray  # (C * width,) the state after placing the smallest unused slot
    held: np.ndarray  # (n, H) the constraints holding each vertex v
    low: np.ndarray  # (n, H) bitmask of their members in the slots before v's
    bits: np.ndarray  # (n,) the bit of each vertex
    root: _Prefixes  # the empty prefix


@functools.lru_cache(maxsize=8)
def _search_tables(n: int, r: int) -> _Tables:
    """The state-transition tables of the prefix search over n vertices
    at arity r (read-only); see `_PrefixSearch` for the layout."""
    members = subsets(n, r)
    count = len(members)
    # level j holds the r! / (r - j)! tuples of j member slots
    sizes = [factorial(r) // factorial(r - j) for j in range(r)]
    offset = [0, *itertools.accumulate(sizes)]
    width = offset[-1]
    dtype = np.uint16 if count * width <= 1 << 16 else np.int32
    states = np.arange(count, dtype=dtype)[:, None] * width
    first = np.empty((count, width), dtype=dtype)
    for j, size in enumerate(sizes):
        grown = first[:, offset[j] : offset[j + 1]]
        grown[:] = np.arange(size, dtype=dtype)
        if j < r - 1:
            grown *= r - j
        grown += offset[min(j + 1, r - 1)]
    first += states
    bits = _bits(n)
    _, held, slot = np.nonzero(members == np.arange(n)[:, None, None])
    held, slot = held.reshape(n, -1), slot.reshape(n, -1)
    before = np.arange(r) < slot[..., None]
    low = np.where(before, bits[members[held]], 0).sum(axis=2)
    root = _Prefixes(
        np.zeros((1, 0), dtype=np.int8),
        np.zeros(1, dtype=np.int64),
        states.T.copy(),
        np.zeros(1, dtype=np.int64),
    )
    tables = _Tables(first.ravel(), held, low, bits, root)
    for array in (*tables[:-1], *root):
        array.flags.writeable = False
    return tables


class _PrefixSearch:
    """The settled table of one instance and the searches over it.

    Tuples of j member slots are ranked lexicographically; the children
    of tuple t, one per unused slot i in increasing order, are ranks
    rank(t) * (r - j) + i among the tuples of length j + 1.  So level j
    of the table is level j + 1 reshaped to r - j columns per row and
    reduced by `min`.  A tuple of r - 1 slots fixes the last one, so
    level r - 1 is `order_violations`, whose member orders are
    lexicographic too, and placing the last member keeps the state.

    A state indexes the flat table: constraint c's tuple of j slots with
    rank q is c * width + offset[j] + q.  Everything but the table itself
    depends only on (n, r) and comes from `_search_tables`.  `searched`
    counts prefixes extended.
    """

    def __init__(self, inst: Instance):
        r = inst.r
        levels = [order_violations(inst).astype(np.int8)]
        count = len(levels[0])
        for j in range(r - 2, -1, -1):
            levels.append(levels[-1].reshape(count, -1, r - j).min(axis=2))
        levels.reverse()
        self.settled = np.concatenate(levels, axis=1).ravel()
        self.tables = _search_tables(inst.n, r)
        self.n, self.inst = inst.n, inst
        self.searched = 0

    def _step(
        self, state: np.ndarray, base, placed, vs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For each candidate i, vertex vs[i] placed after the prefix with
        vertex set placed[i] whose flat states start at state[base[i]]:
        the constraints it moves, their new states and the bound's
        increase."""
        held = self.tables.held[vs]
        # (gathers index with intp arrays: numpy converts any other type slowly)
        old = state.take(base + held).astype(np.intp)
        # v's index among each constraint's unused slots: its unplaced members before v
        unused = np.bitwise_count(~placed & self.tables.low[vs])
        new = np.add(self.tables.first.take(old), unused, dtype=np.intp)
        gain = self.settled.take(new) - self.settled.take(old)
        return held, new, gain.sum(axis=1, dtype=np.int64)

    def extend(self, block: _Prefixes, budget: int) -> _Prefixes:
        """Every one-vertex extension of the block with bound at most
        `budget`, in lexicographic order."""
        order, placed, state, bound = block
        self.searched += len(bound)
        rows, vs = np.nonzero((placed[:, None] & self.tables.bits) == 0)
        width = state.shape[1]
        held, new, gain = self._step(state.ravel(), rows[:, None] * width, placed[rows, None], vs)
        cost = bound[rows] + gain
        kept = np.flatnonzero(cost <= budget)
        parent, vs = rows[kept], vs[kept]
        child = state[parent]
        child.put(np.arange(len(kept))[:, None] * width + held[kept], new[kept])
        return _Prefixes(
            np.concatenate((order[parent], vs[:, None].astype(np.int8)), axis=1),
            placed[parent] | self.tables.bits[vs],
            child,
            cost[kept],
        )

    def _complete(self, order: np.ndarray) -> tuple[VertexId, ...]:
        """The whole ranking of a prefix that misses one vertex; at that
        depth every constraint's member order is known, so the bound
        is the ranking's fault count."""
        last = self.n * (self.n - 1) // 2 - int(order.sum())
        return (*order.tolist(), last)

    def dive(self) -> int:
        """Fault count of the greedy ranking that places, at each step,
        the smallest vertex with the least bound increase."""
        state = self.tables.root.state[0].copy()
        placed, bound = np.int64(0), 0
        for _ in range(self.n - 1):
            self.searched += 1
            vs = np.flatnonzero((placed & self.tables.bits) == 0)
            held, new, gain = self._step(state, 0, placed, vs)
            i = int(np.argmin(gain))
            state.put(held[i], new[i])
            placed |= self.tables.bits[vs[i]]
            bound += int(gain[i])
        return bound

    def search(self, budget: int, first: bool) -> Optional[tuple[int, tuple[VertexId, ...]]]:
        """The lexicographically first ranking among those with the
        fewest faults, if at most `budget`; with `first`, the
        lexicographically first ranking with at most `budget` faults.

        Prefixes are extended depth first.  The stack holds at most one
        block per depth, deepest on top, and every prefix of a block
        precedes those of the blocks below it, so complete rankings
        arrive in lexicographic order.  Each pop extends only as many
        parents of the top block as make at most `_BLOCK` children and
        puts the rest back, so memory stays about n * `_BLOCK` * C
        states whatever the budget.  Each complete ranking kept lowers
        the budget to one below its cost; a child costs at least its
        parent, so `extend` drops the children of stacked prefixes
        above the fallen budget.
        """
        found = None
        stack = [self.tables.root]
        while stack and budget >= 0:
            block = stack.pop()
            depth = block.order.shape[1]
            split = _BLOCK // (self.n - depth)  # parents whose children fill one block
            if len(block.bound) > split:
                stack.append(block.take(slice(split, None)))
                block = block.take(slice(split))
            block = self.extend(block, budget)
            if not len(block.bound):
                continue
            if depth + 1 < self.n - 1:
                stack.append(block)
                continue
            i = 0 if first else int(np.argmin(block.bound))
            found = int(block.bound[i]), self._complete(block.order[i])
            if first:
                break
            budget = found[0] - 1
        if found is not None:
            self._recount(*found)
        return found

    def _recount(self, cost: int, order: tuple[VertexId, ...]) -> None:
        faults = fault_count(OrderedInstance(self.inst, Ranking(order)))
        if faults != cost:
            raise OracleError(
                f"prefix search bound {cost} differs from the {faults} faults of ranking {order}"
            )


def min_by_prefix_search(inst: Instance, cap: Optional[int] = None) -> ExactResult:
    """The optimum by a search over ranking prefixes, budgeted by a
    greedy dive; the witness is the lexicographically first optimum."""
    _check_cap(PREFIX_SEARCH, inst.n, cap)
    search = _PrefixSearch(inst)
    budget = search.dive()
    found = search.search(budget, first=False)
    if found is None:
        raise OracleError(f"prefix search found no ranking within the greedy ranking's {budget} faults")
    opt, order = found
    return ExactResult(opt, Ranking(order), PREFIX_SEARCH, search.searched)


# ---------------------------------------------------------------------------
# subset DP


def _order_violations(inst: Instance) -> np.ndarray:
    """The violation table of every member order of every constraint.

    r = 3: W[v, a, b] is 1 when the constraint on {a, v, b} is violated
    by the order a, v, b.  r = 2: W[v, b] is 1 when the constraint on
    {v, b} is violated by v before b.  Entries with repeated vertices
    are 0.
    """
    n, r = inst.n, inst.r
    # (C, r!, r): each constraint's members in each order
    placed = subsets(n, r)[:, member_orders(r)]
    table = np.zeros((n,) * r, dtype=np.int32)
    # index by the second-to-last member placed, then the others in order
    table[tuple(placed[..., j] for j in (r - 2, *range(r - 2), r - 1))] = order_violations(inst)
    return table


def _step_costs(inst: Instance) -> np.ndarray:
    """cost[S, v]: faults charged when v is placed right after the
    vertex set S (a bitmask), i.e. the sum of W[v, a, b] over a in S and
    b outside S + v (r = 3), or of W[v, b] over b outside S (r = 2).

    Rows are built by doubling: adding vertex j to a set S of smaller
    vertices changes every v's cost by a term that is itself linear in
    S.  Entries with v already in S are `_PLACED`, so no minimum takes
    them.
    """
    table = _order_violations(inst)
    n = inst.n
    cost = np.empty((1 << n, n), dtype=np.int32)
    if inst.r == 2:
        cost[0] = table.sum(axis=1)
        for j in range(n):
            h = 1 << j
            np.subtract(cost[:h], table[:, j], out=cost[h : 2 * h])
    else:
        cost[0] = 0
        after = table.sum(axis=2)  # after[v, j] = sum of W[v, j, b] over b
        linear = np.empty((1 << (n - 1), n), dtype=np.int32)
        for j in range(n):
            h = 1 << j
            # linear[S, v] = sum over b in S of W[v, j, b] + W[v, b, j]
            pair = table[:, j, :] + table[:, :, j]
            linear[0] = 0
            for i in range(j):
                np.add(linear[: 1 << i], pair[:, i], out=linear[1 << i : 2 << i])
            np.subtract(cost[:h] + after[:, j], linear[:h], out=cost[h : 2 * h])
    for v in range(n):
        # rows whose bit v is set: the upper half of every block of 2^(v+1)
        cost.reshape(-1, 2, 1 << v, n)[:, 1, :, v] = _PLACED
    return cost


def _subset_table(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Step costs and g, where g[S] is the fewest faults charged while
    placing the vertices outside S after S; g[0] is the optimum.  g is
    filled one popcount layer at a time, from the full set down."""
    if inst.r > 3:
        raise SemanticsError(f"the subset DP needs arity <= 3, got r={inst.r}")
    n = inst.n
    cost = _step_costs(inst)
    size = np.bitwise_count(np.arange(1 << n))
    by_size = np.argsort(size, kind="stable")
    starts = np.searchsorted(size[by_size], np.arange(n + 1))
    bits = _bits(n)
    best = np.zeros(1 << n, dtype=np.int32)
    for k in range(n - 1, -1, -1):
        layer = by_size[starts[k] : starts[k + 1]]
        best[layer] = (cost[layer] + best[layer[:, None] | bits]).min(axis=1)
    return cost, best


def _bits(n: int) -> np.ndarray:
    return np.left_shift(1, np.arange(n, dtype=np.int64))


def min_by_subset_dp(inst: Instance, cap: Optional[int] = None) -> ExactResult:
    """The optimum from the subset table; the witness places, at each
    step, the smallest vertex that still reaches the optimum."""
    _check_cap(SUBSET_DP, inst.n, cap)
    cost, best = _subset_table(inst)
    bits = _bits(inst.n)
    placed, order = 0, []
    for _ in range(inst.n):
        v = int(np.argmax(cost[placed] + best[placed | bits] == best[placed]))
        order.append(v)
        placed |= 1 << v
    return ExactResult(int(best[0]), Ranking(tuple(order)), SUBSET_DP, 1 << inst.n)


# ---------------------------------------------------------------------------
# public entry points


def min_inconsistencies(inst: Instance, cap: Optional[int] = None) -> ExactResult:
    """Minimum fault count over all rankings, with the lexicographically
    first ranking attaining it."""
    if _engine(inst.kind) == SUBSET_DP:
        return min_by_subset_dp(inst, cap)
    return min_by_prefix_search(inst, cap)


def decide(inst: Instance, k: int, cap: Optional[int] = None) -> bool:
    """Is there a ranking violating at most k constraints?

    The subset DP (r <= 3) compares its optimum with k.  The prefix
    search runs with budget k and stops at the first ranking within it.
    """
    if k < 0:
        return False
    engine = _engine(inst.kind)
    _check_cap(engine, inst.n, cap)
    if engine == SUBSET_DP:
        return int(_subset_table(inst)[1][0]) <= k
    return _PrefixSearch(inst).search(k, first=True) is not None


def is_conflict(inst: Instance, subset: Iterable[VertexId], cap: Optional[int] = None) -> bool:
    """Does `subset` admit no consistent ranking of its sub-instance?

    Subsets smaller than the arity carry no constraints and are
    vacuously consistent, hence never conflicts.
    """
    vertices = sorted(set(subset))
    if len(vertices) < inst.kind.r:
        return False
    sub, _ = induced(inst, vertices)
    return not decide(sub, 0, cap=cap)
