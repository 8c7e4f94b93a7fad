"""Exact ground-truth oracle with two engines.

* Subset DP (Held and Karp 1962), for every kind with arity r <= 3.
  Build a ranking front to back.  A constraint is charged when its
  second-to-last member v goes on top of the placed set S: then at most
  r - 2 <= 1 of its members are in S and the rest come later, so its
  whole member order is known.  The cost of that step depends only on
  (S, v), and g(S) = min over v not in S of cost(S, v) + g(S + v)
  is a table over the 2^n vertex subsets.
* Enumeration of all n! rankings, for r >= 4, where a constraint's
  verdict is not fixed by such a prefix.  It is also the cross-check of
  the DP in the tests.

Both report the lexicographically first optimal ranking: enumeration
scans rankings in lexicographic order, and the DP rebuilds its witness
front to back, each time placing the smallest vertex that still reaches
the optimum.  Each engine refuses instances above its own vertex cap
(`DEFAULT_CAPS`) unless the caller passes an explicit cap.

The per-family verdict lives in `model.batch_verdict`: enumeration runs
it over blocks of permutations, and the DP reads
`model.order_violations`, which runs it once on every member order of
every constraint.
The tests pin both against an independently written pure-Python
enumerator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import EnumerationCapError, SemanticsError
from .model import (
    Instance,
    ProblemKind,
    Ranking,
    VertexId,
    batch_verdict,
    induced,
    member_orders,
    order_violations,
    subsets,
)

SUBSET_DP = "subset-dp"
ENUMERATION = "enumeration"
DEFAULT_CAPS = {SUBSET_DP: 18, ENUMERATION: 10}

_BLOCK = 40320  # 8!, so instances up to n = 8 fit in a single block
_PLACED = 1 << 24  # step cost of a vertex already placed; far above any real sum


@dataclass(frozen=True)
class ExactResult:
    """Optimum and witness, with the engine that found them and how much
    it searched: DP states (2^n) or rankings scored."""

    opt: int
    witness: Ranking
    engine: str
    searched: int


def _engine(kind: ProblemKind) -> str:
    return SUBSET_DP if kind.r <= 3 else ENUMERATION


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
        work = f"{factorial(n)} rankings"
    raise EnumerationCapError(
        f"exact {engine} over {n} vertices exceeds the cap of {cap}; "
        f"raise the cap explicitly if you really want {work}"
    )


# ---------------------------------------------------------------------------
# enumeration


def _perm_blocks(n: int) -> Iterator[np.ndarray]:
    stream = itertools.permutations(range(n))
    while True:
        block = list(itertools.islice(stream, _BLOCK))
        if not block:
            return
        yield np.array(block, dtype=np.int8)


def _positions(perms: np.ndarray) -> np.ndarray:
    m, n = perms.shape
    pos = np.empty_like(perms)
    pos[np.arange(m)[:, None], perms] = np.arange(n, dtype=perms.dtype)
    return pos


def _block_faults(inst: Instance) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each permutation block with its per-ranking fault counts."""
    verdict = batch_verdict(inst)
    total = inst.constraint_count()
    for perms in _perm_blocks(inst.n):
        # Holding `ok` until the next block replaces it keeps glibc malloc
        # from trimming the block's temporaries off the heap and faulting
        # them back in (25% on betweenness at n = 9, 2-core Linux host).
        ok = verdict(_positions(perms))
        yield perms, total - ok.sum(axis=1, dtype=np.int64)


def min_by_enumeration(inst: Instance, cap: Optional[int] = None) -> ExactResult:
    """The optimum by scoring rankings in lexicographic order; stops
    after the first block holding a consistent ranking."""
    _check_cap(ENUMERATION, inst.n, cap)
    best = best_order = None
    scored = 0
    for perms, counts in _block_faults(inst):
        scored += len(perms)
        i = int(np.argmin(counts))
        if best is None or counts[i] < best:
            best = int(counts[i])
            best_order = tuple(perms[i].tolist())
            if best == 0:
                break
    return ExactResult(best, Ranking(best_order), ENUMERATION, scored)


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
    size = np.zeros(1 << n, dtype=np.int8)
    for j in range(n):
        np.add(size[: 1 << j], 1, out=size[1 << j : 2 << j])
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
    return min_by_enumeration(inst, cap)


def decide(inst: Instance, k: int, cap: Optional[int] = None) -> bool:
    """Is there a ranking violating at most k constraints?

    The subset DP (r <= 3) compares its optimum with k.  Enumeration
    stops at the first witness, so a NO answer scans all n! rankings.
    """
    if k < 0:
        return False
    engine = _engine(inst.kind)
    _check_cap(engine, inst.n, cap)
    if engine == SUBSET_DP:
        return int(_subset_table(inst)[1][0]) <= k
    return any(bool((counts <= k).any()) for _, counts in _block_faults(inst))


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
