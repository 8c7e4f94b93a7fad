"""Kernelization by sunflower edits and vertex drops.

A simple sunflower is an inconsistent center constraint plus petals:
supersets of the center that pairwise share exactly the center's members
and each contain exactly one violated constraint (the center itself).
When more than k disjoint petals exist, any solution editing at most k
constraints must edit the center, and must edit it to agree with the
current ranking; doing so and decrementing k preserves the answer.
Centers and batches of petals are counted from one cached mask per
ranked instance, `OrderedInstance.violated`, with no per-subset lookup.

A fault is a row: the drivers hold faults as the indices of the
violated rows of that mask, a center is one such row (the same row of
`Instance.selected`), and an edit writes the satisfied datum into that
row of a copy of the table, which the trace record then reads back.
The drivers build no constraint record on the way.

Two drivers are provided.  `kernelize_characterized` works for the
families whose single faults certify bounded conflicts (BETWEENNESS,
TRANSITIVE_FAST) with petals of the family's certified width (its
conflict size minus r); the ranking comes from a pluggable provider,
is kept for the whole run, and its fault count p bounds the output
size.  `kernelize_fast` is the FAST pipeline: every round recomputes
the Inc-Degree ranking of the current instance, gates on its fault
count p (YES at p <= k, NO at p > 5k by the 5-approximation), drops
always-selected (and at r = 2 cycle-free) vertices exhaustively, all of
them read off the in-degree profile and removed by one `induced`, and
otherwise flips one violated constraint certified by more than k
petals, terminating with at most p + k + r vertices.  Pair constraints
get an extra certificate: when single-vertex petals run short, disjoint
groups of one to three vertices stand in for them, each taken when its
union with the center holds a directed triangle (the groups need not be
single-fault, only conflicts).  `_find_conflict_packing` takes them by
one greedy rule, and `_apply_packing_edit` re-checks that same rule.

All rule applications land in the outcome's trace, one record per
application, so a reduction can be replayed or audited line by line.
Vertex ids in trace records refer to the instance as it was when the
rule fired (drops relabel ids densely).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Callable, Iterable, Optional, Union

import numpy as np

from . import oracle
from .approx import in_degrees, inc_degree_ranking
from .characterize import default_conflict_size, single_fault_config, violating_selected_values
from .errors import (
    KernelDriverError,
    PreconditionError,
    RuleInapplicableError,
    SemanticsError,
)
from .model import (
    Family,
    Instance,
    OrderedInstance,
    ProblemKind,
    Ranking,
    VertexId,
    induced,
    member_orders,
    order_violations,
    satisfied_data,
    subsets,
)

RankingProvider = Callable[[Instance], Ranking]


# ---------------------------------------------------------------------------
# ranking providers


def exact_provider(cap: Optional[int] = None) -> RankingProvider:
    """Provider returning an optimal ranking (oracle witness, q = 1)."""

    def provide(inst: Instance) -> Ranking:
        return oracle.min_inconsistencies(inst, cap=cap).witness

    return provide


def incdegree_provider(inst: Instance) -> Ranking:
    """Inc-Degree ranking; FAST only, q = 5."""
    return inc_degree_ranking(inst)


@functools.lru_cache(maxsize=None)
def _slot_turns(r: int) -> np.ndarray:
    """turn[s, o]: the index in `member_orders(r)` of order o with the
    two slots of slot pair s (pairs in lexicographic order) exchanged."""
    index = {o: i for i, o in enumerate(map(tuple, member_orders(r).tolist()))}
    turns = [
        [index[tuple(b if x == a else a if x == b else x for x in o)] for o in index]
        for a, b in itertools.combinations(range(r), 2)
    ]
    turn = np.array(turns, dtype=np.int64)
    turn.flags.writeable = False
    return turn


def local_search_provider(inst: Instance) -> Ranking:
    """Adjacent-swap hill climbing from the identity ranking.

    First-improvement scans repeated until a full pass is swap-free; a
    swap is kept when it lowers the fault count.  No approximation
    factor is guaranteed; use it only where a heuristic fault count is
    acceptable.

    Each trial swap costs O(C(n-2, r-2)), not O(C(n, r)): only the
    constraints holding both swapped vertices can change.  Every
    constraint keeps the index of its members' current order in
    `model.member_orders(r)` (0 at the identity start), an adjacent swap
    transposes two member slots, and the fault delta is summed from a
    per-order table built once from `model.order_violations`, the
    family's one rule over every member order.
    """
    n, r = inst.n, inst.r
    turn = _slot_turns(r)
    pairs, width = turn.shape  # slot pairs, member orders
    violated = order_violations(inst).astype(np.int8)
    # delta[c, s, o]: fault change of constraint c when slot pair s turns order o
    delta = (violated[:, turn] - violated[:, None, :]).ravel()

    # Every (constraint, slot pair) entry, grouped by the vertex pair in
    # those slots: C(n-2, r-2) entries per vertex pair, one row per pair
    # in lexicographic order, which is the order of np.triu_indices.
    members = subsets(n, r)
    first, second = np.triu_indices(r, 1)
    keys = members[:, first] * n + members[:, second]
    entries = np.argsort(keys.ravel(), kind="stable").reshape(comb(n, 2), -1)
    held = entries // pairs
    at = entries * width  # flat index of delta[c, s, 0]
    turn_at = entries % pairs * width  # flat index of turn[s, 0]
    turned = turn.ravel()
    group = np.zeros((n, n), dtype=np.int64)
    group[np.triu_indices(n, 1)] = np.arange(comb(n, 2))
    group = (group + group.T).tolist()

    state = np.zeros(len(members), dtype=np.int64)
    best = int(violated[:, 0].sum())
    order = list(range(n))
    improved = True
    while improved and best > 0:
        improved = False
        for i in range(n - 1):
            g = group[order[i]][order[i + 1]]
            now = state[held[g]]
            change = int(delta[at[g] + now].sum())
            if change < 0:
                state[held[g]] = turned[turn_at[g] + now]
                order[i], order[i + 1] = order[i + 1], order[i]
                best += change
                improved = True
    return Ranking(tuple(order))


# ---------------------------------------------------------------------------
# sunflowers


@dataclass(frozen=True)
class SimpleSunflower:
    """Center row plus pairwise-disjoint petal extensions.

    `row` is the center's row in `Instance.selected` and
    `OrderedInstance.violated`, `members` its sorted members.  Also
    carries conflict packings, whose extras are the vertex groups.
    """

    row: int
    members: tuple[VertexId, ...]
    extras: tuple[tuple[VertexId, ...], ...]

    def __post_init__(self):
        seen = set(self.members)
        for extra in self.extras:
            for v in extra:
                if v in seen:
                    raise PreconditionError(f"petal vertex {v} reused across the sunflower")
                seen.add(v)

    @property
    def petal_count(self) -> int:
        return len(self.extras)

    def petals(self):
        for extra in self.extras:
            yield tuple(sorted(self.members + extra))


def _faults_within(oi: OrderedInstance, groups: list[tuple[VertexId, ...]]) -> np.ndarray:
    """The violated constraints inside each group of g >= r distinct
    vertices (one g for all): the fault count of the sub-instance the
    group induces, since a verdict involves only its own members.  Every
    r-subset is ranked with `Instance._ranks` and read from `oi.violated`."""
    inst = oi.instance
    if not groups:
        return np.zeros(0, dtype=np.int64)
    table = np.sort(np.array(groups, dtype=np.int64), axis=1)
    members = table[:, subsets(table.shape[1], inst.r)]
    ranks = Instance._ranks(inst.n, inst.r, members.reshape(-1, inst.r).T)
    return oi.violated[ranks].reshape(members.shape[:2]).sum(axis=1)


def _violated_members(oi: OrderedInstance, row: int) -> tuple[VertexId, ...]:
    """The members of center row `row`, which the ranking must violate."""
    inst = oi.instance
    members = tuple(subsets(inst.n, inst.r)[row].tolist())
    if not oi.violated[row]:
        raise PreconditionError(f"center {members} is already consistent with the ranking")
    return members


def _single_fault(oi: OrderedInstance, petals: list[tuple[VertexId, ...]]) -> np.ndarray:
    """Which petals hold exactly one violated constraint.  The callers
    have checked the center to be violated, so that one is the center."""
    return _faults_within(oi, petals) == 1


def _single_fault_sunflower(
    oi: OrderedInstance,
    row: int,
    members: tuple[VertexId, ...],
    candidates: list[tuple[VertexId, ...]],
    k: int,
) -> Optional[SimpleSunflower]:
    """The candidate extras whose petal is single-fault, as a sunflower;
    None unless more than k of them survive."""
    single = _single_fault(oi, [members + extra for extra in candidates])
    extras = tuple(extra for extra, ok in zip(candidates, single) if ok)
    return SimpleSunflower(row, members, extras) if len(extras) > k else None


def find_simple_sunflower(oi: OrderedInstance, row: int, k: int) -> Optional[SimpleSunflower]:
    """Greedy disjoint petals of the family's certified width around the
    center row `row`.

    The width is the conflict size minus r.  Non-center vertices are
    chunked in ranking order, first fit; a chunk survives if the center
    is the only violated constraint in its petal.  Returns None when
    fewer than k + 1 petals survive.
    """
    width = default_conflict_size(oi.instance.kind) - oi.instance.r
    members = _violated_members(oi, row)
    pool = [v for v in oi.sigma.order if v not in members]
    chunks = [tuple(pool[i : i + width]) for i in range(0, len(pool) - width + 1, width)]
    return _single_fault_sunflower(oi, row, members, chunks, k)


def find_fast_sunflower(oi: OrderedInstance, row: int, k: int) -> Optional[SimpleSunflower]:
    """Single-vertex petals for FAST around the center row `row`.

    A petal must be a conflict, not merely single-fault.  For r >= 3
    every single-fault extension by a vertex ranked before the center's
    last member is a conflict, so candidates are sliced from the ranking
    up to that member's position.  At r = 2 a backward pair plus an
    earlier vertex is an acyclic triangle, so only vertices strictly
    between the two members count.
    """
    kind = oi.instance.kind
    if kind.family is not Family.FAST:
        raise SemanticsError("find_fast_sunflower needs a FAST instance")
    members = _violated_members(oi, row)
    placed = [oi.sigma.position[v] for v in members]
    first = min(placed) + 1 if kind.r == 2 else 0
    pool = oi.sigma.order[first : max(placed)]
    candidates = [(v,) for v in pool if v not in members]
    return _single_fault_sunflower(oi, row, members, candidates, k)


def _pair_tournament(inst: Instance) -> np.ndarray:
    """A[u, w] = 1 when the pair {u, w} selects w, so w must follow u."""
    winner = inst.selected[:, 0]
    tournament = np.zeros((inst.n, inst.n), dtype=np.int64)
    tournament[subsets(inst.n, 2).sum(axis=1) - winner, winner] = 1
    return tournament


def _cyclic_triple(tournament, a: VertexId, b: VertexId, c: VertexId) -> bool:
    """True when the pair constraints among {a, b, c} admit no ranking.

    Each pair selects the member that must be ranked last; the triple is
    unsatisfiable exactly when the pairs chain into a directed cycle,
    a -> b -> c -> a or its reverse, so the order of a, b, c is free.
    """
    return tournament[a][b] == tournament[b][c] == tournament[c][a]


def _find_conflict_packing(oi: OrderedInstance, row: int, k: int) -> Optional[SimpleSunflower]:
    """Disjoint vertex groups each forming a conflict with the violated
    pair in center row `row`.

    Pair constraints only.  Interior single-vertex petals can run dry at
    width two while the instance is still large, so this widens the
    certificate: any vertex group whose union with the center holds a
    directed triangle is a conflict through the center, and groups sharing
    no vertices overlap pairwise in the center constraint alone.  More
    than k of them force every k-budget solution to edit the center.

    Groups of one, two, then three unused vertices are taken greedily in
    ranking order when they close a directed triangle with 3 - |group|
    of the center's members.  Once a size is done no unused set of that
    size closes a triangle with the center, so the rule is the same as
    "center plus group holds a directed triangle".  The groups are the
    extras of a sunflower; None when at most k are found.
    """
    inst = oi.instance
    if inst.kind.r != 2:
        raise SemanticsError("conflict packing applies to pair constraints only")
    members = _violated_members(oi, row)
    tournament = _pair_tournament(inst).tolist()
    used = set(members)
    groups: list[tuple[VertexId, ...]] = []
    for size in (1, 2, 3):
        for group in itertools.combinations([v for v in oi.sigma.order if v not in used], size):
            if used.isdisjoint(group) and any(
                _cyclic_triple(tournament, *group, *extra)
                for extra in itertools.combinations(members, 3 - size)
            ):
                groups.append(group)
                used.update(group)
    return SimpleSunflower(row, members, tuple(groups)) if len(groups) > k else None


# ---------------------------------------------------------------------------
# rules


def _certified_edit(
    oi: OrderedInstance,
    flower: SimpleSunflower,
    k: int,
    petals_ok: Callable[[list[tuple[VertexId, ...]]], Iterable[bool]],
) -> tuple[Instance, int]:
    """Edit the center to agree with the ranking and decrement k.

    Sound only when the petal count exceeds k, since then no k-edit
    solution can leave the center untouched or disagree with the
    ranking on it.  The center and every petal are re-verified here; a
    stale certificate is a caller bug worth failing loudly on.  The edit
    writes the datum the ranking satisfies into the center's row of a
    copy of the table.
    """
    if flower.petal_count <= k:
        raise RuleInapplicableError(
            f"certificate has {flower.petal_count} petals, need more than k={k}"
        )
    _violated_members(oi, flower.row)
    petals = list(flower.petals())
    for petal, ok in zip(petals, petals_ok(petals)):
        if not ok:
            raise PreconditionError(f"petal {petal} fails its check; the certificate is stale")
    inst = oi.instance
    table = inst.selected.copy()
    table[flower.row] = satisfied_data(inst.kind, [flower.members], oi.sigma.position)[0]
    return Instance._from_table(inst.n, inst.kind, table), k - 1


def apply_sunflower_edit(
    oi: OrderedInstance, flower: SimpleSunflower, k: int
) -> tuple[Instance, int]:
    """The certified edit, for petals that must be single-fault."""
    return _certified_edit(oi, flower, k, functools.partial(_single_fault, oi))


def _apply_packing_edit(
    oi: OrderedInstance, packing: SimpleSunflower, k: int
) -> tuple[Instance, int]:
    """The certified edit, for groups whose union with the center must
    hold a directed triangle.

    A pair has one alternative value, so once the packing shows every
    k-budget solution edits the center, the flip itself is forced; the
    answer is preserved exactly.
    """
    tournament = _pair_tournament(oi.instance).tolist()

    def close_cycles(petals: list[tuple[VertexId, ...]]) -> list[bool]:
        return [
            any(_cyclic_triple(tournament, *triple) for triple in itertools.combinations(petal, 3))
            for petal in petals
        ]

    return _certified_edit(oi, packing, k, close_cycles)


def _always_selected(counts, r: int) -> Optional[VertexId]:
    """The vertex of in-degree C(n-1, r-1), selected by every constraint
    holding it, if any.  Two would meet in some constraint (density),
    which selects a single vertex, so more than one fails loudly."""
    hits = np.flatnonzero(np.asarray(counts) == comb(len(counts) - 1, r - 1)).tolist()
    if len(hits) > 1:
        raise KernelDriverError(f"multiple always-selected vertices {hits} in a dense instance")
    return hits[0] if hits else None


def _cycle_free(counts) -> Optional[VertexId]:
    """The smallest vertex of a pair instance in no cyclic triple, read off
    the in-degrees `counts` of its tournament (each pair points at the
    member it selects).  Such a vertex is a strong component on its own,
    since every vertex of a strong tournament lies on a directed triangle
    (Moon), and the j lowest in-degrees close a union of components
    exactly when they sum to C(j, 2) (Landau)."""
    order = np.argsort(counts, kind="stable")
    j = np.arange(len(order) + 1)
    closed = np.concatenate(([0], np.cumsum(np.asarray(counts)[order]))) == j * (j - 1) // 2
    free = order[closed[:-1] & closed[1:]]
    return int(free.min()) if free.size else None


def _drop(
    inst: Instance, v: Optional[VertexId]
) -> Optional[tuple[Instance, VertexId, dict[VertexId, VertexId]]]:
    """The instance without `v` (when there is one), `v` and the relabel map."""
    if v is None:
        return None
    reduced, relabel = induced(inst, [u for u in range(inst.n) if u != v])
    return reduced, v, relabel


def drop_always_selected_vertex(
    inst: Instance,
) -> Optional[tuple[Instance, VertexId, dict[VertexId, VertexId]]]:
    """Remove the always-selected vertex, if present.

    Such a vertex can be ranked last at no cost in any solution, so
    removal preserves the minimum fault count exactly.  Returns the
    reduced instance, the dropped vertex, and the dense relabel map.
    Callers must leave more than r vertices behind.
    """
    if inst.kind.family is not Family.FAST:
        raise SemanticsError("always-selected drops are a FAST rule")
    return _drop(inst, _always_selected(in_degrees(inst).counts, inst.r))


def drop_cycle_free_vertex(
    inst: Instance,
) -> Optional[tuple[Instance, VertexId, dict[VertexId, VertexId]]]:
    """Remove the smallest cycle-free vertex v of a pair instance, if any.

    Pair constraints split every other vertex into losers (pairs
    selecting v) and winners.  When v closes no directed cycle, every
    loser-winner pair selects the winner, so any optimal ordering of the
    rest can be rearranged, at no cost, into losers-then-winners with v
    in between: the drop is exact, and subsumes the always-selected one.
    Callers must leave more than r vertices behind.
    """
    if inst.kind.family is not Family.FAST or inst.kind.r != 2:
        raise SemanticsError("cycle-free drops apply to FAST pair instances only")
    return _drop(inst, _cycle_free(in_degrees(inst).counts))


def _round_drops(
    inst: Instance, counts: tuple[int, ...]
) -> tuple[list[tuple[VertexId, str]], list[VertexId]]:
    """Each (vertex, rule) of a FAST round's exhaustive drops, ids relabelled
    densely after every drop, and the ids of `inst` kept, read off its
    in-degree `counts`.  Dropping an always-selected vertex leaves the
    other in-degrees as they were; a cycle-free one at r = 2 is followed
    by exactly the vertices of higher in-degree, which each lose one.
    The always-selected rule goes first."""
    r, kept, drops = inst.r, list(range(inst.n)), []
    counts = np.array(counts, dtype=np.int64)
    while len(kept) > r:
        rule, v = "drop-always-selected", _always_selected(counts, r)
        if v is None and r == 2:
            rule, v = "drop-cycle-free", _cycle_free(counts)
        if v is None:
            break
        if rule == "drop-cycle-free":
            counts[counts > counts[v]] -= 1
        counts = np.delete(counts, v)
        del kept[v]
        drops.append((v, rule))
    return drops, kept


# ---------------------------------------------------------------------------
# outcomes and traces


@dataclass(frozen=True)
class EditRecord:
    """An edit of the constraint on `center`; the selected data are the
    center's table rows before and after."""

    center: tuple[VertexId, ...]
    old_selected: tuple[VertexId, ...]
    new_selected: tuple[VertexId, ...]
    k_before: int
    k_after: int
    petals: int
    rule: str = "sunflower-edit"

    def line(self) -> str:
        return (
            f"rule={self.rule} center={_fmt_ids(self.center)} "
            f"selected={_fmt_ids(self.old_selected)}->{_fmt_ids(self.new_selected)} "
            f"k={self.k_before}->{self.k_after} petals={self.petals}"
        )


@dataclass(frozen=True)
class DropRecord:
    vertex: VertexId
    n_before: int
    n_after: int
    k: int
    rule: str = "drop-always-selected"

    def line(self) -> str:
        return (
            f"rule={self.rule} vertex={self.vertex} "
            f"n={self.n_before}->{self.n_after} k={self.k}->{self.k}"
        )


TraceRecord = Union[EditRecord, DropRecord]


def _edit_record(
    before: Instance,
    after: Instance,
    flower: SimpleSunflower,
    k_before: int,
    k_after: int,
    rule: str,
) -> EditRecord:
    """The trace record of the edit of `flower`'s center row from `before`
    to `after`."""
    return EditRecord(
        center=flower.members,
        old_selected=tuple(before.selected[flower.row].tolist()),
        new_selected=tuple(after.selected[flower.row].tolist()),
        k_before=k_before,
        k_after=k_after,
        petals=flower.petal_count,
        rule=rule,
    )


def _fmt_ids(ids: tuple[VertexId, ...]) -> str:
    return ",".join(str(v) for v in ids)


class Verdict(Enum):
    REDUCED = "reduced"
    TRIVIAL_YES = "trivial-yes"
    TRIVIAL_NO = "trivial-no"


@dataclass(frozen=True)
class KernelOutcome:
    """Result of a kernelization run.

    REDUCED carries the shrunken instance and budget; the trivial
    verdicts carry None and can be materialized as canonical instances.
    p0 is the initial fault count of the driver's ranking.
    """

    verdict: Verdict
    kind: ProblemKind
    instance: Optional[Instance]
    k: Optional[int]
    p0: int
    trace: tuple[TraceRecord, ...]

    @classmethod
    def of(cls, verdict: Verdict, inst: Instance, k: int, p0: int, trace) -> KernelOutcome:
        """The outcome of a run that stopped at (inst, k); only REDUCED keeps them."""
        kept = (inst, k) if verdict is Verdict.REDUCED else (None, None)
        return cls(verdict, inst.kind, *kept, p0, tuple(trace))

    def trace_text(self) -> str:
        return "\n".join(record.line() for record in self.trace)

    def edit_count(self) -> int:
        return sum(1 for t in self.trace if isinstance(t, EditRecord))

    def drop_count(self) -> int:
        return sum(1 for t in self.trace if isinstance(t, DropRecord))

    def materialize(self) -> tuple[Instance, int]:
        """An (instance, k) pair whose answer equals this verdict."""
        if self.verdict is Verdict.REDUCED:
            return self.instance, self.k
        return trivial_instance(self.kind, self.verdict is Verdict.TRIVIAL_YES)


@functools.lru_cache(maxsize=None)
def trivial_instance(kind: ProblemKind, yes: bool) -> tuple[Instance, int]:
    """Canonical fixed-answer instances at budget 0.

    YES: the identity-consistent instance on r vertices.  NO: a single
    fault placed so the whole r+1 vertex set is a conflict; the fault
    skips one vertex of the identity order, which is a conflict shape
    for every family, including FAST at r = 2 (a cyclic triangle).
    Each (kind, yes) pair is built, and its answer confirmed by the
    oracle, once per process; the read-only instance is then shared by
    every call.  A wrong answer raises, so nothing is cached for it.
    """
    r = kind.r
    if yes:
        satisfied = satisfied_data(kind, subsets(r, r), Ranking.identity(r).position)
        inst = Instance._from_table(r, kind, satisfied)
    else:
        fault_members = tuple(range(r - 1)) + (r,)
        bad_value = violating_selected_values(kind, fault_members, Ranking.identity(r + 1))[0]
        inst = single_fault_config(kind, r + 1, fault_members, bad_value).instance
    if oracle.decide(inst, 0) != yes:
        raise KernelDriverError(
            f"trivial {kind.family.value} r={r} instance has the opposite answer to yes={yes}"
        )
    return inst, 0


# ---------------------------------------------------------------------------
# drivers


def _debug_check(
    enabled: bool,
    before: Instance,
    k_before: int,
    after: Instance,
    k_after: int,
    cap: Optional[int],
) -> None:
    """Oracle cross-check of one rule application (debug flag only;
    exponential in the vertex count, so skipped where the oracle would
    refuse either side)."""
    if not enabled or any(oracle.refuses(inst.kind, inst.n, cap) for inst in (before, after)):
        return
    lhs = oracle.decide(before, k_before, cap=cap)
    rhs = oracle.decide(after, k_after, cap=cap)
    if lhs != rhs:
        raise KernelDriverError(
            f"rule application changed the answer: before={lhs} after={rhs}"
        )


def kernelize_characterized(
    inst: Instance,
    k: int,
    provider: RankingProvider,
    debug_oracle_checks: bool = False,
    oracle_cap: Optional[int] = None,
) -> KernelOutcome:
    """Sunflower-edit kernelization for bounded-conflict families.

    One ranking is drawn from the provider up front and kept for the
    whole run; p is its fault count, re-counted after every edit.  While
    the vertex set is larger than p*w + w*(k+1) + r (w the petal width)
    a big sunflower is guaranteed, so the loop either answers or shrinks
    k until the size test closes.  The vertex set itself never changes;
    only k and the constraint data do.
    """
    kind = inst.kind
    width = default_conflict_size(kind) - kind.r
    sigma = provider(inst)
    oi = OrderedInstance(inst, sigma)
    faults = np.flatnonzero(oi.violated)
    p0 = p = len(faults)
    trace: list[TraceRecord] = []

    while True:
        if 0 <= p <= k:
            return KernelOutcome.of(Verdict.TRIVIAL_YES, inst, k, p0, trace)
        if k < 0:
            return KernelOutcome.of(Verdict.TRIVIAL_NO, inst, k, p0, trace)
        if inst.n <= p * width + width * (k + 1) + kind.r:
            return KernelOutcome.of(Verdict.REDUCED, inst, k, p0, trace)
        flower = find_simple_sunflower(oi, int(faults[0]), k)
        if flower is None:
            raise KernelDriverError(
                "no sunflower although the size test guarantees one; "
                f"n={inst.n} p={p} k={k} width={width}"
            )
        new_inst, new_k = apply_sunflower_edit(oi, flower, k)
        _debug_check(debug_oracle_checks, inst, k, new_inst, new_k, oracle_cap)
        trace.append(_edit_record(inst, new_inst, flower, k, new_k, "sunflower-edit"))
        inst, k = new_inst, new_k
        oi = OrderedInstance(inst, sigma)
        faults = np.flatnonzero(oi.violated)
        p, old_p = len(faults), p
        if p != old_p - 1:
            raise KernelDriverError(f"an edit must clear exactly its own fault: p {old_p}->{p}")


def _fast_certificate(
    oi: OrderedInstance, faults: np.ndarray, k: int
) -> tuple[SimpleSunflower, Callable[..., tuple[Instance, int]], str]:
    """(certificate, apply function, rule name) of the next FAST edit.

    `faults` are the violated rows in table order.  The first one holding
    the ranking's last vertex is the only center for r >= 3.  At r = 2,
    where interior pools can be thin, every violated pair is a center,
    those holding the last vertex first, and the petals then widen to
    conflict packings over the same centers.
    """
    inst = oi.instance
    members, last = subsets(inst.n, inst.r)[faults], oi.sigma.last()
    holds_last = (members == last).any(axis=1)
    centers = faults[holds_last].tolist()
    if not centers:
        raise KernelDriverError(
            "after exhaustive drops the last vertex must sit in a violated constraint"
        )
    finders = [(find_fast_sunflower, apply_sunflower_edit, "sunflower-edit")]
    if inst.r == 2:
        ordered = centers + faults[~holds_last].tolist()
        finders.append((_find_conflict_packing, _apply_packing_edit, "conflict-packing-edit"))
    else:
        ordered = centers[:1]
    for find, apply_edit, rule in finders:
        for center in ordered:
            certificate = find(oi, center, k)
            if certificate is not None:
                return certificate, apply_edit, rule
    raise KernelDriverError(
        f"no certificate with more than k={k} petals although n={inst.n} "
        f"exceeds p+k+r={len(faults) + k + inst.r}"
    )


def kernelize_fast(
    inst: Instance,
    k: int,
    debug_oracle_checks: bool = False,
    oracle_cap: Optional[int] = None,
) -> KernelOutcome:
    """FAST kernelization driven by the Inc-Degree ranking.

    Every round recomputes the ranking and its fault count p on the
    current instance and gates: k < 0 is NO, p <= k is YES (the ranking
    witnesses it), p > 5k is NO (the ranking is a 5-approximation, so
    the optimum exceeds k), and n <= p + k + r returns REDUCED.  The NO
    gate runs before the size test, which pins every REDUCED output
    under 6k + r vertices.  Past the gates, always-selected vertices are
    dropped exhaustively, the whole round read off the in-degree profile
    and applied by one `induced`; failing that, one violated constraint
    holding the ranking's last vertex (one must exist once drops dry up)
    is flipped to agree with the ranking, certified by more than k petals.

    Every round drops a vertex, spends a unit of k, or exits, so the
    driver always terminates.  For r >= 3 the petal pool from the
    center's span is guaranteed large enough whenever the size test is
    open.  At r = 2 it is not: petals there are cyclic triples through
    the center's span interior, which can run dry early.  Three widening
    steps cover pair instances: cycle-free vertices are dropped (exact,
    like the always-selected drop, which it subsumes), every violated
    pair is tried as a center, and single-vertex petals give way to
    disjoint conflict packings.  A driver error means all of that
    failed, rather than return an oversized or unsound kernel.
    """
    if inst.kind.family is not Family.FAST:
        raise SemanticsError("kernelize_fast needs a FAST instance")
    p0: Optional[int] = None
    trace: list[TraceRecord] = []

    while True:
        # one in-degree profile per round ranks the vertices and finds the drops
        profile = in_degrees(inst)
        sigma = inc_degree_ranking(inst, profile)
        oi = OrderedInstance(inst, sigma)
        faults = np.flatnonzero(oi.violated)
        p = len(faults)
        if p0 is None:
            p0 = p

        if k < 0:
            return KernelOutcome.of(Verdict.TRIVIAL_NO, inst, k, p0, trace)
        if p <= k:
            return KernelOutcome.of(Verdict.TRIVIAL_YES, inst, k, p0, trace)
        if p > 5 * k:
            return KernelOutcome.of(Verdict.TRIVIAL_NO, inst, k, p0, trace)
        if inst.n <= p + k + inst.r:
            return KernelOutcome.of(Verdict.REDUCED, inst, k, p0, trace)

        # Drops preserve the optimum exactly; the ranking is recomputed at the top.
        drops, kept = _round_drops(inst, profile.counts)
        if drops:
            reduced, step = induced(inst, kept)[0], inst
            for i, (v, rule) in enumerate(drops):
                if debug_oracle_checks:  # each drop on its own, as it was made
                    step, before = _drop(step, v)[0], step
                    _debug_check(True, before, k, step, k, oracle_cap)
                trace.append(DropRecord(v, inst.n - i, inst.n - i - 1, k, rule))
            if debug_oracle_checks and step != reduced:
                raise KernelDriverError("a round of drops differs from its drops made one by one")
            inst = reduced
            continue

        certificate, apply_edit, rule = _fast_certificate(oi, faults, k)
        new_inst, new_k = apply_edit(oi, certificate, k)
        _debug_check(debug_oracle_checks, inst, k, new_inst, new_k, oracle_cap)
        trace.append(_edit_record(inst, new_inst, certificate, k, new_k, rule))
        inst, k = new_inst, new_k
