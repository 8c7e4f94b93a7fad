"""Brute-force references used to anchor the vectorized code.

The solver is deliberately independent of the package's own evaluation
code: constraint semantics are re-derived from scratch on plain tuples
and dicts, and the search is a bare loop over itertools.permutations.
Slow on purpose; keep n at 7 or below.

`constraints`, `constraint` and `evaluate` are the package's
`Instance.constraints()`, `Instance.constraint(members)` and scalar
`evaluate` as they were before the package kept `Constraint` for its
edge alone, kept verbatim (as functions of the instance) for the tests
that read an instance or judge a ranking one constraint at a time.
They read the package's table, `Instance._row` and `satisfied_selected`.

`parse` is the line-by-line instance file reader the package used before
it checked records as one table, kept verbatim as the reference for the
differential parse test, except that it looks for a missing subset only
among the ids that can hold the first one, so a header n past 2^63 reads
as well.  It shares only the scalar validation rule and the error types
with the package.

`serialize` is the instance file writer as it was when it formatted the
whole member-plus-selected table with one `%d` string, kept verbatim as
the reference for the writer's byte-for-byte test.  It shares only the
header constants and the member table with the package.

`batch_verdict` is the package's batch verdict as it was before every
verdict was built on `model.satisfied_data`: one closure per family
over rows of ranking positions, compiled from an instance.  It is kept
verbatim as an independent reference for the verdict tests, the n!
enumerator and the reference local search below.

`local_search_provider` is the adjacent-swap hill climber as it was
when it recounted every constraint's verdict for each trial swap, kept
verbatim as the reference for the differential local-search test.  It
shares only the member table with the package.

`petal_is_single_fault` is the sunflower petal check as it was when it
looked up each r-subset of the petal with `constraint` and the scalar
`evaluate`, before the kernel read one violated mask per ranked
instance; kept verbatim (bar its leading underscore) as the reference
for the differential petal test.  It shares only the scalar verdict and
the constraint lookup with the package.

`min_by_enumeration` is the oracle's engine for r >= 4 before the
prefix search replaced it: every ranking scored with the batch verdict,
in lexicographic blocks of 8! permutations, stopping after the first
block that holds a consistent ranking.  It is kept verbatim, without
the vertex cap, as the reference for the differential oracle tests,
except that each block is built once per process and kept read-only
(n = 9 holds 3.3 MB): a block is built when a search first reaches it,
so the early stop still saves the blocks past it.  It shares only the
member table with the package.

`generate_with_details` is the instance generator as it was when it
drew each value from a list of a constraint's selected data and built
the planted base table one r-subset at a time with the scalar
`satisfied_selected`; it is kept verbatim, with the scalar helpers it
called, as the reference for the differential generator tests, which
pin the draw order.  It shares only the random stream, the spec type
and the instance constructor with the package.  Listing every value
makes `tfast` cost r! per constraint: keep r at 6 or below.
"""

import itertools
from math import comb
from typing import Callable, Iterator

import numpy as np

from denserank import model
from denserank.errors import (
    DuplicateRecordError,
    HeaderError,
    InvalidConstraintError,
    RecordCountError,
    RecordSyntaxError,
    SelectedValueError,
    UnknownFamilyError,
)
from denserank.fileformat import MAGIC, VERSION
from denserank.model import (
    Constraint,
    Family,
    Instance,
    OrderedInstance,
    ProblemKind,
    Ranking,
    SelectedData,
    VertexId,
    selected_datum,
    selected_width,
    subsets,
    validate_constraint,
)
from denserank.generate import GenerationMode, GeneratorSpec
from denserank.oracle import ExactResult
from denserank.rng import SplitMix64


def constraints(inst: Instance) -> Iterator[Constraint]:
    """All constraints, lexicographic by member tuple."""
    members = itertools.combinations(range(inst.n), inst.r)
    rows = inst.selected.tolist()
    return (Constraint(m, selected_datum(inst.kind, row)) for m, row in zip(members, rows))


def constraint(inst: Instance, members) -> Constraint:
    key, row = inst._row(members)
    return Constraint(key, selected_datum(inst.kind, inst.selected[row].tolist()))


def evaluate(kind: ProblemKind, c: Constraint, ranking: Ranking) -> bool:
    """Does `ranking` satisfy this constraint?"""
    return model.satisfied_selected(kind, c.members, ranking) == c.selected


def _satisfied(family, members, selected, pos):
    if family == "fast":
        return all(pos[selected] >= pos[v] for v in members)
    if family == "betweenness":
        lo = min(members, key=pos.__getitem__)
        hi = max(members, key=pos.__getitem__)
        return set(selected) == {lo, hi}
    if family == "tfast":
        return list(selected) == sorted(members, key=pos.__getitem__)
    raise ValueError(family)


def _rows(inst):
    return [(c.members, c.selected) for c in constraints(inst)]


def faults_under(inst, order):
    """Number of violated constraints under one ordering."""
    fam = inst.kind.family.value
    pos = {v: i for i, v in enumerate(order)}
    return sum(0 if _satisfied(fam, m, s, pos) else 1 for m, s in _rows(inst))


def best(inst):
    """Minimum fault count and the lexicographically first argmin ordering."""
    fam = inst.kind.family.value
    rows = _rows(inst)
    opt, arg = None, None
    for order in itertools.permutations(range(inst.n)):
        pos = {v: i for i, v in enumerate(order)}
        b = sum(0 if _satisfied(fam, m, s, pos) else 1 for m, s in rows)
        if opt is None or b < opt:
            opt, arg = b, order
    return opt, arg


def decide(inst, k):
    return k >= 0 and best(inst)[0] <= k


def conflict(inst, subset):
    """True when no ordering of `subset` satisfies every constraint inside it."""
    sub = set(subset)
    if len(sub) < inst.kind.r:
        return False
    fam = inst.kind.family.value
    rows = [(m, s) for m, s in _rows(inst) if set(m) <= sub]
    for order in itertools.permutations(sorted(sub)):
        pos = {v: i for i, v in enumerate(order)}
        if all(_satisfied(fam, m, s, pos) for m, s in rows):
            return False
    return True


_TAGS = {family.value: family for family in Family}


def parse(text):
    lines = text.splitlines()
    if not lines:
        raise HeaderError("empty file", 1)
    head = lines[0].split()
    if len(head) != 5 or head[0] != "rcsp" or head[1] != "1":
        raise HeaderError(f"expected 'rcsp 1 <family> <n> <r>', got {lines[0]!r}", 1)
    if head[2] not in _TAGS:
        raise UnknownFamilyError(f"unknown family tag {head[2]!r}", 1)
    try:
        n, r = int(head[3]), int(head[4])
    except ValueError:
        raise HeaderError(f"n and r must be integers, got {head[3]!r} {head[4]!r}", 1) from None
    if r < 2 or n < r:
        raise HeaderError(f"need n >= r >= 2, got n={n} r={r}", 1)
    try:
        kind = ProblemKind(_TAGS[head[2]], r)
    except Exception:
        raise HeaderError(f"family {head[2]} does not admit arity {r}", 1) from None

    width = r + selected_width(kind)
    records = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        if len(tokens) != width:
            raise RecordSyntaxError(f"expected {width} integers, got {len(tokens)}", lineno)
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            raise RecordSyntaxError(f"non-integer token in {raw!r}", lineno) from None
        members = tuple(values[:r])
        if any(not 0 <= v < n for v in members):
            raise RecordSyntaxError(f"member outside 0..{n - 1} in {members}", lineno)
        if any(members[i] >= members[i + 1] for i in range(r - 1)):
            raise RecordSyntaxError(f"members not strictly increasing: {members}", lineno)
        if members in records:
            raise DuplicateRecordError(f"second record for subset {members}", lineno)
        try:
            validate_constraint(kind, members, selected_datum(kind, values[r:]))
        except InvalidConstraintError as err:
            raise SelectedValueError(str(err), lineno) from None
        records[members] = values[r:]

    rows = []
    # The first missing subset lies in range(len(records) + r): each id
    # skipped between two of its members starts an earlier subset, which
    # is a record.  So n past the memory of range(n) reads alike.
    for subset in itertools.combinations(range(min(n, len(records) + r)), r):
        try:
            rows.append(records[subset])
        except KeyError:
            raise RecordCountError(
                f"{len(records)} records, expected {comb(n, r)}; first missing subset {subset}",
                len(lines) + 1,
            ) from None
    return Instance._from_table(n, kind, rows)


def serialize(inst: Instance) -> str:
    header = f"{MAGIC} {VERSION} {inst.kind.family.value} {inst.n} {inst.kind.r}\n"
    table = np.hstack([subsets(inst.n, inst.r), inst.selected])
    record = " ".join(["%d"] * table.shape[1])  # one format for the whole table
    return header + "\n".join([record] * len(table)) % tuple(table.ravel().tolist()) + "\n"


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


def local_search_provider(inst: Instance) -> Ranking:
    """Adjacent-swap hill climbing from the identity ranking.

    First-improvement scans repeated until a full pass is swap-free.
    No approximation factor is guaranteed; use it only where a heuristic
    fault count is acceptable.
    """
    order = list(range(inst.n))
    verdict = batch_verdict(inst)
    total = inst.constraint_count()

    def faults() -> int:
        # argsort inverts the permutation: positions indexed by vertex
        return total - int(verdict(np.argsort(order)[None, :]).sum())

    best = faults()
    improved = True
    while improved and best > 0:
        improved = False
        for i in range(inst.n - 1):
            order[i], order[i + 1] = order[i + 1], order[i]
            b = faults()
            if b < best:
                best = b
                improved = True
            else:
                order[i], order[i + 1] = order[i + 1], order[i]
    return Ranking(tuple(order))


def petal_is_single_fault(
    oi: OrderedInstance, center: Constraint, petal: tuple[VertexId, ...]
) -> bool:
    """Exactly one violated constraint inside the petal set, the center.

    Dense instances are local: a constraint's verdict under a ranking
    only involves its own members, so checking the full instance's
    constraints restricted to the petal equals checking the induced
    sub-instance.
    """
    kind, sigma = oi.instance.kind, oi.sigma
    for subset in itertools.combinations(petal, kind.r):
        if subset == center.members:
            continue
        if not evaluate(kind, constraint(oi.instance, subset), sigma):
            return False
    return True


_BLOCK = 40320  # 8!, so instances up to n = 8 fit in a single block


# n -> (the blocks built so far, the permutation stream they came from)
_PERM_BLOCKS: dict[int, tuple[list[np.ndarray], Iterator[tuple[int, ...]]]] = {}


def _perm_blocks(n: int) -> Iterator[np.ndarray]:
    """The permutations of 0..n-1 in lexicographic blocks of _BLOCK,
    read-only, each built the first time a caller reaches it."""
    blocks, stream = _PERM_BLOCKS.setdefault(n, ([], itertools.permutations(range(n))))
    for i in itertools.count():
        if i == len(blocks):
            block = list(itertools.islice(stream, _BLOCK))
            if not block:
                return
            blocks.append(np.array(block, dtype=np.int8))
            blocks[i].flags.writeable = False
        yield blocks[i]


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


def min_by_enumeration(inst: Instance) -> ExactResult:
    """The optimum by scoring rankings in lexicographic order; stops
    after the first block holding a consistent ranking."""
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
    return ExactResult(best, Ranking(best_order), "enumeration", scored)


def all_selected_values(kind: ProblemKind, members: tuple[VertexId, ...]) -> list[SelectedData]:
    """Every selected datum a constraint on `members` could carry, in a
    fixed canonical order (ascending / lexicographic)."""
    if kind.family is Family.FAST:
        return list(members)
    if kind.family is Family.BETWEENNESS:
        return list(itertools.combinations(members, 2))
    return list(itertools.permutations(members))


def satisfied_selected(
    kind: ProblemKind, members: tuple[VertexId, ...], ranking: Ranking
) -> SelectedData:
    """The one selected datum on `members` that `ranking` satisfies.

    FAST: the last-ranked member.  BETWEENNESS: the first- and
    last-ranked members as an increasing pair.  TRANSITIVE_FAST: the
    members in ranking order.
    """
    key = ranking.position.__getitem__
    if kind.family is Family.FAST:
        return max(members, key=key)
    if kind.family is Family.BETWEENNESS:
        lo = min(members, key=key)
        hi = max(members, key=key)
        return (lo, hi) if lo < hi else (hi, lo)
    return tuple(sorted(members, key=key))


def violating_selected_values(
    kind: ProblemKind, members: tuple[VertexId, ...], sigma: Ranking
) -> list[SelectedData]:
    """All selected data for `members` that `sigma` does not satisfy,
    in canonical order."""
    satisfied = satisfied_selected(kind, members, sigma)
    return [v for v in all_selected_values(kind, members) if v != satisfied]


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
