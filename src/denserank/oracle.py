"""Exhaustive ground-truth oracle.

Everything here enumerates all n! rankings, nothing cleverer: the
oracle's only job is to be trustworthy, so it refuses instances above a
configurable vertex cap instead of trying to scale.  Enumeration order
is lexicographic and the reported witness is the first ranking
attaining the minimum, which makes every result reproducible.

The per-family verdict lives in `model.batch_verdict`; the inner loop
runs it over blocks of permutations, and the tests pin it against an
independently written pure-Python enumerator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Iterator

import numpy as np

from .errors import EnumerationCapError
from .model import Instance, Ranking, VertexId, batch_verdict, induced

DEFAULT_CAP = 10

_BLOCK = 40320  # 8!, so instances up to n = 8 fit in a single block


@dataclass(frozen=True)
class ExactResult:
    opt: int
    witness: Ranking


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise EnumerationCapError(
            f"exact enumeration over {n} vertices exceeds the cap of {cap}; "
            f"raise the cap explicitly if you really want {factorial(n)} rankings"
        )


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


def min_inconsistencies(inst: Instance, cap: int = DEFAULT_CAP) -> ExactResult:
    """Minimum fault count over all rankings, with the lexicographically
    first ranking attaining it."""
    _check_cap(inst.n, cap)
    best = best_order = None
    for perms, counts in _block_faults(inst):
        i = int(np.argmin(counts))
        if best is None or counts[i] < best:
            best = int(counts[i])
            best_order = tuple(perms[i].tolist())
            if best == 0:
                break
    return ExactResult(best, Ranking(best_order))


def decide(inst: Instance, k: int, cap: int = DEFAULT_CAP) -> bool:
    """Is there a ranking violating at most k constraints?

    Stops at the first witness; a NO answer always scans all n! rankings.
    """
    if k < 0:
        return False
    _check_cap(inst.n, cap)
    return any(bool((counts <= k).any()) for _, counts in _block_faults(inst))


def is_conflict(inst: Instance, subset: Iterable[VertexId], cap: int = DEFAULT_CAP) -> bool:
    """Does `subset` admit no consistent ranking of its sub-instance?

    Subsets smaller than the arity carry no constraints and are
    vacuously consistent, hence never conflicts.
    """
    vertices = sorted(set(subset))
    if len(vertices) < inst.kind.r:
        return False
    sub, _ = induced(inst, vertices)
    return not decide(sub, 0, cap=cap)
