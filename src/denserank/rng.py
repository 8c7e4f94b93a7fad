"""Deterministic 64-bit random source for generators and sampling.

The generator is SplitMix64 (the mixer from Steele, Lea and Flood's
"Fast splittable pseudorandom number generators", also used as the seeder
in the xoshiro family).  It is chosen because the full algorithm fits in
a dozen lines, is documented in multiple independent references, and can
be reproduced bit for bit in any language from the constants below.

Derived draws are fixed here once and documented so that instance files
generated from a seed are reproducible across implementations:

* ``below(bound)`` draws 64-bit words and rejects values of
  ``2**64 - (2**64 % bound)`` and above, then reduces modulo ``bound``.
  A word has 2**64 values, so ``bound`` must lie in 1..2**64.
* ``below_many(bound, count)`` is ``count`` successive ``below(bound)``
  calls, returned as one array.  SplitMix64 is counter-based (word i of
  the stream mixes ``seed + i * gamma``), so the block is computed from
  the counter at once; from the first rejected word on it continues
  with scalar draws.  Values and the final state equal the scalar loop.
* ``shuffle(xs)`` is a Fisher-Yates pass from the last index down to 1,
  swapping index ``i`` with ``below(i + 1)``.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _limit(bound: int) -> int:
    """The rejection limit of `below(bound)`, the largest multiple of
    `bound` up to 2**64; past 2**64 it would be 0 and accept no word."""
    if not 0 < bound <= _MASK + 1:
        raise ValueError(f"bound must lie in 1..2**64, got {bound}")
    return _MASK + 1 - ((_MASK + 1) % bound)


class SplitMix64:
    """Stateful SplitMix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection, for 1 <= bound <= 2**64."""
        limit = _limit(bound)
        while True:
            word = self.next_u64()
            if word < limit:
                return word % bound

    def below_many(self, bound: int, count: int) -> np.ndarray:
        """The values of `count` successive `below(bound)` calls, as a
        uint64 array, leaving the stream where those calls would."""
        limit = _limit(bound)
        with np.errstate(over="ignore"):
            z = np.uint64(self._state) + np.uint64(_GAMMA) * np.arange(1, count + 1, dtype=np.uint64)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        words = z ^ (z >> np.uint64(31))
        # a power-of-two bound has limit 2**64 and rejects nothing, and
        # the bound 2**64 itself leaves every word as it is
        rejected = np.flatnonzero(words >= np.uint64(limit)) if limit <= _MASK else ()
        taken = int(rejected[0]) if len(rejected) else count
        self._state = (self._state + taken * _GAMMA) & _MASK
        values = words[:taken] % np.uint64(bound) if bound <= _MASK else words[:taken]
        if taken == count:
            return values
        rest = [self.below(bound) for _ in range(count - taken)]
        return np.concatenate([values, np.array(rest, dtype=np.uint64)])

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def permutation(self, n: int) -> list[int]:
        xs = list(range(n))
        self.shuffle(xs)
        return xs

    def sample_indices(self, count: int, bound: int) -> list[int]:
        """`count` distinct integers from [0, bound), ascending."""
        if count > bound:
            raise ValueError(f"cannot draw {count} distinct values below {bound}")
        seen: set[int] = set()
        while len(seen) < count:
            seen.add(self.below(bound))
        return sorted(seen)
