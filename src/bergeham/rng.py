"""Deterministic pseudo-randomness used by every randomized routine.

The generator is SplitMix64 (Steele, Lea, Flood 2014): the 64-bit state
advances by a fixed odd increment and each output is a bijective hash of
the counter. It is trivially portable, so any run of this package can be
reproduced from its seed in any language.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Sequence

MASK64 = (1 << 64) - 1

_INCREMENT = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective hash on 64-bit words."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *salts: int) -> int:
    """Fold salts into a seed to get an independent, reproducible stream."""
    z = seed & MASK64
    for s in salts:
        z = mix64(z ^ (s & MASK64))
    return z


class SplitMix64:
    """Counter-based 64-bit generator; one instance per logical stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _INCREMENT) & MASK64
        return mix64(self.state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        threshold = (MASK64 + 1) - ((MASK64 + 1) % bound)
        while True:
            u = self.next_u64()
            if u < threshold:
                return u % bound

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> Iterator[int]:
        """A uniform permutation of range(n), drawn one item per step.

        Forward Fisher-Yates (Durstenfeld 1964) over a virtual pool that
        starts as the identity: ``swap`` holds only the positions a step
        has changed, so the first k items cost k draws, whatever n is.
        """
        swap: dict = {}
        for i in range(n):
            j = i + self.below(n - i)
            yield swap.get(j, j)
            swap[j] = swap.pop(i, i)

    def choose(self, items: Sequence, k: int) -> list:
        """Uniform k-subset of items (order not meaningful): the first k
        items of ``permutation``."""
        if not 0 <= k <= len(items):
            raise ValueError(f"cannot choose {k} of {len(items)} items")
        return [items[i] for i in islice(self.permutation(len(items)), k)]
