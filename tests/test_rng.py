import pytest

from bergeham.rng import MASK64, SplitMix64, derive_seed, mix64


def test_known_stream_is_stable():
    # frozen reference values; a change here breaks every recorded seed
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_streams_are_deterministic():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_mix64_is_in_range_and_nontrivial():
    vals = {mix64(i) for i in range(100)}
    assert len(vals) == 100
    assert all(0 <= v <= MASK64 for v in vals)


def test_below_bounds_and_rejection():
    rng = SplitMix64(7)
    draws = [rng.below(10) for _ in range(1000)]
    assert set(draws) <= set(range(10))
    assert len(set(draws)) == 10


def test_random_unit_interval():
    rng = SplitMix64(99)
    xs = [rng.random() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert 0.4 < sum(xs) / len(xs) < 0.6


def test_shuffle_is_permutation_and_seed_sensitive():
    base = list(range(20))
    a = base[:]
    SplitMix64(5).shuffle(a)
    b = base[:]
    SplitMix64(5).shuffle(b)
    c = base[:]
    SplitMix64(6).shuffle(c)
    assert a == b
    assert sorted(a) == base
    assert a != c


def test_choose_subset():
    rng = SplitMix64(3)
    picked = rng.choose(list(range(30)), 7)
    assert len(picked) == 7
    assert len(set(picked)) == 7
    assert set(picked) <= set(range(30))


def pool_swap_choose(rng, items, k):
    """Reference: a partial Fisher-Yates shuffle of a full copy of items."""
    pool = list(items)
    for i in range(k):
        j = i + rng.below(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


@pytest.mark.parametrize("size", [1, 2, 5, 17, 100])
def test_choose_matches_pool_swap_reference(size):
    # items differ from their positions, so an index mix-up shows; equal
    # states afterwards mean both made the same draws
    items = [3 * x + 1 for x in range(size)]
    for seed in range(200):
        for k in sorted({0, 1, 2, size // 2, size - 1, size} & set(range(size + 1))):
            ours, ref = SplitMix64(seed), SplitMix64(seed)
            assert ours.choose(items, k) == pool_swap_choose(ref, items, k)
            assert ours.state == ref.state


def test_derive_seed_varies_with_salt():
    assert derive_seed(1, 2) != derive_seed(1, 3)
    assert derive_seed(1, 2) == derive_seed(1, 2)
