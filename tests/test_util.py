"""Fixed-point logs, seed derivation, rationals, partition enumeration,
the packed field codec."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from capnet.util import (
    LOG2_FIXED_BITS,
    FieldCodec,
    ceil_div,
    derive_seed,
    floor_log2,
    format_rational,
    iter_partitions,
    log2_fixed,
    pow2,
)


def test_log2_fixed_exact_at_powers_of_two():
    for h in range(7):
        assert log2_fixed(1 << h) == h


def test_log2_fixed_truncates_within_resolution():
    # The value is log2(n) rounded down to a multiple of 2^-16.
    step = Fraction(1, 1 << LOG2_FIXED_BITS)
    for n in (3, 5, 6, 7, 9, 100, 1000):
        lg = log2_fixed(n)
        assert lg.denominator <= 1 << LOG2_FIXED_BITS
        # 2^lg <= n < 2^(lg + step): check both with integer arithmetic,
        # (2^p)^(1/q) <= n  iff  2^p <= n^q.
        p, q = lg.numerator, lg.denominator
        assert 2 ** p <= n ** q
        hi = lg + step
        assert 2 ** hi.numerator > n ** hi.denominator


def test_log2_fixed_monotone():
    values = [log2_fixed(n) for n in range(1, 70)]
    assert values == sorted(values)


def test_log2_fixed_rejects_zero():
    with pytest.raises(ValueError):
        log2_fixed(0)


@given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6)))
def test_floor_log2_brackets(value):
    h = floor_log2(value)
    assert pow2(h) <= value < pow2(h + 1)


def test_floor_log2_specific():
    assert floor_log2(Fraction(1)) == 0
    assert floor_log2(Fraction(1, 2)) == -1
    assert floor_log2(Fraction(3, 8)) == -2
    assert floor_log2(Fraction(8)) == 3
    assert floor_log2(Fraction(17, 2)) == 3
    with pytest.raises(ValueError):
        floor_log2(Fraction(0))


def test_ceil_div():
    assert ceil_div(10, 3) == 4
    assert ceil_div(9, 3) == 3
    assert ceil_div(0, 5) == 0
    assert ceil_div(1, 7) == 1
    with pytest.raises(ValueError):
        ceil_div(1, 0)


def test_derive_seed_is_stable_and_spread():
    # Frozen value: platform-independent hashing is the whole point.
    assert derive_seed(0, 0) == derive_seed(0, 0)
    assert derive_seed(0, 0) == 3153696582655363665
    seen = {derive_seed(s, t) for s in range(4) for t in range(50)}
    assert len(seen) == 200
    assert derive_seed(1, "run/0") != derive_seed(1, "run/1")


def test_rational_round_trip():
    for v in (Fraction(0), Fraction(7), Fraction(-3, 4), Fraction(22, 7)):
        assert Fraction(format_rational(v)) == v


@given(st.fractions())
def test_rational_round_trip_everywhere(value):
    assert Fraction(format_rational(value)) == value


def _bell_count(n, max_blocks):
    return sum(
        sum(1 for _ in iter_partitions(n, b)) for b in range(1, max_blocks + 1)
    )


def test_iter_partitions_counts_match_stirling():
    # Stirling numbers of the second kind.
    assert sum(1 for _ in iter_partitions(4, 2)) == 7
    assert sum(1 for _ in iter_partitions(5, 3)) == 25
    assert sum(1 for _ in iter_partitions(6, 3)) == 90
    assert sum(1 for _ in iter_partitions(5, 1)) == 1
    assert sum(1 for _ in iter_partitions(5, 5)) == 1
    assert _bell_count(5, 5) == 52  # Bell number B_5


def test_iter_partitions_canonical_and_complete():
    seen = set()
    for assignment in iter_partitions(5, 3):
        # Restricted growth: first occurrences of block ids are in order.
        firsts = []
        for b in assignment:
            if b not in firsts:
                firsts.append(b)
        assert firsts == sorted(firsts)
        assert len(set(assignment)) == 3
        seen.add(assignment)
    assert len(seen) == 25


def test_iter_partitions_degenerate():
    assert list(iter_partitions(3, 4)) == []
    assert list(iter_partitions(3, 0)) == []
    assert list(iter_partitions(1, 1)) == [(0,)]


def _recursive_partitions(n, blocks):
    """The recursive restricted-growth generator iter_partitions replaced."""
    if blocks < 1 or blocks > n:
        return
    assign = [0] * n

    def rec(v, used):
        if n - v < blocks - used:
            return
        if v == n:
            if used == blocks:
                yield tuple(assign)
            return
        for b in range(min(used + 1, blocks)):
            assign[v] = b
            yield from rec(v + 1, used + 1 if b == used else used)

    yield from rec(1, 1)


@pytest.mark.parametrize("n", range(11))
def test_iter_partitions_matches_the_recursive_order(n):
    for blocks in range(n + 2):
        assert list(iter_partitions(n, blocks)) == list(_recursive_partitions(n, blocks)), blocks


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 24, 32])
def test_fields_read_little_endian_fields_on_any_host(size):
    # The codec packs and reads with explicit byte orders (struct's "<"
    # codes, or each field's little-endian bytes when wider), so it never
    # reads the host's native order: each field is the shifts and masks of
    # the integer.  16 and 32 bytes are the row store's fields after a
    # repack to 128 and 256 bits.
    rng = random.Random(size)
    values = [rng.getrandbits(8 * size) for _ in range(7)] + [0, (1 << 8 * size) - 1, 1 << (8 * size - 1)]
    codec = FieldCodec(len(values), size)
    packed = codec.pack(values)
    assert packed == sum(v << (8 * size * r) for r, v in enumerate(values))
    assert list(codec.read(packed)) == values
    small = bytes(rng.randrange(256) for _ in values)  # bytes take one strided copy
    assert codec.pack(small) == codec.pack(list(small)) == sum(v << (8 * size * r) for r, v in enumerate(small))
    # One byte per field: its top bit.
    fields, bits = codec.read_with_top_bits(packed)
    assert list(fields) == values
    assert list(bits) == [v >> (8 * size - 1) for v in values]
    assert list(bits[-3:]) == [0, 1, 1]
    assert FieldCodec(0, size).pack([]) == 0
