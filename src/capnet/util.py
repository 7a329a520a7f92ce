"""Shared helpers: fixed-point logs, rationals, seeds, partitions, packed fields."""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from functools import lru_cache
from struct import Struct

LOG2_FIXED_BITS = 16
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}  # struct codes of the narrow field sizes
_HIGH_BIT = bytes(b >> 7 for b in range(256))


@lru_cache(maxsize=None)
def log2_fixed(n: int) -> Fraction:
    """Rational log2(n), truncated to 2**-16.  Exact for powers of two.

    Uses integer arithmetic only (bit length of n**2**16) so the value is
    identical on every platform, which keeps every threshold that depends
    on it reproducible.
    """
    if n < 1:
        raise ValueError("log2_fixed needs n >= 1")
    if n == 1:
        return Fraction(0)
    shift = 1 << LOG2_FIXED_BITS
    return Fraction((n ** shift).bit_length() - 1, shift)


def floor_log2(value: Fraction) -> int:
    """Largest h with 2**h <= value, for any positive rational."""
    if value <= 0:
        raise ValueError("floor_log2 needs a positive value")
    value = Fraction(value)
    p, q = value.numerator, value.denominator
    h = p.bit_length() - q.bit_length()
    if h >= 0:
        return h if p >= (q << h) else h - 1
    return h if (p << (-h)) >= q else h - 1


def pow2(h: int) -> Fraction:
    return Fraction(1 << h) if h >= 0 else Fraction(1, 1 << (-h))


def over_common_denominator(values):
    """(numerators, den): each rational in `values` as an integer over
    den, the lcm of their denominators (1 for integers)."""
    values = list(values)
    if all(type(v) is int for v in values):
        return values, 1
    values = [v if type(v) in (int, Fraction) else Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def ceil_div(a: int, b: int) -> int:
    if b <= 0:
        raise ValueError("ceil_div needs b > 0")
    return -((-a) // b)


def derive_seed(seed: int, tag) -> int:
    """Stable 64-bit sub-seed for attempt/trial `tag`, platform independent."""
    digest = hashlib.blake2b(f"{seed}/{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def format_rational(value) -> str:
    return str(Fraction(value))


def iter_partitions(n: int, blocks: int):
    """Yield every partition of 0..n-1 into exactly `blocks` nonempty parts.

    Partitions are emitted as restricted-growth assignment tuples: vertex 0
    always sits in part 0 and each new part index appears in vertex order,
    so every partition shows up exactly once, in lexicographic order.  The
    prefixes grow one vertex at a time, each extended by the parts it may
    take next in ascending order; a prefix that leaves too few vertices to
    open the remaining parts is dropped.  Every partition is built before
    the first is yielded.
    """
    if blocks < 1 or blocks > n:
        return
    level = [((0,), 1)]  # (prefix, parts it uses)
    for v in range(1, n):
        least = blocks - (n - 1 - v)  # parts used through v that leave room for the rest
        step = [[((b,), w) for b in range(min(u + 1, blocks)) for w in [max(u, b + 1)] if w >= least]
                for u in range(blocks + 1)]
        level = [(a + b, w) for a, u in level for b, w in step[u]]
    for a, _ in level:
        yield a


class FieldCodec:
    """`count` non-negative fields of `size` bytes in one integer, field k at
    bit 8 * size * k, little-endian on any host: struct's "<" codes up to 8
    bytes, each field's own bytes above.  `read_with_top_bits` also gives a
    byte per field: its top bit."""

    def __init__(self, count, size):
        self.size, self.length = size, count * size
        if size in _CODES:
            form = Struct(f"<{count}{_CODES[size]}")
            self._pack, self._unpack = form.pack, form.unpack
        else:
            self._pack = lambda *fields: b"".join([v.to_bytes(size, "little") for v in fields])
            self._unpack = lambda raw: [int.from_bytes(raw[k:k + size], "little") for k in range(0, len(raw), size)]

    def pack(self, fields):
        if isinstance(fields, (bytes, bytearray)):  # fields below 256: one strided copy
            raw = bytearray(self.length)
            raw[::self.size] = fields
            return int.from_bytes(raw, "little")
        return int.from_bytes(self._pack(*fields), "little")

    def read(self, value):
        return self._unpack(value.to_bytes(self.length, "little"))

    def read_with_top_bits(self, value):
        raw = value.to_bytes(self.length, "little")
        return self._unpack(raw), raw[self.size - 1::self.size].translate(_HIGH_BIT)
