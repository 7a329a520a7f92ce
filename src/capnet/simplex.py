"""Exact integer simplex for covering LPs with box-bounded variables.

Solves   min c.x   s.t.   A x >= b,   0 <= x <= 1

without rounding, so optima come back as exact Fractions and equality
comparisons against them are meaningful.  The solver assumes x = 1
satisfies every row (the callers only generate inequalities that the full
edge set meets), which gives a feasible starting basis for free: all
structural variables nonbasic at their upper bound, one surplus variable
s_i = a_i.x - b_i basic per row.  From there it runs the upper-bounded
simplex method with Bland's rule, so every pivot choice is the lowest
eligible index and the run is deterministic and cycle-free.

Arithmetic is on Python integers only.  Each row is scaled by the lcm of
its denominators and the costs by the lcm of theirs, which changes no
ratio-test comparison and no reduced-cost sign.  Tableau entries are
minors of the input, kept fraction-free in the Bareiss/Edmonds style
(Applegate, Cook, Dash and Espinoza, *Exact solutions to LP problems*, ORL
2007): with D = |det B| of the current basis, a row holds integers over
its own scale, the D of the last pivot that touched it, and row * D /
scale is integral.  The reduced costs are always over D.

Only the basic structurals, at most m, keep a tableau row.  The basic
surplus rows need none: as in the revised simplex (Bixby, *Solving
real-world LPs*, OR 2002), what the ratio test needs of them comes from
the original integer rows, with D.x_j read off the structurals (0 or D
when nonbasic, a stored row's value at D when basic):

    value  D.s_i  = sum_j a_ij (D.x_j) - D.b_i,
    rate   D.ds_i = sum_j a_ij mu_j,   mu_j = D.dx_j along the entering column.

mu is nonzero only on the entering structural and on the basic
structurals whose row is nonzero there, and a nonbasic surplus reads
rate 0.  RowStore packs each column of A and of b into one integer with a
w-bit field per row, leaving out the rows an earlier row implies, whose
surplus never leaves the basis (see RowStore).  Either sum, over all
rows at once, is then one sum of multiplier times packed column, read
back with one to_bytes.  A field is exact while its sum stays below
2^(w-1) in absolute value: every field is bounded by (largest row sum
|a| + |b|) times the largest |multiplier|, or times D for a value,
since 0 <= x <= 1, and a bound reaching 2^(w-2) repacks the columns
wider.  The rates are summed every iteration, the values only when a
ratio test first needs them and again after a repack.  In between, the
packed values V follow the packed falls F = -D.ds exactly: a bound flip
(step 1) makes V - F, and a pivot (step lnum / lrate, to D') the
Bareiss step (lrate V - lnum F) * D' // (D lrate).

A pivot on element p in column q, with the pivot row P brought to D and
negated when p < 0, maps each stored row T with f = T[q] nonzero to
T'[j] = (T[j] * p - f * P[j]) // scale, exact by the Bareiss identity, at
scale p, the next D; a row with f = 0 is left alone.  P comes from one of
three cases:

  * a leaving structural pivots on its stored row;
  * a leaving surplus row i builds its row at D from a_i and the stored
    rows: -a_iq D on each nonbasic structural column q, plus
    sum_s a_is T_sq D / scale_s, and D.s_i as its value;
  * an entering surplus is basic afterwards, so P is dropped, not stored.

A stored row's last column is its scale times the basic value; a pivot
updates it with the same formula and a bound flip by one column.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import compress

from .util import over_common_denominator

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HIGH_BIT = bytes(b >> 7 for b in range(256))


def _biased(values, width):
    """sum_k (values[k] + 2^(width-1) - 1) << (width * k)."""
    half, size = (1 << (width - 1)) - 1, width // 8
    return int.from_bytes(b"".join([(v + half).to_bytes(size, "little") for v in values]), "little")


class RowStore:
    """Covering rows coeffs.x >= rhs over m variables, append-only.

    A row is scaled to integers, checked at x = 1 and packed once, when
    added; len() and iteration give the rows as added, as (coeffs, rhs),
    and `packed` counts the rows packed.  A row of the wrong width, or
    one that x = 1 does not satisfy, raises ValueError, and none of the
    rows given is added.

    A row B is kept but not packed when its scaled integers repeat an
    earlier row's, or when extend() is told that an earlier row A of the
    same call implies it: a_B >= a_A coefficientwise and b_B <= b_A, so
    s_B >= s_A at every x >= 0.  Were B to block a step, A would block no
    later and win the tie on its lower index.  With A nonbasic, entering,
    or basic at 0 and not falling, B reaches 0 only where some x_j with
    a_Bj > a_Aj meets its bound 0, and that structural wins the tie.  So
    B's surplus never leaves the basis, and the pivots are those of the
    full list.  A cutting-plane caller loses nothing by claiming only
    within a call: it adds rows violated at an x that meets every earlier
    row, and s_B >= s_A >= 0 would leave B satisfied there.
    """

    def __init__(self, m, rows=()):
        self.m = m
        self.width = 64   # bits per packed field
        self.extent = 0   # largest sum |a_ij| + |b_i| of a row
        self._rows, self._ints, self._seen = [], [], set()
        self._columns = [0] * (m + 1)  # column m packs the right-hand sides
        self._bias = 0
        self.extend(rows)

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    @property
    def packed(self):
        return len(self._ints)

    def extend(self, rows, implied_by=None):
        """Add `rows`.  `implied_by` maps the position in `rows` of a row
        to the position of an earlier row of `rows` that implies it; each
        claim is checked exactly, and a false one raises ValueError."""
        rows, new, implied_by = list(rows), {}, implied_by or {}  # new: the rows to pack
        for k, (coeffs, rhs) in enumerate(rows):
            if len(coeffs) != self.m:
                raise ValueError("row width does not match variable count")
            ints = tuple(over_common_denominator([*coeffs, rhs])[0])
            if sum(ints) < 2 * ints[-1]:
                raise ValueError("row not satisfied at x = 1; constraint pool is inconsistent")
            if k not in implied_by and ints not in self._seen:
                new[ints] = None
        for k, j in implied_by.items():
            if not 0 <= j < k < len(rows):
                raise ValueError(f"row {k} of the call is not a given row after row {j}")
            (a, b), (c, d) = rows[k], rows[j]
            if b > d or any(v < w for v, w in zip(a, c)):
                raise ValueError(f"row {j} does not imply row {k}")
        self._rows += rows
        self._seen.update(new)
        self._ints += new
        self.extent = max([self.extent, *(sum(map(abs, v)) for v in new)])
        if self.extent >= 1 << (self.width - 2):
            self._repack(self.extent)
        else:
            shift, bias = self.width * (len(self._ints) - len(new)), _biased([0] * len(new), self.width)
            for j, column in enumerate(zip(*new)):
                if self.width == 64 and min(column) >= 0 and sys.byteorder == "little":
                    packed = int.from_bytes(array("Q", column), "little")  # one unsigned field each
                else:
                    packed = _biased(column, self.width) - bias
                self._columns[j] += packed << shift
            self._bias += bias << shift

    def _repack(self, bound):
        """Pack at least twice as wide, in whole 64-bit words, so that
        `bound` stays below 2^(w-2)."""
        self.width = max(2 * self.width, -(-(bound.bit_length() + 2) // 64) * 64)
        self._bias = _biased([0] * len(self._ints), self.width)
        self._columns = [_biased(column, self.width) - self._bias for column in zip(*self._ints)]

    def widen(self, top):
        """Repack if a sum with multipliers up to `top` in absolute value
        could overflow a field; True if it did."""
        if self.extent * top < 1 << (self.width - 2):
            return False
        self._repack(self.extent * top)
        return True

    def pack(self, multipliers):
        """sum_j multipliers[j] * a_ij over the columns j given (column m
        is the rhs), for every distinct row i, as one signed packed integer."""
        return sum(v * self._columns[j] for j, v in multipliers.items())

    def decode(self, total):
        """(fields, bias, positive) of a packed total: for the i-th
        distinct row, fields[i] - bias is its sum, and positive[i] is 1 if
        that is above 0.  Every sum must lie within the last widen()."""
        size = self.width // 8
        raw = (total + self._bias).to_bytes(size * len(self._ints), "little")
        if size == 8 and sys.byteorder == "little":
            fields = memoryview(raw).cast("Q")
        else:
            fields = [int.from_bytes(raw[k:k + size], "little") for k in range(0, len(raw), size)]
        # With the bias 2^(w-1) - 1 a field's top bit is set iff its sum is >= 1.
        return fields, (1 << (self.width - 1)) - 1, raw[size - 1::size].translate(_HIGH_BIT)


def solve_box_covering_lp(costs, rows):
    """Minimize costs.x subject to the given rows and 0 <= x <= 1.

    costs: sequence of nonnegative rationals, one per structural variable.
    rows: a RowStore over len(costs) variables, or a sequence of
    (coeffs, rhs) that is made one; each row means coeffs.x >= rhs.
    Returns (x, objective) with every entry a Fraction.
    Raises ValueError if some row is not satisfied by x = 1.
    """
    m = len(costs)
    costs = [Fraction(c) for c in costs]
    if not isinstance(rows, RowStore):
        rows = RowStore(m, rows)
    elif rows.m != m:
        raise ValueError("row width does not match variable count")
    if not rows:
        return [_ZERO] * m, _ZERO

    zrow, _ = over_common_denominator(costs)  # scale * D * reduced costs
    den = 1
    var = list(range(m))            # variable of each nonbasic column
    at_upper = [True] * m           # bound of each nonbasic column's variable
    basic = {}  # basic structural -> (row: m nonbasic entries, scale * value; scale)
    surplus = None  # D.s_i of every distinct row, packed; None until needed or after a repack

    while True:
        col, entering = -1, m + len(rows)
        for j in range(m):
            if var[j] < entering and (zrow[j] > 0 if at_upper[j] else zrow[j] < 0):
                col, entering = j, var[j]
        if col < 0:
            x = [_ZERO] * m
            for v, up in zip(var, at_upper):
                if v < m and up:
                    x[v] = _ONE
            for s, (row, sc) in basic.items():
                x[s] = Fraction(row[m], sc)
            return x, sum((c * v for c, v in zip(costs, x)), _ZERO)

        # Ratio test: entering moves by t >= 0 away from its current bound;
        # basic structural s changes at rate -direction * row[col] / scale,
        # so its step to a bound is num / rate with the scale cancelled.
        # Steps are compared as cross products of positive denominators, and
        # the step (1, 0) stands for no limit.  Strict improvement keeps
        # bound flips preferred on ties; among tying rows the smallest basic
        # variable index leaves (Bland).
        direction = -1 if at_upper[col] else 1
        lnum, lrate = (1, 1) if entering < m else (1, 0)  # own bound-to-bound distance
        block, block_to_upper = -1, False  # the leaving variable
        fall = {entering: -direction * den} if entering < m else {}  # -mu
        for s, (row, sc) in basic.items():
            rate = direction * row[col]
            if not rate:
                continue
            fall[s] = rate * den // sc
            num, to_upper = (row[m], False) if rate > 0 else (sc - row[m], True)
            rate = abs(rate)
            if num * lrate < lnum * rate or (
                    block >= 0 and num * lrate == lnum * rate and s < block):
                lnum, lrate, block, block_to_upper = num, rate, s, to_upper
        # A basic surplus falls, to 0 only, where its rate of decrease
        # -D.ds_i is positive.  Its index m + i is above every structural
        # and rises with i, so it leaves only on a strictly smaller step.
        if rows.widen(max([den, *map(abs, fall.values())])):
            surplus = None
        drop = rows.pack(fall)
        falls, fbias, falling = rows.decode(drop)
        falling = list(compress(range(len(falling)), falling))
        if falling and lnum:
            if surplus is None:
                dx = {v: den for v, up in zip(var, at_upper) if v < m and up}
                dx.update((s, row[m] * den // sc) for s, (row, sc) in basic.items())
                dx[m] = -den
                surplus = rows.pack(dx)
            values, vbias, _ = rows.decode(surplus)
            for i in falling:
                num = values[i] - vbias
                rate = falls[i] - fbias
                if num * lrate < lnum * rate:
                    lnum, lrate, block, block_to_upper = num, rate, m + i, False
                    if not num:
                        break
        if not lrate:
            raise ArithmeticError("LP is unbounded; the feasible region should be a box")

        if block < 0:
            # Entering variable crosses to its other bound; basis unchanged.
            at_upper[col] = not at_upper[col]
            for row, _ in basic.values():
                row[m] -= direction * row[col]
            if surplus is not None:
                surplus -= drop
            continue

        # Pivot: the leaving variable takes over column col.  Its column is
        # the unit column D * e_p, which the same formula maps to
        # -sign * f * D / scale off the pivot row and sign * D on it.
        # The last column is mapped as if both variables sat at 0, then the
        # new basic value gains 1 if entering left its upper bound, and
        # every row loses the leaving column if leaving stops at 1.
        if block < m:
            prow, sc = basic.pop(block)
            if sc != den:
                prow = [v * den // sc for v in prow]
        else:
            a = rows._ints[block - m]
            prow = [-a[v] * den if v < m else 0 for v in var] + [values[block - m] - vbias]
            for s, (row, sc) in basic.items():
                if a[s]:
                    for j in range(m):
                        if row[j]:
                            prow[j] += a[s] * row[j] * den // sc
        piv = prow[col]
        sign = 1 if piv > 0 else -1
        if sign < 0:
            prow = [-v for v in prow]
            piv = -piv
        support = [(j, w) for j, w in enumerate(prow) if w and j != col]
        for s, (row, sc) in basic.items():
            f = row[col]
            if not f:
                continue
            # Off the pivot row's support the row only changes scale, sc to
            # piv: a product when sc divides piv, nothing when they are equal.
            q, rest = divmod(piv, sc)
            if rest:
                new = [v * piv // sc for v in row]
            elif q > 1:
                new = [v * q for v in row]
            else:
                new = row
            for j, w in support:
                new[j] = (row[j] * piv - f * w) // sc
            g = sign * f * den // sc
            new[col] = -g
            if block_to_upper:
                new[m] += g
            basic[s] = new, piv
        f = zrow[col]
        zrow = [(v * piv - f * w) // den for v, w in zip(zrow, prow)]
        zrow[col] = -sign * f
        prow[col] = sign * den
        if direction < 0:
            prow[m] += piv
        if block_to_upper:
            prow[m] -= sign * den
        if surplus is not None:  # each s_i moves by lnum / lrate times its fall
            surplus = (lrate * surplus - lnum * drop) * piv // (den * lrate)
        den = piv
        var[col], at_upper[col] = block, block_to_upper
        if entering < m:  # an entering surplus is basic and keeps no row
            basic[entering] = prow, piv
