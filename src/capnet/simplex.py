"""Exact integer simplex for covering LPs with box-bounded variables.

Solves   min c.x   s.t.   A x >= b,   0 <= x <= 1

without rounding, so optima come back as exact Fractions and equality
comparisons against them are meaningful.  The solver assumes x = 1
satisfies every row (the callers only generate inequalities that the full
edge set meets), which gives a feasible starting basis for free: all
structural variables nonbasic at their upper bound, one surplus variable
basic per row.  From there it runs the upper-bounded simplex method with
Bland's rule, so every pivot choice is the lowest eligible index and the
run is deterministic and cycle-free.

Arithmetic is on Python integers only.  Each input row is scaled by the
lcm of its denominators, the costs by the lcm of theirs; a positive row
scale only rescales that row's surplus variable, and a positive cost
scale only rescales the reduced costs, so neither changes a ratio-test
comparison or a reduced-cost sign.  The tableau keeps one column per
nonbasic variable (a basic column is a unit column and is not stored).
Its entries are minors of the input, so they are kept fraction-free in
the Bareiss/Edmonds style (Applegate, Cook, Dash and Espinoza, *Exact
solutions to LP problems*, ORL 2007): with D = |det B| of the current
basis B, row i holds integers over its own scale[i], the value D had
when a pivot last touched the row.  Its entries at D are
row * D / scale[i], which are integers.  The reduced costs are always
over D.  A pivot on element p in column q, with the pivot row brought to
D first and negated when p < 0, maps a row whose column-q entry f is
nonzero to

    T'[i][j] = (T[i][j] * p - f * T[p][j]) // scale[i],

which is exact by the Bareiss identity.  On the columns where the pivot
row is 0 this is T[i][j] * p // scale[i].  Then scale[i] = p, which is
also the next D.  A row with f = 0 is left alone: its values only
change scale, which costs nothing until a pivot touches it.  The basic
values are a last column of the tableau, scale[i] times each row's
basic value: a pivot updates them with the same formula and a bound flip
by one column, so no pivot re-derives them, and the ratio test compares
integer cross products of one row's entries instead of Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .util import over_common_denominator

_ZERO = Fraction(0)
_ONE = Fraction(1)


def solve_box_covering_lp(costs, rows):
    """Minimize costs.x subject to the given rows and 0 <= x <= 1.

    costs: sequence of nonnegative rationals, one per structural variable.
    rows: sequence of (coeffs, rhs); each row means coeffs.x >= rhs.
    Returns (x, objective) with every entry a Fraction.
    Raises ValueError if some row is not satisfied by x = 1.
    """
    m = len(costs)
    costs = [Fraction(c) for c in costs]
    if not rows:
        return [Fraction(0)] * m, Fraction(0)

    # Row i, scaled to integers and stored as -coeffs.x + s = -rhs, keeps
    # its m nonbasic entries and then scale[i] times its basic value, which
    # at the start (every structural at 1, scale[i] = D = 1) is coeffs.1 - rhs.
    tab = []
    for coeffs, rhs in rows:
        if len(coeffs) != m:
            raise ValueError("row width does not match variable count")
        *ints, scaled_rhs = over_common_denominator([*coeffs, rhs])[0]
        slack = sum(ints) - scaled_rhs
        if slack < 0:
            raise ValueError("row not satisfied at x = 1; constraint pool is inconsistent")
        tab.append([-v for v in ints] + [slack])
    zrow, _ = over_common_denominator(costs)  # scale * D * reduced costs

    r = len(rows)
    den = 1
    scale = [1] * r                 # D at the pivot that last touched each row
    var = list(range(m))            # variable of each nonbasic column
    at_upper = [True] * m           # bound of each nonbasic column's variable
    basis = [m + i for i in range(r)]  # structurals are < m; surplus >= m is unbounded

    while True:
        col, entering = -1, m + r
        for j in range(m):
            if var[j] < entering and (zrow[j] > 0 if at_upper[j] else zrow[j] < 0):
                col, entering = j, var[j]
        if col < 0:
            x = [_ZERO] * m
            for j in range(m):
                if var[j] < m and at_upper[j]:
                    x[var[j]] = _ONE
            for i in range(r):
                if basis[i] < m:
                    x[basis[i]] = Fraction(tab[i][m], scale[i])
            objective = sum((costs[j] * x[j] for j in range(m)), _ZERO)
            return x, objective

        # Ratio test: entering moves by t >= 0 away from its current bound;
        # basic variable i changes at rate -direction * tab[i][col] / scale[i],
        # so its step to a bound is num / rate with scale[i] cancelled.  Steps
        # are compared as cross products of positive denominators.
        direction = -1 if at_upper[col] else 1
        limit = (1, 1) if entering < m else None  # own bound-to-bound distance
        block_row = -1
        block_to_upper = False
        for i in range(r):
            row = tab[i]
            rate = direction * row[col]
            if rate > 0:
                num = row[m]
                to_upper = False
            elif rate < 0:
                if basis[i] >= m:
                    continue
                num = scale[i] - row[m]
                rate = -rate
                to_upper = True
            else:
                continue
            # Strict improvement keeps bound flips preferred on ties; among
            # tying rows the smallest basic variable index leaves (Bland).
            if limit is None or num * limit[1] < limit[0] * rate:
                limit = (num, rate)
                block_row = i
                block_to_upper = to_upper
            elif (block_row >= 0 and num * limit[1] == limit[0] * rate
                  and basis[i] < basis[block_row]):
                block_row = i
                block_to_upper = to_upper
        if limit is None:
            raise ArithmeticError("LP is unbounded; the feasible region should be a box")

        if block_row < 0:
            # Entering variable crosses to its other bound; basis unchanged.
            at_upper[col] = not at_upper[col]
            for row in tab:
                if row[col]:
                    row[m] -= direction * row[col]
            continue

        # Pivot: the leaving variable takes over column col.  Its column is
        # the unit column D * e_p, which the same formula maps to
        # -sign * f * D / scale[i] off the pivot row and sign * D on it.
        # The last column is mapped as if both variables sat at 0, then the
        # new basic value gains 1 if entering left its upper bound, and
        # every row loses the leaving column if leaving stops at 1.
        prow = tab[block_row]
        if scale[block_row] != den:
            prow = [v * den // scale[block_row] for v in prow]
        piv = prow[col]
        sign = 1 if piv > 0 else -1
        if sign < 0:
            prow = [-v for v in prow]
            piv = -piv
        support = [(j, w) for j, w in enumerate(prow) if w and j != col]
        for i in range(r):
            row = tab[i]
            f = row[col]
            if not f or i == block_row:
                continue
            # Off the pivot row's support the row only changes scale, s to
            # piv: a product when s divides piv, nothing when they are equal.
            s = scale[i]
            q, rest = divmod(piv, s)
            if rest:
                new = [v * piv // s for v in row]
            elif q > 1:
                new = [v * q for v in row]
            else:
                new = row
            for j, w in support:
                new[j] = (row[j] * piv - f * w) // s
            g = sign * f * den // s
            new[col] = -g
            if block_to_upper:
                new[m] += g
            tab[i] = new
            scale[i] = piv
        f = zrow[col]
        zrow = [(v * piv - f * w) // den for v, w in zip(zrow, prow)]
        zrow[col] = -sign * f
        prow[col] = sign * den
        if direction < 0:
            prow[m] += piv
        if block_to_upper:
            prow[m] -= sign * den
        tab[block_row] = prow
        scale[block_row] = piv
        den = piv

        var[col] = basis[block_row]
        at_upper[col] = block_to_upper
        basis[block_row] = entering
