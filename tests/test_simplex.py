"""Exact bounded-variable simplex against exhaustive vertex enumeration
and against a Fraction-tableau reference.

An optimum of min c.x over {A x >= b, 0 <= x <= 1} sits at a basic point:
the intersection of m linearly independent active constraints drawn from
the rows and the bound planes.  Enumerating all such intersections with
rational Gaussian elimination is slow but unarguable.

The optimum value alone does not pin the vertex among ties, and the
cutting-plane loop separates at the vertex.  _reference_solve is the
dense Fraction tableau the integer solver replaced, with the same Bland
rule, so the two must return the same vertex, not only the same value.
The integer solver reads its surplus rows off packed columns, so it is
also run on entries that need wider fields, on negative entries and on
a row store extended between solves.
"""

import itertools
import random
import re
from fractions import Fraction

import pytest

from capnet.kclp import solve_good
from capnet.oracle import gen_random
from capnet.simplex import RowStore, solve_box_covering_lp


def _solve_square(eqs, m):
    a = [list(row) + [rhs] for row, rhs in eqs]
    pivots = []
    r = 0
    for c in range(m):
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            return None
        a[r], a[p] = a[p], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    for i in range(r, len(a)):
        if a[i][m] != 0:
            return None
    x = [Fraction(0)] * m
    for i, c in enumerate(pivots):
        x[c] = a[i][m]
    return x


def _brute_optimum(costs, rows, m):
    cons = [([Fraction(v) for v in row], Fraction(rhs)) for row, rhs in rows]
    planes = list(cons)
    for j in range(m):
        e = [Fraction(0)] * m
        e[j] = Fraction(1)
        planes.append((list(e), Fraction(0)))
        planes.append((list(e), Fraction(1)))
    best = None
    for subset in itertools.combinations(range(len(planes)), m):
        x = _solve_square([planes[i] for i in subset], m)
        if x is None or any(v < 0 or v > 1 for v in x):
            continue
        if any(
            sum(a * v for a, v in zip(row, x)) < rhs for row, rhs in cons
        ):
            continue
        value = sum(c * v for c, v in zip(costs, x))
        if best is None or value < best:
            best = value
    return best


def test_triangle_relaxation_value():
    costs = [Fraction(0), Fraction(0), Fraction(100)]
    rows = [([10, 9, 0], 10), ([0, 9, 10], 10), ([10, 0, 10], 10)]
    x, obj = solve_box_covering_lp(costs, rows)
    assert obj == 10
    assert x == [Fraction(1), Fraction(1), Fraction(1, 10)]


def test_no_rows_means_buy_nothing():
    x, obj = solve_box_covering_lp([Fraction(3), Fraction(5)], [])
    assert x == [Fraction(0), Fraction(0)] and obj == 0


def test_row_must_hold_at_upper_bounds():
    with pytest.raises(ValueError):
        solve_box_covering_lp([Fraction(1)], [([2], 3)])
    with pytest.raises(ValueError):
        solve_box_covering_lp([Fraction(1)], [([1, 1], 1)])  # width mismatch
    with pytest.raises(ValueError, match="row width"):
        solve_box_covering_lp([Fraction(1)], RowStore(2, [([1, 1], 1)]))


def test_binding_box_bound():
    # 3a + 4b >= 6 with a costly: b saturates at 1, a covers the rest.
    x, obj = solve_box_covering_lp(
        [Fraction(7), Fraction(2)], [([3, 4], 6)]
    )
    assert x == [Fraction(2, 3), Fraction(1)]
    assert obj == Fraction(20, 3)


def test_redundant_rows_change_nothing():
    costs = [Fraction(2), Fraction(3)]
    rows = [([1, 1], 1)]
    x1, obj1 = solve_box_covering_lp(costs, rows)
    x2, obj2 = solve_box_covering_lp(costs, rows + [([2, 2], 2), ([1, 1], 1)])
    assert obj1 == obj2 == 2
    assert x1 == x2


def test_more_rows_never_cheapen():
    rng = random.Random(4)
    for _ in range(20):
        m = rng.randint(1, 4)
        costs = [Fraction(rng.randint(0, 8)) for _ in range(m)]
        rows = []
        for _ in range(3):
            coeffs = [rng.randint(0, 5) for _ in range(m)]
            if sum(coeffs) == 0:
                coeffs[0] = 1
            rows.append((coeffs, rng.randint(0, sum(coeffs))))
        _, lo = solve_box_covering_lp(costs, rows[:1])
        _, hi = solve_box_covering_lp(costs, rows)
        assert lo <= hi


@pytest.mark.parametrize("trial", range(40))
def test_matches_vertex_enumeration(trial):
    rng = random.Random(1000 + trial)
    m = rng.randint(1, 4)
    r = rng.randint(1, 4)
    costs = [Fraction(rng.randint(0, 9)) for _ in range(m)]
    rows = []
    for _ in range(r):
        coeffs = [rng.randint(0, 6) for _ in range(m)]
        if sum(coeffs) == 0:
            coeffs[rng.randrange(m)] = 1
        rows.append((coeffs, rng.randint(0, sum(coeffs))))
    x, obj = solve_box_covering_lp(costs, rows)
    assert all(0 <= v <= 1 for v in x)
    for coeffs, rhs in rows:
        assert sum(Fraction(c) * v for c, v in zip(coeffs, x)) >= rhs
    assert obj == sum(c * v for c, v in zip(costs, x))
    assert obj == _brute_optimum(costs, rows, m)


def test_deterministic_resolve():
    costs = [Fraction(1), Fraction(2), Fraction(1)]
    rows = [([2, 1, 0], 2), ([0, 1, 2], 2), ([1, 1, 1], 2)]
    first = solve_box_covering_lp(costs, rows)
    for _ in range(3):
        assert solve_box_covering_lp(costs, rows) == first


def test_fractional_rhs_and_coefficients():
    x, obj = solve_box_covering_lp(
        [Fraction(1)], [([Fraction(3, 2)], Fraction(1, 2))]
    )
    assert x == [Fraction(1, 3)] and obj == Fraction(1, 3)


def _reference_solve(costs, rows):
    """Dense Fraction tableau, all columns kept, basic values re-derived
    on every iteration; same starting basis and same Bland rule."""
    m = len(costs)
    costs = [Fraction(c) for c in costs]
    if not rows:
        return [Fraction(0)] * m, Fraction(0)
    r = len(rows)
    n = m + r
    tab = []
    for coeffs, rhs in rows:
        if len(coeffs) != m:
            raise ValueError("row width does not match variable count")
        coeffs = [Fraction(v) for v in coeffs]
        rhs = Fraction(rhs)
        if sum(coeffs) < rhs:
            raise ValueError("row not satisfied at x = 1")
        tab.append([-v for v in coeffs] + [Fraction(0)] * r + [-rhs])
    for i in range(r):
        tab[i][m + i] = Fraction(1)
    upper = [Fraction(1)] * m + [None] * r
    zrow = costs + [Fraction(0)] * r
    basis = [m + i for i in range(r)]
    in_basis = [False] * m + [True] * r
    at_upper = [True] * m + [False] * r
    while True:
        xb = [
            tab[i][n] - sum(tab[i][j] for j in range(n) if not in_basis[j] and at_upper[j])
            for i in range(r)
        ]
        entering = next(
            (j for j in range(n)
             if not in_basis[j] and (zrow[j] > 0 if at_upper[j] else zrow[j] < 0)),
            -1,
        )
        if entering < 0:
            x = [Fraction(1) if at_upper[j] else Fraction(0) for j in range(n)]
            for i in range(r):
                x[basis[i]] = xb[i]
            return x[:m], sum((c * v for c, v in zip(costs, x)), Fraction(0))
        direction = -1 if at_upper[entering] else 1
        limit = upper[entering]
        block_row, block_to_upper = -1, False
        for i in range(r):
            rate = direction * tab[i][entering]
            if rate > 0:
                t, to_upper = xb[i] / rate, False
            elif rate < 0 and upper[basis[i]] is not None:
                t, to_upper = (upper[basis[i]] - xb[i]) / -rate, True
            else:
                continue
            if limit is None or t < limit or (
                t == limit and block_row >= 0 and basis[i] < basis[block_row]
            ):
                limit, block_row, block_to_upper = t, i, to_upper
        assert limit is not None
        if block_row < 0:
            at_upper[entering] = not at_upper[entering]
            continue
        leaving = basis[block_row]
        in_basis[leaving], at_upper[leaving] = False, block_to_upper
        basis[block_row], in_basis[entering] = entering, True
        prow = [v / tab[block_row][entering] for v in tab[block_row]]
        tab[block_row] = prow
        for i in range(r):
            if i != block_row and tab[i][entering]:
                f = tab[i][entering]
                tab[i] = [v - f * w if w else v for v, w in zip(tab[i], prow)]
        f = zrow[entering]
        zrow = [v - f * w for v, w in zip(zrow, prow)]


def _tied_degenerate_lp(rng):
    """Small costs drawn from few values (ties), duplicated and scaled
    copies of rows, rows tight at x = 1 and rows with zero rhs."""
    m = rng.randint(1, 6)
    costs = [Fraction(rng.choice((0, 1, 1, 2, 3))) for _ in range(m)]
    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(m)]
        if sum(coeffs) == 0:
            coeffs[rng.randrange(m)] = 1
        rhs = rng.choice((sum(coeffs), 0, rng.randint(0, sum(coeffs))))
        rows.append((coeffs, rhs))
        if rng.random() < 0.3:
            rows.append((list(coeffs), rhs))
        if rng.random() < 0.2:
            rows.append(([2 * v for v in coeffs], 2 * rhs))
    rng.shuffle(rows)
    return costs, rows


def test_same_vertex_as_reference_on_tied_degenerate_lps():
    rng = random.Random(2024)
    for _ in range(250):
        costs, rows = _tied_degenerate_lp(rng)
        assert solve_box_covering_lp(costs, rows) == _reference_solve(costs, rows)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_same_vertex_as_reference_on_solve_good_pools(monkeypatch, seed):
    calls = []

    def recording(costs, rows):
        calls.append((list(costs), [(list(c), rhs) for c, rhs in rows]))
        return solve_box_covering_lp(costs, rows)

    monkeypatch.setattr("capnet.kclp.solve_box_covering_lp", recording)
    solve_good(gen_random("uniform", 8, 16, seed))
    assert calls
    for costs, rows in calls:
        assert solve_box_covering_lp(costs, rows) == _reference_solve(costs, rows)


def _sparse_covering_lp(rng):
    """40-80 rows of 2-4 nonzeros over 8-16 columns: most pivots leave
    most rows alone, and a row left alone for several pivots can become
    the pivot row later."""
    m = rng.randint(8, 16)
    costs = [Fraction(rng.randint(1, 20)) for _ in range(m)]
    rows = []
    for _ in range(rng.randint(40, 80)):
        coeffs = [0] * m
        for e in rng.sample(range(m), rng.randint(2, 4)):
            coeffs[e] = rng.randint(1, 9)
        rows.append((coeffs, rng.randint(1, sum(coeffs))))
    return costs, rows


def test_same_vertex_as_reference_on_sparse_lps():
    rng = random.Random(15)
    for _ in range(12):
        costs, rows = _sparse_covering_lp(rng)
        assert solve_box_covering_lp(costs, rows) == _reference_solve(costs, rows)


def test_same_vertex_as_reference_on_kway_pools(monkeypatch):
    calls = []

    def recording(costs, rows):
        calls.append((list(costs), [(list(c), rhs) for c, rhs in rows]))
        return solve_box_covering_lp(costs, rows)

    monkeypatch.setattr("capnet.kclp.solve_box_covering_lp", recording)
    solve_good(gen_random("kway", 7, 12, 1, levels=2))
    assert len(calls) > 2
    for costs, rows in calls:
        assert solve_box_covering_lp(costs, rows) == _reference_solve(costs, rows)


def test_mixed_denominators_match_reference_and_integer_scaling():
    f = Fraction
    costs = [f(1, 3), f(5, 6), f(7, 4)]
    rows = [
        ([f(1, 3), f(5, 6), f(7, 4)], f(3, 2)),
        ([f(7, 4), f(0), f(1, 3)], f(5, 6)),
        ([f(5, 6), f(1, 3), f(0)], f(1, 2)),
    ]
    x, obj = solve_box_covering_lp(costs, rows)
    assert (x, obj) == _reference_solve(costs, rows)
    # Each row times the lcm of its denominators, the costs times 12.
    scaled_rows = [([4, 10, 21], 18), ([21, 0, 4], 10), ([5, 2, 0], 3)]
    x_int, obj_int = solve_box_covering_lp([4, 10, 21], scaled_rows)
    assert x_int == x and obj_int == 12 * obj
    assert obj == _brute_optimum(costs, rows, 3)


def _big_lp(rng, size):
    """Entries near `size` over denominators 1, 3 and 7, some zero."""
    m = rng.randint(2, 4)
    costs = [Fraction(rng.randint(0, 9), rng.choice((1, 2, 5))) for _ in range(m)]
    rows = []
    for _ in range(rng.randint(2, 5)):
        coeffs = [Fraction(size + rng.randint(-999, 999), rng.choice((1, 3, 7)))
                  if rng.random() < 0.8 else Fraction(0) for _ in range(m)]
        if not any(coeffs):
            coeffs[0] = Fraction(size)
        rows.append((coeffs, sum(coeffs) * Fraction(rng.randint(0, 60), 61)))
    return costs, rows


@pytest.mark.parametrize("size", [2 ** 40, 2 ** 70])
def test_wide_fields_match_reference(size):
    # Near 2^40 the first pivot's D already pushes a field bound past
    # 2^62, so the store repacks before a sum; near 2^70 it does so as
    # the rows are added.
    rng = random.Random(size % 1009)
    widths = []
    for _ in range(25):
        costs, rows = _big_lp(rng, size)
        store = RowStore(len(costs), rows)
        assert solve_box_covering_lp(costs, store) == _reference_solve(costs, rows)
        widths.append(store.width)
    # An LP that ends without a pivot keeps D = 1 and needs no repack.
    assert sum(w > 64 for w in widths) >= (25 if size > 2 ** 62 else 12)
    assert max(widths) >= 256


def test_negative_and_zero_coefficients_match_reference():
    rng = random.Random(17)
    for _ in range(150):
        m = rng.randint(1, 5)
        costs = [Fraction(rng.randint(0, 6)) for _ in range(m)]
        rows = []
        for _ in range(rng.randint(1, 6)):
            coeffs = [rng.choice((-4, -1, 0, 0, 1, 2, 5)) for _ in range(m)]
            rows.append((coeffs, rng.randint(min(0, sum(coeffs)) - 3, sum(coeffs))))
        x, obj = solve_box_covering_lp(costs, rows)
        assert (x, obj) == _reference_solve(costs, rows)
        if m <= 3:
            assert obj == _brute_optimum(costs, rows, m)


def _error(costs, rows):
    with pytest.raises(ValueError) as caught:
        solve_box_covering_lp(costs, rows)
    return str(caught.value)


def test_store_extended_across_calls_matches_a_fresh_list():
    rng = random.Random(23)
    costs, rows = _sparse_covering_lp(rng)
    m = len(costs)
    rows += [rows[3], rows[7], ([2 * v for v in rows[5][0]], 2 * rows[5][1])]
    rng.shuffle(rows)
    store, given = RowStore(m), []
    for chunk in (rows[:1], rows[1:12], [], rows[12:30], rows[30:]):
        store.extend(chunk)
        given += chunk
        assert list(store) == given and len(store) == len(given)
        for bad in (([1] * (m + 1), 1), ([1] * m, m + 1)):
            message = _error(costs, given + [bad])
            with pytest.raises(ValueError, match=re.escape(message)):
                store.extend([rows[0], bad])
            assert len(store) == len(given)
        assert solve_box_covering_lp(costs, store) == solve_box_covering_lp(costs, given)
        assert solve_box_covering_lp(costs, given) == _reference_solve(costs, given)
    assert len(store._ints) == len(rows) - 2  # the scaled copy is a row of its own


def _implies(earlier, later):
    """Does the row `earlier` imply `later`: coefficientwise no larger, at
    no smaller rhs?"""
    (a, b), (c, d) = earlier, later
    return d <= b and all(v >= w for v, w in zip(c, a))


def _implied_pool(rng):
    """(costs, rows, batches, claims): a sparse covering pool over 3-8
    columns, split into extend batches, where about half the rows copy an
    earlier row or raise some of its coefficients (its support may grow)
    at the same or a lower rhs.  claims maps each such row to the row it
    was made from, which often sits earlier in the same batch."""
    m = rng.randint(3, 8)
    costs = [Fraction(rng.randint(0, 9), rng.choice((1, 1, 2, 3))) for _ in range(m)]
    rows, claims = [], {}
    for k in range(rng.randint(8, 30)):
        if rows and rng.random() < 0.5:
            j = rng.randrange(max(0, k - 4), k) if rng.random() < 0.5 else rng.randrange(k)
            a, b = rows[j]
            if rng.random() < 0.3:
                coeffs, rhs = list(a), b
            else:
                coeffs = [v + rng.choice((0, 0, 1, 3)) if v or rng.random() < 0.3 else v for v in a]
                rhs = b if rng.random() < 0.5 else rng.randint(0, b)
            claims[k] = j
        else:
            coeffs = [0] * m
            for e in rng.sample(range(m), rng.randint(1, min(3, m))):
                coeffs[e] = rng.randint(1, 9)
            rhs = rng.randint(1, sum(coeffs))
        rows.append((coeffs, rhs))
    cuts = sorted(rng.sample(range(1, len(rows)), 3))
    batches = [(a, rows[a:b]) for a, b in zip([0, *cuts], [*cuts, len(rows)])]
    return costs, rows, batches, claims


def test_implied_rows_are_kept_but_not_packed():
    rng = random.Random(31)
    nested = earlier = refused = 0
    for _ in range(80):
        costs, rows, batches, claims = _implied_pool(rng)
        full, lean = RowStore(len(costs)), RowStore(len(costs))
        kept = set()  # the rows no claim of their own batch covers
        for start, batch in batches:
            # Claims are positions in the batch, an implier earlier in it.
            given = {k - start: j - start for k, j in claims.items()
                     if start <= j < k < start + len(batch)}
            # A claim that names a row that does not imply it, a later row
            # or an earlier call's row (a negative position) is refused,
            # and nothing of the batch is added.
            for k in given:
                wrong = [j for j in range(-start, len(batch)) if j != k and (
                    j < 0 or j > k or not _implies(rows[start + j], rows[start + k]))]
                if wrong:
                    with pytest.raises(ValueError):
                        lean.extend(batch, {**given, k: rng.choice(wrong)})
                    assert len(lean) == start and list(lean) == rows[:start]
                    refused += 1
                    break
            full.extend(batch)
            lean.extend(batch, given)
            nested += sum(batch[k] != batch[j] for k, j in given.items())
            earlier += sum(j < start <= k < start + len(batch) for k, j in claims.items())
            kept |= {(*c, r) for k, (c, r) in enumerate(batch) if k not in given}
            assert list(lean) == list(full) == rows[:start + len(batch)]
            assert solve_box_covering_lp(costs, lean) == solve_box_covering_lp(costs, full)
        assert (len(lean), lean.packed, full.packed) == (
            len(rows), len(kept), len({(*c, r) for c, r in rows}))
        assert solve_box_covering_lp(costs, lean) == _reference_solve(costs, rows)
    assert min(nested, earlier, refused) >= 100


def test_false_implied_claims_raise_and_add_nothing():
    first = [([1, 2, 0], 2), ([0, 1, 1], 1)]
    store = RowStore(3, first)
    for rows, claims in (
        ([([1, 2, 0], 2), ([1, 2, 1], 3)], {1: 0}),  # a larger rhs
        ([([1, 2, 0], 2), ([1, 1, 5], 1)], {1: 0}),  # a smaller coefficient
        ([([1, 2, 0], 2), ([1, 2, 0], 2)], {0: 1}),  # a later row
        ([([1, 2, 0], 2)], {0: 0}),                  # the row itself
        ([([1, 2, 1], 2)], {0: -2}),                 # an earlier call's row
        ([([1, 2, 0], 2)], {1: 0}),                  # a row not given
    ):
        with pytest.raises(ValueError):
            store.extend(rows, claims)
        assert (list(store), store.packed) == (first, 2)
    store.extend([([1, 2, 1], 2), ([1, 3, 1], 1)], {1: 0})
    assert (len(store), store.packed) == (4, 3)
