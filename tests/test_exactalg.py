"""Kernel tests: the Hermite normal form of integer matrices, and multiplication by x.

Derived expectations are produced by independent oracles inside this
module: a Bareiss determinant, the determinantal divisors and lattice
membership built on them.
"""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from dirichletj import exactalg
from dirichletj.exactalg import (AbelianGroupExpr, InputError, _multiplicative_order, _vp, d2k, euler_phi, factorize,
                                 hermite_normal_form, poly_gcd_mod_p, poly_rem_mod_p, smallest_primitive_root,
                                 staudt_odd_primes, teichmuller, times_x_rows)


def bareiss_det(rows):
    """Exact determinant of a square integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def determinantal_divisors(rows):
    """[D_1, D_2, ...]: D_k is the gcd of all k x k minors (0 when they all vanish)."""
    if not rows:
        return []
    n_rows, n_cols = len(rows), len(rows[0])
    out = []
    for k in range(1, min(n_rows, n_cols) + 1):
        g = 0
        for ri in itertools.combinations(range(n_rows), k):
            for ci in itertools.combinations(range(n_cols), k):
                g = math.gcd(g, bareiss_det([[rows[i][j] for j in ci] for i in ri]))
        out.append(g)
    return out


def in_lattice(rows, v):
    """v lies in the row span of ``rows`` iff adding it keeps the rank and the top divisor."""
    before = [x for x in determinantal_divisors(rows) if x]
    after = [x for x in determinantal_divisors(rows + [list(v)]) if x]
    if len(after) != len(before):
        return False
    return not before or after[-1] == before[-1]


def same_lattice(a, b):
    return all(in_lattice(a, row) for row in b) and all(in_lattice(b, row) for row in a)


def top_divisor(rows):
    """The gcd of the maximal minors: the index of the row span when it has full rank."""
    n = len(rows[0])
    return math.gcd(*(bareiss_det([rows[i] for i in ri]) for ri in itertools.combinations(range(len(rows)), n)))


def spans_full_rank(h, rows):
    """The square ``h`` spans the full-rank row span of ``rows``.

    Every row lies in span(h) and both have the same index, so the spans
    are equal; this avoids one membership test per row of ``h``, each a
    pass over all minors of ``rows``.
    """
    return all(in_lattice(h, row) for row in rows) and abs(bareiss_det(h)) == top_divisor(rows)


def hnf_shape_ok(h):
    prev = -1
    for i in range(len(h)):
        nonzero = [j for j in range(len(h[i])) if h[i][j] != 0]
        if not nonzero:
            continue
        piv = nonzero[0]
        if piv <= prev:
            return False
        prev = piv
        if h[i][piv] <= 0:
            return False
        for i2 in range(i):
            if not 0 <= h[i2][piv] < h[i][piv]:
                return False
    return True


matrices = st.integers(1, 5).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-30, 30), min_size=cols, max_size=cols), min_size=1, max_size=6)
)

def modular_rows(rows, modulus):
    """The rows of ``rows`` followed by modulus * e_j: they span span(rows) + modulus*Z^n."""
    cols = len(rows[0])
    return rows + [[modulus * (i == j) for j in range(cols)] for i in range(cols)]


class TestHermite:
    def test_identity(self):
        m = [[1, 0], [0, 1]]
        assert hermite_normal_form(m, 1) == m

    def test_upper_triangular_example(self):
        h = hermite_normal_form([[2, 1], [0, 3]], 6)
        assert [h[0][0], h[1][1]] == [2, 3]
        assert h[0][1] == 1  # reduced off-diagonal entry
        assert same_lattice(h, [[2, 1], [0, 3]])

    def test_zero_matrix(self):
        assert hermite_normal_form([[0, 0], [0, 0]], 5) == [[5, 0], [0, 5]]

    def test_random_postconditions(self):
        rng = random.Random(5)
        for _ in range(300):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = [[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)]
            modulus = rng.randint(1, 60)
            h = hermite_normal_form(m, modulus)
            assert (len(h), len(h[0])) == (cols, cols)
            assert hnf_shape_ok(h)
            assert all(h[i][i] for i in range(cols))
            assert spans_full_rank(h, modular_rows(m, modulus))

    def test_membership_oracle(self):
        # The oracle itself: 2Z + 3Z = Z, (1, 1) is not in 2Z^2, and a rank drop is seen.
        assert in_lattice([[2], [3]], [1])
        assert not in_lattice([[2, 0], [0, 2]], [1, 1])
        assert in_lattice([[2, 0], [0, 2]], [4, -2])
        assert not in_lattice([[1, 0]], [0, 1])

    def test_modulus_example(self):
        # span{(2, 1)} + 4Z^2 = span{(2, 1), (0, 2)}.
        assert hermite_normal_form([[2, 1]], 4) == [[2, 1], [0, 2]]
        assert hermite_normal_form([[0, 0]], 6) == [[6, 0], [0, 6]]
        with pytest.raises(ValueError):
            hermite_normal_form([[1]], 0)

    def test_inconsistent_row_lengths(self):
        with pytest.raises(ValueError, match="inconsistent row lengths"):
            hermite_normal_form([[1, 2], [3]], 5)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(matrices, st.integers(1, 400))
    def test_modulus_equals_appended_rows(self, rows, modulus):
        # span(rows) + D*Z^n is the span of the rows with D*e_j appended.
        cols = len(rows[0])
        got = hermite_normal_form(rows, modulus)
        assert len(got) == cols and hnf_shape_ok(got)
        assert spans_full_rank(got, modular_rows(rows, modulus))


def reduce_mod_monic(poly, phi):
    """Remainder of an ascending integer polynomial by the monic ``phi``, by long division."""
    d = len(phi) - 1
    rem = list(poly) + [0] * max(0, d - len(poly))
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem[k]
        for j, y in enumerate(phi):
            rem[k - d + j] -= c * y
    return rem[:d]


class TestTimesXRows:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=6), st.data())
    def test_rows_are_x_powers_reduced(self, low, data):
        phi = low + [1]
        vec = data.draw(st.lists(st.integers(-20, 20), max_size=len(low)))
        count = data.draw(st.integers(1, 12))
        rows = times_x_rows(phi, vec, count)
        assert rows == [reduce_mod_monic([0] * j + vec, phi) for j in range(count)]

    def test_default_count_is_the_degree(self):
        # Phi_4 = x^2 + 1: multiplication by 1 + 2x.
        assert times_x_rows((1, 0, 1), [1, 2]) == [[1, 2], [-2, 1]]


def trimmed_mod_p(a, p):
    """a mod p, ascending, without zero leading coefficients."""
    r = [x % p for x in a]
    while r and not r[-1]:
        r.pop()
    return r


def product(a, b):
    """The product of two ascending integer polynomials."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def divides_mod_p(m, a, p):
    """Whether the ascending m, nonzero mod p, divides a over F_p, by long division."""
    m, r = trimmed_mod_p(m, p), trimmed_mod_p(a, p)
    inv = pow(m[-1], -1, p)
    while len(r) >= len(m):
        shift, q = len(r) - len(m), r[-1] * inv
        r = trimmed_mod_p([x - q * m[j - shift] if j >= shift else x for j, x in enumerate(r)], p)
    return not r


primes = st.sampled_from([2, 3, 5, 7, 101])
polys = st.lists(st.integers(-30, 30), max_size=7)


class TestPolynomialsModP:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(primes, polys, polys, st.data())
    def test_remainder_is_the_r_of_a_equals_qm_plus_r(self, p, q, m, data):
        # Draw m, q and r with deg r < deg m; the remainder of a = q*m + r is r mod p.
        m = trimmed_mod_p(m, p)
        assume(m)
        r = data.draw(st.lists(st.integers(-30, 30), max_size=len(m) - 1))
        a = [x + y for x, y in itertools.zip_longest(product(q, m), r, fillvalue=0)]
        assert poly_rem_mod_p(a, m, p) == trimmed_mod_p(r, p)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(primes, polys, polys)
    def test_gcd_is_monic_and_divides_both(self, p, a, b):
        g = poly_gcd_mod_p(a, b, p)
        if not trimmed_mod_p(a, p) and not trimmed_mod_p(b, p):
            assert g == []
        else:
            assert g[-1] == 1 and all(0 <= x < p for x in g)
            assert divides_mod_p(g, a, p) and divides_mod_p(g, b, p)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(primes, polys, polys, st.lists(st.integers(-30, 30), max_size=4))
    def test_gcd_of_multiples_of_a_monic_c_is_c_times_the_gcd(self, p, a, b, low):
        c = low + [1]
        expected = trimmed_mod_p(product(poly_gcd_mod_p(a, b, p), c), p)
        assert poly_gcd_mod_p(product(a, c), product(b, c), p) == expected

    def test_examples(self):
        # Phi_4 = x^2 + 1 = (x - 2)(x - 3) mod 5, and 1 - 2x vanishes at x = 3.
        assert poly_gcd_mod_p([1, 0, 1], [1, -2], 5) == [2, 1]
        assert poly_rem_mod_p([1, 2, 3, 4], [0, 1], 5) == [1]
        assert poly_rem_mod_p([5, 10], [1, 1], 5) == []
        assert poly_gcd_mod_p([7], [0, 0, 14], 7) == []


@pytest.mark.parametrize("n", [0, -1, -6])
def test_factorize_refuses_n_below_one(n):
    # euler_phi reads the factorization, so it refuses n < 1 too, where a product over {} would read 1.
    with pytest.raises(InputError, match=f"got {n}$"):
        factorize(n)
    with pytest.raises(InputError):
        euler_phi(n)
    assert factorize(1) == {} and factorize(12) == {2: 2, 3: 1}


@pytest.mark.parametrize("call, message", [
    (lambda: teichmuller(4, 1, 2), "p must be an odd prime"),
    (lambda: teichmuller(5, 10, 2), "a must be prime to p"),
    (lambda: d2k(0), "k must be positive"),
    (lambda: teichmuller(3, 1, 0), "M must be positive"),
    (lambda: staudt_odd_primes(0), "m must be positive"),
    (lambda: smallest_primitive_root(8), "q must be a power of an odd prime, got q = 8"),
    (lambda: smallest_primitive_root(15), "q must be a power of an odd prime, got q = 15"),
    (lambda: smallest_primitive_root(1), "q must be a power of an odd prime, got q = 1"),
    (lambda: hermite_normal_form([[1]], 0), "modulus must be positive, got 0"),
    (lambda: hermite_normal_form([[1, 2], [3]], 5), "inconsistent row lengths"),
    (lambda: AbelianGroupExpr.cyclic(0), "cyclic order must be positive"),
])
def test_integer_helpers_refuse_arguments_out_of_range_with_input_error(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


def test_private_helpers_raise_assertion_error_on_a_broken_invariant():
    # Their callers pass a nonzero integer and a unit; anything else is a fault of the library.
    with pytest.raises(AssertionError, match="^valuation of zero$"):
        _vp(0, 3)
    with pytest.raises(AssertionError, match="^element not a unit$"):
        _multiplicative_order(2, 4)
    assert smallest_primitive_root(3) == 2 and smallest_primitive_root(25) == 2


@pytest.mark.parametrize("q, skipped, wrong", [(7, 2, 2), (40487**2, 40487, 5)])
def test_a_root_the_power_test_lets_through_fails_the_verification(monkeypatch, q, skipped, wrong):
    # A power test that skips a prime of phi(q) takes a wrong root.  Mod 7, skipping 2 takes 2, of order 3,
    # which the walk mod 7 refuses.  5 is the smallest primitive root mod the prime 40487 and 5^40486 = 1
    # mod 40487^2, so skipping 40487 takes 5 mod 40487^2, which the check mod p^2 refuses.
    honest = exactalg.factorize
    monkeypatch.setattr(exactalg, "factorize", lambda n: {r: e for r, e in honest(n).items() if n == q or r != skipped})
    with pytest.raises(AssertionError, match=f"^{wrong} is not a primitive root mod {q}$"):
        smallest_primitive_root(q)
    monkeypatch.undo()
    assert smallest_primitive_root(q) == {7: 3, 40487**2: 10}[q]
