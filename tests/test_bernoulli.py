"""Bernoulli numbers, L-values, denominator ideals, congruence theorems."""

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from dirichletj import bernoulli, cli
from dirichletj.bernoulli import (
    bernoulli_number,
    denom_ideal,
    gbn,
    l_value,
    verify_carlitz,
)
from dirichletj.characters import (
    InputError,
    _value_exponent,
    character_from_index,
    enumerate_characters,
    is_primitive,
    kernel_order_match,
    parity,
    primitive_root,
    primitivize,
    tame_order,
)
from dirichletj.cyclotomic import CycElement, denominator_ideal, galois_apply, get_field, quotient_group, render_cyc
from dirichletj.exactalg import (AbelianGroupExpr, _vp, d2k, factorize, is_prime, padic_invariant_exponents,
                                 poly_gcd_mod_p, smallest_primitive_root, times_x_rows)

from exponent_tuples import char_pow, evaluate
from ideal_oracle import carlitz_by_ideals, carlitz_p_ideal


def quad5():
    return enumerate_characters(5)[2]


def odd4():
    return enumerate_characters(4)[1]


def bernoulli_by_recurrence(k_max):
    """Oracle: sum_{j<=k} C(k+1, j) B_j = k + 1 (B_1 = +1/2 convention)."""
    bs = [Fraction(1)]
    for k in range(1, k_max + 1):
        acc = sum(Fraction(math.comb(k + 1, j)) * bs[j] for j in range(k))
        bs.append((Fraction(k + 1) - acc) / (k + 1))
    return bs


class TestOrdinary:
    def test_small_values(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(4) == Fraction(-1, 30)

    def test_a_negative_index_raises_input_error(self):
        with pytest.raises(InputError, match="^k must be nonnegative$"):
            bernoulli_number(-1)

    def test_odd_vanishing(self):
        for k in range(3, 31, 2):
            assert bernoulli_number(k) == 0

    def test_recurrence(self):
        for k in range(1, 31):
            acc = sum(Fraction(math.comb(k + 1, j)) * bernoulli_number(j) for j in range(k + 1))
            assert acc == k + 1

    def test_one_table_per_power_of_two(self):
        # Every k of a pass up to 100 reads one of three tables (32, 64, 128), not one per k.
        bernoulli._bernoulli_list.cache_clear()
        bernoulli._bernoulli_poly_coeffs.cache_clear()
        for k in range(101):
            bernoulli_number(k)
            bernoulli._bernoulli_poly_coeffs(k)
        info = bernoulli._bernoulli_list.cache_info()
        assert (info.misses, info.currsize) == (3, 3)
        assert len(bernoulli._bernoulli_poly_coeffs(100)[0]) == 101

    def test_tangent_table_matches_recurrence(self):
        # The table comes from tangent numbers; the oracle solves the defining recurrence.
        expected = bernoulli_by_recurrence(60)
        for k in range(61):
            assert bernoulli_number(k) == expected[k], k
        assert bernoulli_number(60) == Fraction(
            -1215233140483755572040304994079820246041491, 56786730
        )


def bernoulli_polynomial(k, x):
    """B_k(x) by Horner steps over the numerators the polynomial-sum pipeline reads, over their denominator."""
    nums, den = bernoulli._bernoulli_poly_coeffs(k)
    acc = Fraction(0)
    for c in nums:
        acc = acc * x + c
    return acc / den


class TestBernoulliPolynomial:
    XS = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(-2, 7), Fraction(5, 4)]

    def test_low_degrees(self):
        for x in self.XS:
            assert bernoulli_polynomial(1, x) == x - Fraction(1, 2)
            assert bernoulli_polynomial(2, x) == x**2 - x + Fraction(1, 6)
            assert bernoulli_polynomial(3, x) == x**3 - Fraction(3, 2) * x**2 + x / 2

    def test_value_at_one_is_bernoulli_number(self):
        for k in range(31):
            assert bernoulli_polynomial(k, 1) == bernoulli_number(k), k

    def test_reflection(self):
        for k in range(13):
            for x in self.XS:
                assert bernoulli_polynomial(k, 1 - x) == (-1) ** k * bernoulli_polynomial(k, x), (k, x)


class TestGBN:
    def test_trivial_character(self):
        chi0 = enumerate_characters(1)[0]
        for k in range(0, 13):
            assert gbn(chi0, k) == bernoulli_number(k)

    def test_odd_mod4(self):
        assert gbn(odd4(), 1) == get_field(2).from_rational(Fraction(-1, 2))

    def test_quadratic_mod5(self):
        assert gbn(quad5(), 2) == get_field(2).from_rational(Fraction(4, 5))

    def test_parity_vanishing_both_directions(self):
        for N in (3, 4, 5, 7, 8, 9):
            for chi in enumerate_characters(N):
                if not is_primitive(chi) or chi.is_trivial():
                    continue
                sign = parity(chi)
                for k in range(1, 9):
                    value = gbn(chi, k)
                    if (-1) ** k != sign:
                        assert value.is_zero()
                    else:
                        assert not value.is_zero()

    def test_galois_equivariance(self):
        for N in (5, 7, 9, 13):
            for chi in enumerate_characters(N):
                n = chi.order()
                if n < 3:
                    continue
                for b in range(2, n):
                    if math.gcd(b, n) != 1:
                        continue
                    for k in (1, 2, 3):
                        assert gbn(char_pow(chi, b), k) == galois_apply(gbn(chi, k), b)

    def test_imprimitive_reduces_to_primitive(self):
        # The lift of the mod-4 character to modulus 8 has the same B_{k,chi}.
        lifted = [c for c in enumerate_characters(8) if c.order() == 2 and not is_primitive(c)]
        from dirichletj.characters import conductor

        lifted = [c for c in lifted if conductor(c) == 4]
        assert lifted
        for k in (1, 3, 5):
            assert gbn(lifted[0], k) == gbn(odd4(), k)


def _clear_gbn_caches():
    bernoulli._gbn_primitive.cache_clear()
    bernoulli._states.cache_clear()


class TestGrowingSeries:
    """One series per character is grown across k; the order of requests must not matter."""

    GRID = [(chi, 12) for N in range(1, 17) for chi in enumerate_characters(N) if is_primitive(chi)]
    GRID.append((character_from_index(23, 1), 6))

    def _values(self, order):
        _clear_gbn_caches()
        return {(chi.modulus, chi.index(), k): gbn(chi, k) for chi, kmax in self.GRID for k in order(kmax)}

    def test_order_independent(self):
        ascending = self._values(lambda kmax: range(kmax + 1))
        descending = self._values(lambda kmax: range(kmax, -1, -1))
        one_at_a_time = {}
        for chi, kmax in self.GRID:
            for k in range(kmax + 1):
                _clear_gbn_caches()
                one_at_a_time[(chi.modulus, chi.index(), k)] = gbn(chi, k)
        assert len(ascending) == sum(kmax + 1 for _, kmax in self.GRID)
        assert ascending == descending == one_at_a_time

    def test_series_grows_only_to_requested_k(self):
        _clear_gbn_caches()
        chi = character_from_index(7, 1)
        gbn(chi, 3)
        assert len(bernoulli._states(chi)[0].nums) == 4
        gbn(chi, 1)
        assert len(bernoulli._states(chi)[0].nums) == 4

    def test_series_keeps_its_pascal_row_powers_of_n_and_nonzero_indices(self):
        _clear_gbn_caches()
        chi = character_from_index(7, 1)
        gbn(chi, 9)
        state = bernoulli._states(chi)[0]
        assert state.binom == [math.comb(10, i) for i in range(11)]
        # chi is odd, so the nonzero B_i sit two apart: the Horner steps read N^2, and step j
        # ends with N^(j+1-i) for the last nonzero i < j, at most N^3.
        assert state.npow == [1, 7, 49, 343]
        # B_i vanishes exactly when (-1)^i != chi(-1), and the step sums over the others only.
        assert state.nonzero == [i for i in range(10) if any(state.nums[i])]
        assert state.nonzero == [i for i in range(10) if (-1) ** i == parity(chi)]

    def test_oracle_grows_only_to_requested_k(self):
        _clear_gbn_caches()
        chi = character_from_index(7, 1)
        gbn(chi, 3)
        assert len(bernoulli._states(chi)[1].sums) == 4
        gbn(chi, 1)
        assert len(bernoulli._states(chi)[1].sums) == 4

    def test_state_cache_is_bounded_and_regrows(self):
        assert bernoulli._states.cache_info().maxsize == 512
        _clear_gbn_caches()
        chars = [chi for chi, _ in self.GRID[:5]]
        expected = [gbn(chi, 4) for chi in chars]
        bernoulli._states.cache_clear()
        bernoulli._gbn_primitive.cache_clear()
        # Both pipelines grow their states again from k = 0, and they still agree.
        assert [gbn(chi, 4) for chi in chars] == expected
        assert bernoulli._states.cache_info().currsize == 5
        _clear_gbn_caches()

    def test_each_character_reads_the_value_classes_once_for_both_pipelines(self, monkeypatch):
        from dirichletj import characters

        chi, other = character_from_index(13, 1), character_from_index(13, 2)
        lift = next(c for c in enumerate_characters(26) if primitivize(c) == chi)
        honest_classes, honest_value = characters.value_classes, bernoulli._value_exponent
        reads, evaluated = [], []

        def reading(chi_):
            reads.append(chi_)
            return honest_classes(chi_)

        def evaluating(chi_, a):
            evaluated.append(a)
            return honest_value(chi_, a)

        monkeypatch.setattr(bernoulli, "value_classes", reading)
        monkeypatch.setattr(bernoulli, "_value_exponent", evaluating)
        # The table holds each unit 1 <= a <= 13 once.
        assert sorted(honest_classes(chi).units) == list(range(1, 13))
        _clear_gbn_caches()
        for k in range(13):
            gbn(chi, k)
            gbn(lift, k)
            gbn(other, k)
        assert reads == [chi, other] and evaluated == []
        for pipeline in (bernoulli._gbn_series, bernoulli._gbn_polysum):
            _clear_gbn_caches()
            reads.clear()
            for k in range(13):
                pipeline(chi, k)
            assert reads == [chi] and evaluated == []

    def test_growing_both_states_leaves_the_shared_classes_as_read(self, monkeypatch):
        chi = character_from_index(13, 2)  # even, so the series grows to B_20 != 0
        honest, read = bernoulli.value_classes, []
        monkeypatch.setattr(bernoulli, "value_classes", lambda chi_: read.append(honest(chi_)) or read[-1])
        _clear_gbn_caches()
        for k in range(21):
            gbn(chi, k)
        [table] = read
        series, polysum = bernoulli._states(chi)
        assert len(series.nums) == 21 and len(polysum.sums) == 21
        # Both states hold the one table of the one read, and neither changed it.
        assert series.table is table and polysum.table is table
        assert table == honest(chi)

    def test_growing_both_states_copies_no_part_of_the_table(self):
        chi = character_from_index(13, 2)  # order 6: six classes of two units
        _clear_gbn_caches()
        for k in range(21):
            gbn(chi, k)
        series, polysum = bernoulli._states(chi)
        table = series.table
        bounds = table.bounds
        parts = [table.units, bounds, *table.columns]
        parts += [table.units[lo:hi] for lo, hi in zip(bounds, bounds[1:])]  # the old per-class residue lists
        for state in (series, polysum):
            # Every list or tuple the state holds besides the table, and every one inside those.
            held = [getattr(state, name) for name in state.__slots__ if name != "table"]
            held = [x for x in held if isinstance(x, (list, tuple))]
            held += [y for x in held for y in x if isinstance(y, (list, tuple))]
            assert not [x for x in held for part in parts if x is part or list(x) == list(part)], type(state)
            # The one flat list of powers is a^20 of each unit, in the table's order.
            assert state.pows == [a**20 for a in table.units]

    def test_perturbed_oracle_raises_on_grown_character(self, monkeypatch):
        chi = character_from_index(7, 1)
        for k in range(9):
            gbn(chi, k)
        bernoulli._gbn_primitive.cache_clear()  # keep the grown series, force re-checks
        honest = bernoulli._gbn_polysum

        def perturbed(chi_, k):
            value = honest(chi_, k)
            return value + Fraction(1, 7) if k == 5 else value

        monkeypatch.setattr(bernoulli, "_gbn_polysum", perturbed)
        assert gbn(chi, 4) == honest(chi, 4)
        with pytest.raises(AssertionError):
            gbn(chi, 5)


class TestParityZeros:
    """The series takes the B_(k,chi) that parity makes 0 from the theorem; the oracle computes them."""

    @pytest.fixture(autouse=True)
    def cold(self):
        _clear_gbn_caches()
        yield
        _clear_gbn_caches()  # no state built under a patched parity outlives the test

    def test_series_does_not_grow_at_a_parity_zero(self):
        chi = character_from_index(5, 1)  # odd, so B_40 = 0
        assert gbn(chi, 40).is_zero()
        assert bernoulli._states(chi)[0].nums == []
        assert len(bernoulli._states(chi)[1].sums) == 41

    @pytest.mark.parametrize("N, idx", [(1, 0), (5, 1), (5, 2), (8, 3)])
    def test_series_steps_over_parity_zeros(self, N, idx):
        chi = character_from_index(N, idx)
        for k in range(14):
            gbn(chi, k)
        state = bernoulli._states(chi)[0]
        grown = range(len(state.nums))
        assert len(grown) == (13 if parity(chi) == 1 else 14)  # up to the last nonzero B_k, k <= 13
        zeros = [j for j in grown if (-1) ** j != parity(chi) and (j > 1 or N > 1)]
        assert [j for j in grown if state.vanishes(j)] == zeros
        # Each such step holds the zero vector over 1 and stays out of the Horner sums; B_0 is
        # the one other zero, computed, of every nontrivial chi.
        assert [(state.nums[j], state.dens[j]) for j in zeros] == [([0] * state.degree, 1)] * len(zeros)
        assert state.nonzero == [j for j in grown if j not in zeros and (j > 0 or N == 1)]

    @pytest.mark.parametrize("N, idx", [(1, 0), (5, 1), (5, 2), (8, 3), (7, 1)])
    def test_wrong_parity_is_caught_by_the_oracle(self, monkeypatch, N, idx):
        honest = bernoulli.parity
        monkeypatch.setattr(bernoulli, "parity", lambda chi: -honest(chi))
        chi = character_from_index(N, idx)
        with pytest.raises(AssertionError, match="pipelines disagree"):
            for k in range(4):
                gbn(chi, k)


# sha256 of render_cyc(gbn(chi, k)), from the code before the Pascal-row series and the
# integer polynomial coefficients.  The three characters are odd, so k = 60 renders "0";
# k = 61 pins a nonzero value of the same fields.
PINNED_RENDER_SHA256 = {
    (5, 1, 151): "b80c6924f4d7c2cb959d7dd71fa808068a8b560d3bbd278f16ac047700b9ddca",
    (25, 1, 60): "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    (29, 5, 60): "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    (25, 1, 61): "4f4a1ea4a4658596948d9d1f74940840dc3f4fc1b42de2c3d5d95ff4cd2e2509",
    (29, 5, 61): "94a59c26072d4d78cbf0c81ef7ccf3c553067854fd519985707eca2ffb164434",
}


@pytest.mark.parametrize("key", sorted(PINNED_RENDER_SHA256))
def test_rendered_value_at_large_weight_is_pinned(key):
    N, idx, k = key
    rendered = render_cyc(gbn(character_from_index(N, idx), k))
    assert hashlib.sha256(rendered.encode()).hexdigest() == PINNED_RENDER_SHA256[key]


def test_rendered_values_on_the_small_grid_are_pinned():
    # Every character mod N <= 30 (imprimitive ones, both parities, the trivial character at
    # k = 1) at k <= 24, then the quartic and quadratic characters mod 5 on both sides of
    # k = 200 and 29:5 at k = 199, where half the values are zero by parity.
    cases = [(chi, k) for N in range(1, 31) for chi in enumerate_characters(N) for k in range(25)]
    cases += [(character_from_index(N, idx), k) for N, idx, k in
              [(5, 1, 200), (5, 1, 201), (5, 2, 200), (5, 2, 201), (29, 5, 199)]]
    lines = [f"{chi.modulus}:{chi.index()}:{k}:{render_cyc(gbn(chi, k))}" for chi, k in cases]
    assert len(lines) == 6955
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "c059a745436f10a130c694ddb75619b3f8044f2a7443b3e80bd69d0aa3c838ee"


def test_rendered_values_of_one_and_four_residues_per_class_are_pinned():
    # 61:1 has order 60, so each value class holds one residue (k = 33, 35 and 39 are the
    # degree-16 calls of perfbench's cli-cold); 105:31 has order 12, four residues per class.
    cases = [(character_from_index(61, 1), k) for k in (33, 35, 39)]
    cases += [(character_from_index(105, 31), k) for k in range(25)]
    lines = [f"{chi.modulus}:{chi.index()}:{k}:{render_cyc(gbn(chi, k))}" for chi, k in cases]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f9c276bc113777e379a057aceddad8c7f4b4eb966f42668de7d497acbae04a76"


def _bernoulli_polynomials(k_max):
    """Ascending coefficients of B_0(x), ..., B_k_max(x) from B_0 = 1,
    B_k' = k B_(k-1) and, for k >= 1, zero integral over [0, 1]."""
    polys = [[Fraction(1)]]
    for k in range(1, k_max + 1):
        p = [Fraction(0)] + [k * c / (i + 1) for i, c in enumerate(polys[-1])]
        p[0] = -sum(c / (i + 1) for i, c in enumerate(p))
        polys.append(p)
    return polys


class TestIndependentReference:
    """B_{k,chi} = N^(k-1) sum_a chi(a) B_k(a/N) for characters of every order, summed here."""

    def test_conductor_up_to_16(self):
        polys = _bernoulli_polynomials(10)

        def poly_at(k, x):
            return sum(c * x**i for i, c in enumerate(polys[k]))

        orders = set()
        for N in range(1, 17):
            for chi in enumerate_characters(N):
                if not is_primitive(chi):
                    continue
                orders.add(chi.order())
                field = get_field(chi.order())
                for k in range(11):
                    total = field.zero()
                    for a in range(1, N + 1):
                        value = evaluate(chi, a)
                        if value is not None:
                            total = total + value * poly_at(k, Fraction(a, N))
                    assert gbn(chi, k) == total * Fraction(N) ** (k - 1), (N, chi.index(), k)
        assert orders == {1, 2, 3, 4, 5, 6, 10, 12}


def _fundamental_discriminants(bound):
    def squarefree(m):
        return all(m % (q * q) for q in range(2, int(abs(m) ** 0.5) + 1))

    out = []
    for D in range(-bound, bound + 1):
        if D in (0, 1):
            continue
        if D % 4 == 1 and squarefree(D):
            out.append(D)
        elif D % 4 == 0 and (D // 4) % 4 in (2, 3) and squarefree(D // 4):
            out.append(D)
    return out


class TestSympyOracle:
    """B_{k,chi_D} for the Kronecker characters chi_D, from sympy's Bernoulli polynomials only."""

    def test_quadratic_characters(self):
        sympy = pytest.importorskip("sympy")
        from sympy.functions.combinatorial.numbers import kronecker_symbol

        x = sympy.Symbol("x")
        polys = {k: sympy.Poly(sympy.bernoulli(k, x), x) for k in range(21)}

        def expected(D, k):
            f = abs(D)
            total = sum(kronecker_symbol(D, a) * polys[k].eval(sympy.Rational(a, f)) for a in range(1, f + 1))
            value = sympy.Rational(total) * sympy.Rational(f) ** (k - 1)
            return Fraction(int(value.p), int(value.q))

        discriminants = _fundamental_discriminants(30)
        assert len(discriminants) == 19
        for D in discriminants:
            (chi,) = [
                c for c in enumerate_characters(abs(D))
                if c.order() == 2 and is_primitive(c) and parity(c) == (1 if D > 0 else -1)
            ]
            for k in range(21):
                assert gbn(chi, k) == expected(D, k), (D, k)
        chi0 = enumerate_characters(1)[0]
        for k in range(21):  # B_k(1) = B_k with B_1 = +1/2
            assert gbn(chi0, k) == Fraction(int(polys[k].eval(1).p), int(polys[k].eval(1).q))


class TestLValues:
    def test_zeta_minus_one(self):
        chi0 = enumerate_characters(1)[0]
        assert l_value(chi0, -1) == get_field(1).from_rational(Fraction(-1, 12))

    def test_L0_odd_mod4(self):
        assert l_value(odd4(), 0) == get_field(2).from_rational(Fraction(1, 2))

    def test_L_minus1_quad5(self):
        assert l_value(quad5(), -1) == get_field(2).from_rational(Fraction(-2, 5))

    def test_s_one_rejected(self):
        with pytest.raises(ValueError):
            l_value(quad5(), 1)


class TestD2k:
    def test_values(self):
        assert d2k(1) == 24
        assert d2k(2) == 240
        assert d2k(3) == 504

    def test_von_staudt_prime_support(self):
        for k in range(1, 21):
            for p in _prime_divs(d2k(k)):
                assert p == 2 or (2 * k) % (p - 1) == 0

    def test_closed_form_matches_the_bernoulli_route(self):
        # The Bernoulli route: the denominator of B_2k/4k in lowest terms, from one table to B_600.
        table = bernoulli._bernoulli_list(600)
        for k in range(1, 301):
            assert d2k(k) == (Fraction(*table[2 * k]) / (4 * k)).denominator, k


def _prime_divs(n):
    out = set()
    m = n
    q = 2
    while q * q <= m:
        if m % q == 0:
            out.add(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        out.add(m)
    return out


class TestDenomIdeal:
    def test_parity_mismatch_full_ring(self):
        x = denom_ideal(quad5(), 1)
        assert x.is_zero() and quotient_group(x).is_zero()

    def test_value_over_2k(self):
        for chi, k in ((quad5(), 2), (odd4(), 3)):
            assert denom_ideal(chi, k) == gbn(chi, k) / (2 * k)

    def test_trivial_character_at_weight_one_is_the_vanishing_case(self):
        # B_{1,chi_0} = 1/2 is nonzero, but (-1)^1 != chi_0(-1): the convention gives the full ring, not Z/4.
        chi0 = character_from_index(1, 0)
        assert gbn(chi0, 1) == Fraction(1, 2)
        assert denom_ideal(chi0, 1).is_zero()

    def test_odd4_k1(self):
        ideal = denom_ideal(odd4(), 1)
        assert quotient_group(ideal) == AbelianGroupExpr.cyclic(4)

    def test_quad5_k2(self):
        ideal = denom_ideal(quad5(), 2)
        assert quotient_group(ideal) == AbelianGroupExpr.cyclic(5)

    def test_twist_stability(self):
        for N in (5, 7, 13):
            for chi in enumerate_characters(N):
                if not is_primitive(chi) or chi.is_trivial():
                    continue
                n = chi.order()
                sign = parity(chi)
                k = 1 if sign == -1 else 2
                base = quotient_group(denom_ideal(chi, k))
                for b in range(2, n):
                    if math.gcd(b, n) != 1:
                        continue
                    assert quotient_group(denom_ideal(char_pow(chi, b), k)) == base


# Denominator ideals on a small grid, from the code before the modular HNF:
# HNF diagonals by modulus and (index, k), and the sha256 of every HNF basis.
PINNED_DIAGONALS = {
    3: {(1, 1): (6,), (1, 3): (9,), (1, 5): (3,)},
    4: {(1, 1): (4,), (1, 3): (4,), (1, 5): (4,)},
    5: {(1, 1): (1, 10), (1, 3): (1, 5), (1, 5): (1, 25), (2, 2): (5,), (2, 4): (1,), (2, 6): (5,), (3, 1): (1, 10), (3, 3): (1, 5), (3, 5): (1, 25)},
    7: {(1, 1): (1, 7), (1, 3): (1, 1), (1, 5): (1, 7), (2, 2): (1, 7), (2, 4): (1, 7), (2, 6): (1, 1), (3, 1): (2,), (3, 3): (7,), (3, 5): (1,), (4, 2): (1, 7), (4, 4): (1, 7), (4, 6): (1, 1), (5, 1): (1, 7), (5, 3): (1, 1), (5, 5): (1, 7)},
    8: {(1, 2): (2,), (1, 4): (2,), (1, 6): (2,), (3, 1): (2,), (3, 3): (2,), (3, 5): (2,)},
    9: {(1, 1): (1, 3), (1, 3): (1, 3), (1, 5): (1, 3), (2, 2): (1, 3), (2, 4): (1, 3), (2, 6): (1, 3), (4, 2): (1, 3), (4, 4): (1, 3), (4, 6): (1, 3), (5, 1): (1, 3), (5, 3): (1, 3), (5, 5): (1, 3)},
    11: {(1, 1): (1, 1, 1, 11), (1, 3): (1, 1, 1, 11), (1, 5): (1, 1, 1, 1), (2, 2): (1, 1, 1, 11), (2, 4): (1, 1, 1, 11), (2, 6): (1, 1, 1, 11), (3, 1): (1, 1, 1, 11), (3, 3): (1, 1, 1, 11), (3, 5): (1, 1, 1, 1), (4, 2): (1, 1, 1, 11), (4, 4): (1, 1, 1, 11), (4, 6): (1, 1, 1, 11), (5, 1): (2,), (5, 3): (1,), (5, 5): (11,), (6, 2): (1, 1, 1, 11), (6, 4): (1, 1, 1, 11), (6, 6): (1, 1, 1, 11), (7, 1): (1, 1, 1, 11), (7, 3): (1, 1, 1, 11), (7, 5): (1, 1, 1, 1), (8, 2): (1, 1, 1, 11), (8, 4): (1, 1, 1, 11), (8, 6): (1, 1, 1, 11), (9, 1): (1, 1, 1, 11), (9, 3): (1, 1, 1, 11), (9, 5): (1, 1, 1, 1)},
    12: {(3, 2): (1,), (3, 4): (1,), (3, 6): (1,)},
    13: {(1, 1): (1, 1, 1, 13), (1, 3): (1, 1, 1, 1), (1, 5): (1, 1, 1, 13), (2, 2): (1, 13), (2, 4): (1, 1), (2, 6): (1, 1), (3, 1): (1, 2), (3, 3): (1, 13), (3, 5): (1, 1), (4, 2): (1, 1), (4, 4): (1, 13), (4, 6): (1, 1), (5, 1): (1, 1, 1, 13), (5, 3): (1, 1, 1, 1), (5, 5): (1, 1, 1, 13), (6, 2): (1,), (6, 4): (1,), (6, 6): (13,), (7, 1): (1, 1, 1, 13), (7, 3): (1, 1, 1, 1), (7, 5): (1, 1, 1, 13), (8, 2): (1, 1), (8, 4): (1, 13), (8, 6): (1, 1), (9, 1): (1, 2), (9, 3): (1, 13), (9, 5): (1, 1), (10, 2): (1, 13), (10, 4): (1, 1), (10, 6): (1, 1), (11, 1): (1, 1, 1, 13), (11, 3): (1, 1, 1, 1), (11, 5): (1, 1, 1, 13)},
    15: {(5, 2): (1, 1), (5, 4): (1, 1), (5, 6): (1, 1), (6, 1): (1,), (6, 3): (1,), (6, 5): (1,), (7, 2): (1, 1), (7, 4): (1, 1), (7, 6): (1, 1)},
    16: {(1, 2): (1, 2), (1, 4): (1, 2), (1, 6): (1, 2), (3, 2): (1, 2), (3, 4): (1, 2), (3, 6): (1, 2), (5, 1): (1, 2), (5, 3): (1, 2), (5, 5): (1, 2), (7, 1): (1, 2), (7, 3): (1, 2), (7, 5): (1, 2)},
}
PINNED_BASES_SHA256 = "1d7c6c34eea2e48d80f5a99f5878a3d03c564a20105a8398965715c2cb1a4ea7"


def test_denominator_ideals_match_pinned():
    diagonals, lines = {}, []
    for N in PINNED_DIAGONALS:
        for chi in enumerate_characters(N):
            if not is_primitive(chi):
                continue
            for k in range(1, 7):
                if (-1) ** k != parity(chi):
                    continue
                basis = denominator_ideal(denom_ideal(chi, k))
                diagonals.setdefault(N, {})[(chi.index(), k)] = tuple(row[i] for i, row in enumerate(basis))
                lines.append(f"{N}:{chi.index()}:{k}:{basis}")
    assert diagonals == PINNED_DIAGONALS
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PINNED_BASES_SHA256


class TestVonStaudt:
    def test_k1(self):
        (case, ok, payload), = cli.suite_von_staudt.__wrapped__(max_k=1)
        assert case == (1,) and ok is True and payload == {"denominator": 6, "expected": 6}

    def test_k6(self):
        rows = list(cli.suite_von_staudt.__wrapped__(max_k=6))
        assert rows[5] == ((6,), True, {"denominator": 2730, "expected": 2730})

    def test_sweep(self):
        assert all(ok is True for _, ok, _ in cli.suite_von_staudt.__wrapped__(max_k=30))


def _carlitz_oracle_grid(large_k_max=4):
    """Primitive (chi, k) of the odd conductors of the ``carlitz`` suite to k = 20, 49 and 81 to
    k = 12, and 121 and 125 to ``large_k_max``."""
    for N, k_max in ((3, 20), (5, 20), (7, 20), (9, 20), (11, 20), (13, 20), (25, 20), (27, 20),
                     (49, 12), (81, 12), (121, large_k_max), (125, large_k_max)):
        for chi in enumerate_characters(N):
            if is_primitive(chi):
                for k in range(1, k_max + 1):
                    if (-1) ** k == parity(chi):
                        yield chi, k


def _carlitz_pin_cases():
    """Primitive (chi, k) of the odd prime-power conductors 9, 25, 27, 49, 81, 121 and 125 at
    each k <= 20 of chi's parity."""
    return [(chi, k) for N in (9, 25, 27, 49, 81, 121, 125) for chi in enumerate_characters(N)
            if is_primitive(chi) for k in range(1, 21) if (-1) ** k == parity(chi)]


def test_carlitz_rows_on_the_prime_power_grid_are_pinned():
    # sha256 of the verify_carlitz rows, from the code that decided the p^v congruence by
    # comparing two ranks mod p of the rows of multiplication by 1 - chi(g) g^k.
    rows = [verify_carlitz(chi, k) for chi, k in _carlitz_pin_cases()]
    assert len(rows) == 2840
    assert Counter(row["case"] for row in rows) == {"p^v-congruence": 2124, "p^2-unit": 516, "p^3-unit": 200}
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "6739b3b1c3c093a958fbbded68ecf61e5da3883426ca22a64506312d42559387"


def test_carlitz_rows_at_prime_conductors_are_pinned():
    # sha256 of the verify_carlitz rows of every primitive chi of prime conductor 3 to 43 at each
    # k <= 24 of chi's parity, from the code that lifted g to its Teichmuller root inline.  These
    # are the rows the lift mod p^e decides: 49 of them read it mod p^2 and one mod p^3.
    rows = [verify_carlitz(chi, k) for N in range(3, 44) if is_prime(N) for chi in enumerate_characters(N)
            if is_primitive(chi) for k in range(1, 25) if (-1) ** k == parity(chi)]
    assert Counter(row["case"] for row in rows) == {"p-congruence": 1617, "p^1-unit": 1419}
    assert Counter(row.get("modulus_power") for row in rows) == {None: 1419, 1: 1567, 2: 49, 3: 1}
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "307b2aa0486692c94e19d1ca93fd210d9f9dc96d3e384542026708b20f102480"


class TestCarlitz:
    def test_mod4_k3(self):
        row = verify_carlitz(odd4(), 3)
        assert row["ok"] and row["case"] == "mod4"

    def test_quad5_k2(self):
        row = verify_carlitz(quad5(), 2)
        assert row["ok"] and row["case"] == "p-congruence"

    def test_composite_integrality(self):
        chi12 = [c for c in enumerate_characters(12) if is_primitive(c)][0]
        k = 2 if parity(chi12) == 1 else 1
        row = verify_carlitz(chi12, k)
        assert row["ok"] and row["case"] == "composite"

    def test_carlitz_ideal_quad5(self):
        # (5, 1 - chi(2) * 4) = (5, 5) = (5), proper.
        ideal = carlitz_p_ideal(quad5(), 2)
        assert ideal.diagonal() == [5]

    def test_kernel_match_agrees_with_ideal_properness(self):
        for N in (5, 7, 11, 13, 9, 25, 27, 49, 81):
            (p,) = factorize(N)
            for chi in enumerate_characters(N):
                if not is_primitive(chi) or chi.is_trivial():
                    continue
                for k in range(1, 9):
                    proper = not carlitz_p_ideal(chi, k).is_full_ring()
                    assert proper == kernel_order_match(k, p, tame_order(chi, p))

    def test_residue_tests_agree_with_the_ideal_route(self):
        cases = Counter()
        for chi, k in _carlitz_oracle_grid():
            row = verify_carlitz(chi, k)
            assert (row["case"], row["ok"]) == carlitz_by_ideals(chi, k, gbn(chi, k)), (chi.modulus, chi.index(), k)
            cases[row["case"]] += 1
        assert set(cases) == {"p^1-unit", "p^2-unit", "p^3-unit", "p-congruence", "p^v-congruence"}, cases

    def test_residue_tests_agree_with_the_ideal_route_off_the_theorem(self, monkeypatch):
        # B_{k,chi} is shifted so that the element tested moves by one drawn delta: by zeta^j (a unit, never
        # in the proper ideal), by p^e or y^e times a drawn element (always in it, y = 1 - chi(g) g^k),
        # by a drawn element (sometimes in it) and by zeta/p (not integral).
        rng = random.Random(24)
        real_gbn = bernoulli.gbn
        verdicts = Counter()
        for chi, k in _carlitz_oracle_grid(large_k_max=2):
            (p, v), = factorize(chi.modulus).items()
            if not kernel_order_match(k, p, tame_order(chi, p)):
                continue
            field = get_field(chi.order())
            e = _vp(k, p) + 1 if v == 1 else 1
            g = smallest_primitive_root(p)
            y_e = math.prod([field.one() - evaluate(chi, g) * g**k] * e, start=field.one())
            scale = Fraction(1, p) if v == 1 else k / (field.one() - evaluate(chi, 1 + p))

            def drawn():
                return CycElement(field, [rng.randint(-p, p) for _ in range(field.degree)])

            delta = rng.choice([lambda: field.zeta_power(rng.randrange(field.degree)), lambda: drawn() * p**e,
                                lambda: drawn() * y_e, drawn, lambda: field.zeta_power(1) / p])()
            b = real_gbn(chi, k) + scale * delta
            monkeypatch.setattr(bernoulli, "gbn", lambda chi, k, b=b: b)
            row = verify_carlitz(chi, k)
            assert (row["case"], row["ok"]) == carlitz_by_ideals(chi, k, b), (chi.modulus, chi.index(), k, delta)
            verdicts[v > 1, row["ok"]] += 1
        assert min(verdicts.values()) > 50, verdicts

    def test_parity_mismatch_rejected(self):
        with pytest.raises(InputError, match=r"^parity mismatch: B_\{k,chi\} = 0, nothing to verify$"):
            verify_carlitz(quad5(), 1)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InputError, match="^k must be positive$"):
            verify_carlitz(quad5(), 0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_trivial_character_is_sent_to_von_staudt(self, k):
        with pytest.raises(InputError, match="conductor 1.*the von-staudt suite"):
            verify_carlitz(character_from_index(1, 0), k)

    def test_gcd_degree_is_the_corank_of_multiplication_mod_p(self):
        # The rank route the gcd replaced, kept as its oracle: Z[zeta_n]/(p, y) has dimension
        # phi(n) - rank_p(multiplication by y) over F_p, and F_p[x]/(h) has dimension deg h.
        reached = set()
        for chi, k in _carlitz_pin_cases():
            (p,) = factorize(chi.modulus)
            if kernel_order_match(k, p, tame_order(chi, p)):
                g = primitive_root(p)
                reached.add((chi.order(), _value_exponent(chi, g), pow(g, k, p), p))
        degrees = Counter()
        for n, c, gk, p in sorted(reached):
            field = get_field(n)
            u = [int(j == 0) - gk * z for j, z in enumerate(field.zeta_power(c).nums)]
            rank = padic_invariant_exponents([dict(enumerate(r)) for r in times_x_rows(field.phi_n, u)], p, 1).count(0)
            h = poly_gcd_mod_p(field.phi_n, u, p)
            assert len(h) - 1 == field.degree - rank, (n, c, gk, p)
            degrees[len(h) - 1] += 1
        # Here g generates (Z/p^v)^x, so chi(g) = zeta^c with c a unit mod n.  Then y mod p is separable
        # and meets Phi_n mod p in the one root r of order n/p^(v_p(n)) with r^c = g^(-k), so every
        # proper ideal reached has degree 1.
        assert (len(reached), degrees) == (596, {1: 596})

    def test_a_proper_ideal_whose_gcd_is_one_raises(self, monkeypatch, capsys):
        chi, k = next((chi, k) for chi, k in _carlitz_pin_cases()
                      if chi.modulus == 25 and verify_carlitz(chi, k)["case"] == "p^2-unit")
        monkeypatch.setattr(bernoulli, "kernel_order_match", lambda *args: True)
        with pytest.raises(AssertionError, match="kernel_order_match.*gcd over F_5"):
            verify_carlitz(chi, k)
        assert cli.main(["verify", "carlitz", "--max", "4"]) == 1
        assert "kernel_order_match" in capsys.readouterr().err

    def test_sweep_walks_no_primitive_root_once_the_structure_is_cached(self, monkeypatch):
        from dirichletj import characters, exactalg

        cases = [(chi, k) for N in (9, 25, 27) for chi in enumerate_characters(N)
                 if is_primitive(chi) for k in range(1, 9) if (-1) ** k == parity(chi)]
        expected = [verify_carlitz(chi, k) for chi, k in cases]
        assert {row["case"] for row in expected} >= {"p^v-congruence"}
        walks = []
        honest = exactalg.smallest_primitive_root
        for module in (exactalg, characters, bernoulli):  # every module that has imported the name
            monkeypatch.setattr(module, "smallest_primitive_root", lambda *args: walks.append(args) or honest(*args),
                                raising=False)
        assert [verify_carlitz(chi, k) for chi, k in cases] == expected
        assert walks == []
