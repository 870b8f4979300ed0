"""Cyclotomic field arithmetic, denominator ideals, and p-adic splitting."""

import hashlib
import math
import operator
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from dirichletj import characters, cyclotomic
from dirichletj.bernoulli import denom_ideal
from dirichletj.cyclotomic import (
    CycElement,
    cyclotomic_factor_count,
    cyclotomic_poly,
    denominator_ideal,
    denominator_invariants,
    galois_apply,
    get_field,
    padic_splitting,
    quotient_group,
    render_cyc,
)
from dirichletj.exactalg import (AbelianGroupExpr, InputError, euler_phi, factorize, is_prime,
                                 padic_invariant_exponents, times_x_rows)

from ideal_oracle import (
    IdealLattice,
    basis_elements,
    denominator_lattice,
    from_generators,
    ideal_power,
    ideal_product,
    ideal_sum,
    principal,
    quotient,
)


PRIMES_50 = [p for p in range(2, 51) if is_prime(p)]
DEGREE_24 = [n for n in range(1, 91) if euler_phi(n) <= 24]


def _element(field, coords):
    """The element with the given rational coordinates over the power basis."""
    den = math.lcm(*(Fraction(c).denominator for c in coords))
    return CycElement(field, [int(Fraction(c) * den) for c in coords], den)


def _render_by_fractions(a):
    """The renderer as it was written with one Fraction per coordinate, kept as the reference."""
    terms = []
    for j, x in enumerate(a.nums):
        if x == 0:
            continue
        c = Fraction(x, a.den)
        if j == 0:
            terms.append(str(c))
        elif j == 1:
            terms.append(f"{c}*z" if c != 1 else "z")
        else:
            terms.append(f"{c}*z^{j}" if c != 1 else f"z^{j}")
    if not terms:
        return "0"
    return " + ".join(terms).replace("+ -", "- ")


class TestCyclotomicPoly:
    def test_n1(self):
        assert cyclotomic_poly(1) == (-1, 1)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_prime(self, p):
        assert cyclotomic_poly(p) == (1,) * p

    def test_n12(self):
        assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)

    def test_degree_sum(self):
        for n in range(1, 201):
            total = sum(len(cyclotomic_poly(d)) - 1 for d in range(1, n + 1) if n % d == 0)
            assert total == n

    def test_monic_integral(self):
        for n in (8, 15, 36, 105):
            phi = cyclotomic_poly(n)
            assert phi[-1] == 1
            assert all(type(c) is int for c in phi)
            assert len(phi) - 1 == euler_phi(n)

    def test_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for n in range(1, 151):
            expected = tuple(int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()))
            assert cyclotomic_poly(n) == expected, n


class TestFieldArithmetic:
    def test_zeta4_squared(self):
        f = get_field(4)
        z = f.zeta_power(1)
        assert z * z == f.from_rational(-1)

    def test_inverse_roundtrip(self):
        f = get_field(5)
        a = f.one() + f.zeta_power(1)
        assert a * a.inverse() == f.one()

    def test_additive_inverse(self):
        f = get_field(7)
        a = f.zeta_power(3) * Fraction(5, 3)
        assert (a + (-a)).is_zero()

    def test_field_mismatch_rejected(self):
        with pytest.raises(ValueError):
            get_field(4).one() + get_field(5).one()

    def test_a_field_above_the_degree_cap_is_an_input_error(self, monkeypatch):
        # A cap of 4 stands for MAX_FIELD_DEGREE; only a cache miss builds a field, so the
        # cache starts and ends empty.
        assert characters.InputError is InputError
        monkeypatch.setattr(cyclotomic, "MAX_FIELD_DEGREE", 4)
        get_field.cache_clear()
        try:
            assert get_field(5).degree == get_field(12).degree == 4
            with pytest.raises(InputError, match=r"field too large: Q\(zeta_7\) has degree 6, above 4"):
                get_field(7)
        finally:
            get_field.cache_clear()

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            get_field(4).zero().inverse()

    def test_render(self):
        f = get_field(4)
        assert render_cyc(f.from_rational(Fraction(4, 5))) == "4/5"
        assert render_cyc(f.zero()) == "0"
        assert render_cyc(f.one() + f.zeta_power(1) * 2) == "1 + 2*z"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([1, 3, 4, 5, 8, 12]), st.data())
    def test_times_and_over_a_rational_scalar(self, n, data):
        # The scalar path works on (nums, den) with the sign moved into the numerators; the
        # reference rebuilds the element from its Fraction coordinates.
        f = get_field(n)
        coords = data.draw(st.lists(st.fractions(-500, 500, max_denominator=60), min_size=f.degree, max_size=f.degree))
        a = _element(f, coords)
        q = data.draw(st.one_of(st.integers(-1000, 1000), st.fractions(max_denominator=1000)).filter(bool))
        times, over = a * q, a / q
        assert times == _element(f, [c * q for c in coords]) == q * a
        assert over == _element(f, [c / q for c in coords])
        assert times.den > 0 and over.den > 0
        assert math.gcd(times.den, *times.nums) == math.gcd(over.den, *over.nums) == 1

    def test_division_by_a_zero_scalar(self):
        a = get_field(5).zeta_power(1)
        for zero in (0, False, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                a / zero

    @pytest.mark.parametrize("q", [3, -2, 0, True, False, Fraction(-5, 6), Fraction(7)])
    def test_a_scalar_acts_as_its_from_rational_element(self, q):
        # An operand that is not a CycElement is read through its integer numerator and
        # denominator, on either side of +, -, *, / and ==.
        f = get_field(5)
        a = f.zeta_power(2) * Fraction(3, 4) - 1
        e = f.from_rational(q)
        assert (a + q, q + a, a - q, q - a, a * q, q * a) == (a + e, e + a, a - e, e - a, a * e, e * a)
        if q:
            assert (a / q, q / a) == (a / e, e / a)
        assert (e == q, q == e, e + 1 == q, q == e + 1, a == q, q == a) == (True, True, False, False, False, False)

    def test_equality_with_a_non_number_is_false(self):
        a = get_field(1).from_rational(Fraction(1, 2))
        assert [a == other for other in (None, "1/2", [1, 2])] == [False, False, False]

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("q", [3, -3, 0, -1, Fraction(1, 2), Fraction(-1, 2), Fraction(5, sys.hash_info.modulus),
                                   Fraction(-7, 3 * sys.hash_info.modulus), Fraction(-1, sys.hash_info.modulus - 1)])
    def test_a_rational_element_hashes_as_the_rational_it_equals(self, n, q):
        # Equal objects hash equal, so an element and its rational are one key of a set or dict;
        # a denominator divisible by the hash modulus takes Python's inf branch.
        e = get_field(n).from_rational(q)
        assert e == q and hash(e) == hash(q)
        assert len({e, q}) == 1 and q in {e} and e in {q}

    @pytest.mark.parametrize("other", [0.5, 1j, "1", None, [1], object()])
    def test_an_unsupported_operand_is_a_type_error(self, other):
        # +, -, * and / return NotImplemented for an operand with no integer numerator and
        # denominator, on either side, so Python raises TypeError.
        a = get_field(5).one()
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for left, right in ((a, other), (other, a)):
                with pytest.raises(TypeError):
                    op(left, right)
        assert (a == other, a != other) == (False, True)

    @pytest.mark.parametrize("q", [0.5, "1"])
    def test_a_non_rational_scalar_builds_no_element(self, q):
        # from_rational reads its scalar as the operators do, so a float or a string is a
        # TypeError there too.
        with pytest.raises(TypeError):
            get_field(1).from_rational(q)

    @pytest.mark.parametrize("n", [1, 5])
    def test_a_float_or_decimal_compares_exactly(self, n):
        # == reads a finite float or Decimal through as_integer_ratio, as Fraction does, so
        # equality stays transitive through Fraction; arithmetic with either is still refused.
        half = get_field(n).from_rational(Fraction(1, 2))
        for x in (0.5, Decimal("0.5")):
            assert x == Fraction(1, 2) and (half == x, x == half, half != x) == (True, True, False)
            assert hash(half) == hash(x)
            with pytest.raises(TypeError):
                half + x
        third = get_field(n).from_rational(Fraction(1, 3))
        assert third != 1 / 3 and Fraction(1, 3) != 1 / 3
        assert get_field(n).zero() == -0.0 and get_field(n).zeta_power(1) != 0.0
        for x in (math.nan, math.inf, -math.inf, Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity")):
            assert not half == x and half != x

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([1, 3, 4, 5, 8, 12]), st.data())
    def test_render_matches_the_fraction_renderer(self, n, data):
        f = get_field(n)
        nums = data.draw(st.lists(st.sampled_from([0, 1, -1]) | st.integers(-10**30, 10**30),
                                  min_size=f.degree, max_size=f.degree))
        a = CycElement(f, nums, data.draw(st.sampled_from([1, 2]) | st.integers(1, 10**20)))
        assert render_cyc(a) == _render_by_fractions(a)


class TestInverse:
    """The Galois-product inverse on cases whose inverse is known in closed form."""

    def test_inverse_of_one(self):
        for n in (1, 3, 8, 12):
            f = get_field(n)
            assert f.one().inverse() == f.one()

    def test_zeta4(self):
        # z * (-z) = -z^2 = 1 in Z[i].
        f = get_field(4)
        z = f.zeta_power(1)
        assert z.inverse() == -z

    def test_one_plus_zeta3(self):
        # 1 + z = -z^2 when z^2 + z + 1 = 0, so its inverse is -z.
        f = get_field(3)
        z = f.zeta_power(1)
        assert (f.one() + z).inverse() == -z

    @pytest.mark.parametrize("n", [1, 2])
    def test_negative_norm_gives_positive_denominator(self, n):
        inv = get_field(n).from_rational(Fraction(-3, 4)).inverse()
        assert inv.den == 3 and inv == Fraction(-4, 3)


class TestGalois:
    def test_identity(self):
        f = get_field(5)
        a = f.zeta_power(2) + f.one() * Fraction(1, 3)
        assert galois_apply(a, 1) == a

    def test_zeta5_squares(self):
        f = get_field(5)
        assert galois_apply(f.zeta_power(1), 2) == f.zeta_power(2)

    def test_composition(self):
        f = get_field(7)
        rng = random.Random(1)
        for _ in range(10):
            a = _element(f, [Fraction(rng.randint(-4, 4)) for _ in range(f.degree)])
            assert galois_apply(galois_apply(a, 2), 3) == galois_apply(a, 6)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            galois_apply(get_field(6).one(), 2)

    def test_permutes_roots(self):
        for n in (5, 8, 12):
            f = get_field(n)
            phi = f.phi_n
            for a in range(1, n):
                if math.gcd(a, n) != 1:
                    continue
                img = galois_apply(f.zeta_power(1), a)
                acc = f.zero()
                for j, c in enumerate(phi):
                    power = f.one()
                    for _ in range(j):
                        power = power * img
                    acc = acc + power * c
                assert acc.is_zero()

    def test_norm_of_one_minus_zeta_p(self):
        for p in PRIMES_50[1:]:
            f = get_field(p)
            x = f.one() - f.zeta_power(1)
            norm = f.one()
            for a in range(1, p):
                norm = norm * galois_apply(x, a)
            assert norm == f.from_rational(p)


class TestDenominatorIdeal:
    def test_integral_gives_full_ring(self):
        f = get_field(5)
        assert denominator_ideal(f.one()) == [[int(i == j) for j in range(4)] for i in range(4)]
        assert denominator_invariants(f.one()) == [1, 1, 1, 1]

    def test_quarter_in_q_zeta4(self):
        f = get_field(4)
        a = f.from_rational(Fraction(1, 4))
        assert [row[i] for i, row in enumerate(denominator_ideal(a))] == [4, 4]
        assert denominator_invariants(a) == [4, 4]
        assert quotient_group(a) == AbelianGroupExpr.cyclic(4) + AbelianGroupExpr.cyclic(4)

    def test_rational_bernoulli_case(self):
        # B_{2,chi_5}/4 = 1/5 lives in Q = Q(zeta_2); denominator ideal (5).
        f = get_field(2)
        assert denominator_ideal(f.from_rational(Fraction(1, 5))) == [[5]]

    def test_products_land_integrally_and_maximally(self):
        rng = random.Random(9)
        for n in (4, 5, 8):
            f = get_field(n)
            for _ in range(8):
                a = _element(f, [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(f.degree)])
                if a.is_zero():
                    continue
                basis = denominator_ideal(a)
                for row in basis:
                    x = _element(f, [Fraction(v) for v in row])
                    assert (x * a).is_integral()
                # Maximality probe: dividing a pivot row by a prime divisor
                # of its pivot must leave the lattice.
                for i, row in enumerate(basis):
                    piv = row[i]
                    for q in set(_prime_divisors(piv)):
                        scaled = [Fraction(v, q) for v in row]
                        elt = _element(f, scaled)
                        assert not (elt * a).is_integral()
                # The local invariants give the index the HNF pivots give.
                assert math.prod(denominator_invariants(a)) == math.prod(row[i] for i, row in enumerate(basis))

    def test_quotient_order_power(self):
        for n, m in ((4, 3), (5, 2), (3, 4)):
            f = get_field(n)
            # O/mO is (Z/m)^degree, of order m^degree.
            assert quotient_group(f.from_rational(Fraction(1, m))) == AbelianGroupExpr.cyclic(m).times(f.degree)

    def test_zero_gives_full_ring(self):
        # D(0) = {y : 0*y integral} is the whole ring.
        f = get_field(4)
        assert denominator_ideal(f.zero()) == [[1, 0], [0, 1]]
        assert denominator_invariants(f.zero()) == [1, 1]
        assert quotient_group(f.zero()).is_zero()

    def test_invariants_ascend_by_divisibility(self):
        # 1/12 in Q(zeta_3): the Smith diagonal of (12), padded order and divisibility chain.
        f = get_field(3)
        assert denominator_invariants(f.from_rational(Fraction(1, 12))) == [12, 12]
        # (1 - z)/9: 1 - z has norm 3, so it kills one factor 3 of the 9 in one invariant.
        assert denominator_invariants((f.one() - f.zeta_power(1)) / 9) == [3, 9]

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 12])
    def test_rational_elements(self, n):
        # D(m/c) = cZ[zeta] for gcd(m, c) = 1, so Z[zeta]/D is (Z/c)^phi(n).
        f = get_field(n)
        for c in range(1, 31):
            for m in (1, -7, 11):
                if math.gcd(m, c) == 1:
                    assert denominator_invariants(f.from_rational(Fraction(m, c))) == [c] * f.degree

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([3, 4, 5, 7, 8, 9, 12]), st.data())
    def test_invariants_are_a_chain_fixed_by_units_and_conjugates(self, n, data):
        f = get_field(n)
        nums = data.draw(st.lists(st.integers(-9, 9), min_size=f.degree, max_size=f.degree).filter(any))
        a = CycElement(f, nums, data.draw(st.integers(1, 400)))
        d = denominator_invariants(a)
        assert len(d) == f.degree and all(y % x == 0 for x, y in zip(d, d[1:])) and a.den % d[-1] == 0
        assert math.prod(d) == denominator_lattice(a).index()
        # D(u*a) = D(a) for a unit u, and sigma(D(a)) = D(sigma(a)) has the same quotient.
        j = data.draw(st.integers(0, n - 1))
        s = data.draw(st.sampled_from([s for s in range(1, n + 1) if math.gcd(s, n) == 1]))
        assert denominator_invariants(a * f.zeta_power(j)) == d
        assert denominator_invariants(galois_apply(a, s)) == d

    def test_each_prime_of_the_denominator_sees_the_rows_unchanged(self):
        # c = 2^3 * 3^2: denominator_invariants eliminates one set of rows mod 2^3 and then mod 3^2,
        # so each prime's part must equal an elimination of freshly built rows.
        f = get_field(12)
        a = CycElement(f, [-25, 23, 17, 20], 72)
        expected = [1] * f.degree
        for p, v in ((2, 3), (3, 2)):
            fresh = [dict(enumerate(row)) for row in times_x_rows(f.phi_n, a.nums)]
            exps = padic_invariant_exponents(fresh, p, v)
            expected = [x * p ** (v - e) for x, e in zip(expected, reversed(exps))]
        assert denominator_invariants(a) == expected == [12, 12, 72, 72]
        assert quotient_group(a) == quotient(denominator_lattice(a))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(DEGREE_24), st.data())
    def test_a_prime_exactly_dividing_c_counts_the_units_of_an_elimination_mod_p(self, n, data):
        # The route that read every p exactly dividing c off an elimination mod p: each pivot that is
        # not a unit mod p leaves one factor p out of Z[zeta_n]/D(A/p).  p | n is drawn too, where
        # Phi_n is not squarefree mod p.  For p prime to n the period sum_i z^(p^i) is in F_p at each
        # root of Phi_n mod p, so A with factors (period - m) for some m shares a factor with Phi_n.
        f = get_field(n)
        p = data.draw(st.sampled_from(sorted(set(factorize(n)) | {2, 3, 5, 7})))
        n_prime, powers = n, [1]
        while n_prime % p == 0:
            n_prime //= p
        while powers[-1] * p % n_prime != 1 % n_prime:
            powers.append(powers[-1] * p % n_prime)
        period = sum((f.zeta_power(e) for e in powers), f.zero())
        a = CycElement(f, data.draw(st.lists(st.integers(-2, 2), min_size=f.degree, max_size=f.degree)))
        for m in data.draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p - 1)):
            a = a * (period - m)
        assume(any(x % p for x in a.nums))
        rows = [dict(enumerate(row)) for row in times_x_rows(f.phi_n, a.nums)]
        r = f.degree - padic_invariant_exponents(rows, p, 1).count(1)
        assert denominator_invariants(CycElement(f, a.nums, p)) == [1] * (f.degree - r) + [p] * r

    @pytest.mark.parametrize("c, eliminations", [(5, 0), (30, 0), (8, 1), (360, 2)])
    def test_only_a_prime_to_a_higher_power_runs_an_elimination(self, monkeypatch, c, eliminations):
        # A shares the factor x^2 + 3x + 4 of Phi_12 mod 5, so at c = 2^3 * 3^2 * 5 the 5 is read off
        # a gcd of degree 2 and the 8 and the 9 off eliminations.
        calls = []
        monkeypatch.setattr(cyclotomic, "padic_invariant_exponents",
                            lambda rows, p, v: calls.append((p, v)) or padic_invariant_exponents(rows, p, v))
        a = CycElement(get_field(12), [119, 23, 161, 20], c)
        assert a.den == c
        assert quotient_group(a) == quotient(denominator_lattice(a))
        assert len(calls) == eliminations and all(v > 1 for _, v in calls)

    def test_invariants_match_the_oracle_lattice(self):
        rng = random.Random(25)
        for n in (1, 3, 4, 5, 7, 8, 9, 12):
            f = get_field(n)
            for _ in range(12):
                a = _element(f, [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 4, 6, 9, 12, 25, 49]))
                                 for _ in range(f.degree)])
                assert quotient_group(a) == quotient(denominator_lattice(a)), a
                assert denominator_ideal(a) == denominator_lattice(a).basis, a


@pytest.mark.parametrize("call, message", [
    (lambda: cyclotomic_poly(0), "n must be positive"),
    (lambda: CycElement(get_field(4), [1, 0], 0), "denominator must be positive, got 0"),
    (lambda: get_field(4).one() + get_field(5).one(), "field mismatch: Q(zeta_4) vs Q(zeta_5)"),
    (lambda: galois_apply(get_field(6).one(), 2), "sigma must be coprime to n"),
    (lambda: padic_splitting(12, 4), "p must be prime"),
    (lambda: padic_splitting(-3, 2), "n must be positive"),
    (lambda: padic_splitting(0, 3), "n must be positive"),
    (lambda: cyclotomic_factor_count(12, 3), "need a prime p not dividing n, got n = 12, p = 3"),
])
def test_arguments_out_of_range_raise_input_error(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


def test_denominator_invariants_are_pinned():
    # sha256 of Z[chi]/D(B_{k,chi}/2k) for every primitive chi of conductor 3 to 69 with
    # phi(ord chi) <= 24 at each k <= 16, plus 101:1 and 83:1 (degree 40) at k = 3, from the code
    # that read every prime of the denominator off an elimination mod p^v.
    cases = [(N, chi.index(), k) for N in range(3, 70) for chi in characters.enumerate_characters(N)
             if characters.is_primitive(chi) and euler_phi(chi.order()) <= 24 for k in range(1, 17)]
    cases += [(101, 1, 3), (83, 1, 3)]
    rows = [(N, index, k, denominator_invariants(denom_ideal(characters.character_from_index(N, index), k)))
            for N, index, k in cases]
    assert len(rows) == 13346 and sum(row[3][-1] > 1 for row in rows) == 2742
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "447dd911a35068e9a4e964c47dccf7c59bb76f4ca9fee77f54a19411f99aea56"


def _prime_divisors(n):
    out = []
    m = abs(n)
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


class TestIdealArithmetic:
    # The lattices of ideals from generators, products, sums and powers that the tests keep as oracles.

    def test_carlitz_style_generators(self):
        # (5, 1 - chi(2) * 2^2) with chi(2) = -1 is (5, 5) = (5) in Z.
        f = get_field(2)
        ideal = from_generators(f, [f.from_rational(5), f.from_rational(1 + 4)])
        assert ideal.diagonal() == [5]
        assert ideal.contains(f.from_rational(10))
        assert not ideal.contains(f.from_rational(3))

    def test_power_and_sum(self):
        f = get_field(3)
        lam = principal(f, f.one() - f.zeta_power(1))
        assert quotient(lam) == AbelianGroupExpr.cyclic(3)
        sq = ideal_power(lam, 2)
        assert quotient(sq) == AbelianGroupExpr.cyclic(3).times(2)  # lambda^2 = (3), so O/(3) = (Z/3)^2 of order 9
        assert ideal_sum(lam, sq) == lam

    def test_quotient_of_full_ring_trivial(self):
        f = get_field(5)
        assert quotient(IdealLattice.full_ring(f)).is_zero()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([3, 4, 5, 8, 12]), st.data())
    def test_product_and_sum_laws(self, n, data):
        f = get_field(n)
        coords = st.lists(st.integers(-4, 4), min_size=f.degree, max_size=f.degree).filter(any)

        def draw_ideal():
            gens = [CycElement(f, data.draw(coords))]
            m = data.draw(st.integers(0, 12))
            return from_generators(f, gens + [f.from_rational(m)] if m else gens)

        a, b = draw_ideal(), draw_ideal()
        ab = ideal_product(a, b)
        assert ab.index() == a.index() * b.index()
        assert all(a.contains(x) and b.contains(x) for x in basis_elements(ab))
        # The same ideal from the z^j multiples of every product of basis elements.
        assert ab == from_generators(
            f, [x * y for x in basis_elements(a) for y in basis_elements(b)]
        )
        total = ideal_sum(a, b)
        assert all(total.contains(x) for x in basis_elements(a) + basis_elements(b))
        assert math.gcd(a.index(), b.index()) % total.index() == 0


def order_mod(p, n):
    """The multiplicative order of p modulo n (1 for n = 1), by repeated multiplication."""
    m, x = 1, p % n
    while x != 1 % n:
        m, x = m + 1, x * p % n
    return m


class TestSplitting:
    def test_prime_power_level(self):
        assert padic_splitting(9, 3) == (1,)
        assert order_mod(3, 1) == 1

    def test_n12_p5(self):
        assert order_mod(5, 12) == 2
        assert len(padic_splitting(12, 5)) * order_mod(5, 12) == euler_phi(12)
        assert len(padic_splitting(12, 5)) == 2

    def test_n5_p2(self):
        assert order_mod(2, 5) == 4 and len(padic_splitting(5, 2)) == 1

    def test_splitting_order8_p3(self):
        assert len(padic_splitting(8, 3)) == 2

    def test_splitting_n2(self):
        for p in (3, 5, 7):
            assert len(padic_splitting(2, p)) == 1

    def test_counts_match_factorization(self):
        for n_prime in range(1, 31):
            for p in (2, 3, 5, 7, 11, 13):
                if n_prime % p == 0:
                    continue
                reps = padic_splitting(n_prime, p)
                m = order_mod(p, n_prime)
                assert len(reps) * m == euler_phi(n_prime)
                # The cosets b<p> of the representatives cover the units mod n'.
                cosets = {b * p**j % n_prime for b in reps for j in range(m)}
                assert cosets == {b for b in range(n_prime) if math.gcd(b, n_prime) == 1}
                assert len(reps) == cyclotomic_factor_count(n_prime, p)

    def test_factor_count_needs_a_prime_not_dividing_n(self):
        with pytest.raises(ValueError):
            cyclotomic_factor_count(12, 3)
        with pytest.raises(ValueError):
            cyclotomic_factor_count(7, 4)
