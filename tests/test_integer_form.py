"""Q(zeta_n) numbers as integer vectors over one denominator, and the one HNF of a printed ideal basis.

The arithmetic is compared with a reference written here: elements as
tuples of ``Fraction``, schoolbook products reduced by this file's own
Phi_n, inverses by Gauss-Jordan elimination over Q.
"""

import hashlib
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

import dirichletj.cyclotomic as cyc
from dirichletj.bernoulli import denom_ideal, gbn, l_value
from dirichletj.characters import _value_exponent, abelian_field, character_from_index, enumerate_characters, unit_subgroup
from dirichletj.cyclotomic import (
    CycElement,
    denominator_ideal,
    denominator_invariants,
    galois_apply,
    get_field,
    quotient_group,
    render_cyc,
)
from dirichletj.dedekind import zeta_special_value
from dirichletj.eisenstein import eisenstein_coeffs

from ideal_oracle import IdealLattice, principal


FIELDS = (1, 2, 3, 4, 5, 8, 12, 15, 16)


# -- the reference ------------------------------------------------------------


def _divmod_monic(a: list, m: list) -> tuple[list, list]:
    """Quotient and remainder of a by the monic m, coefficients ascending."""
    rem = list(a)
    q = [0] * max(len(a) - len(m) + 1, 0)
    while len(rem) >= len(m):
        c = rem[-1]
        k = len(rem) - len(m)
        q[k] = c
        for j, y in enumerate(m):
            rem[k + j] -= c * y
        rem.pop()
    return q, rem


@lru_cache(maxsize=None)
def _phi(n: int) -> tuple[int, ...]:
    """Phi_n as x^n - 1 divided by Phi_d over the proper divisors d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _divmod_monic(poly, _phi(d))
            assert not any(rem)
    return tuple(poly)


def _reduce(poly: list, n: int) -> tuple:
    phi = _phi(n)
    _, rem = _divmod_monic(poly, phi)
    rem = rem + [0] * (len(phi) - 1 - len(rem))
    return tuple(Fraction(c) for c in rem)


def _ref_mul(a: tuple, b: tuple, n: int) -> tuple:
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _reduce(prod, n)


def _ref_inverse(a: tuple, n: int) -> tuple:
    """Solve x * a = 1: column j of the system is z^j * a."""
    d = len(a)
    cols = [_ref_mul(a, tuple(Fraction(int(i == j)) for i in range(d)), n) for j in range(d)]
    aug = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
    for c in range(d):
        piv = next(r for r in range(c, d) if aug[r][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(d):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return tuple(row[d] for row in aug)


def _ref_substitute(a: tuple, step: int, m: int) -> tuple:
    """a(z^step) in Q(zeta_m), reducing z^(j*step) through z^m = 1 first."""
    poly = [Fraction(0)] * m
    for j, c in enumerate(a):
        poly[j * step % m] += c
    return _reduce(poly, m)


def _value(x) -> tuple:
    return tuple(Fraction(v, x.den) for v in x.nums)


def _element(field, coords):
    """The element with the given rational coordinates over the power basis."""
    den = math.lcm(*(Fraction(c).denominator for c in coords))
    return CycElement(field, [int(Fraction(c) * den) for c in coords], den)


def _random_coeffs(rng: random.Random, d: int) -> tuple:
    sparse = rng.random() < 0.3
    return tuple(
        Fraction(0) if sparse and rng.random() < 0.7 else Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        for _ in range(d)
    )


def _assert_normalized(x) -> None:
    assert x.den > 0
    assert math.gcd(x.den, *x.nums) == 1
    assert all(isinstance(v, int) for v in x.nums) and isinstance(x.den, int)
    assert len(x.nums) == x.field.degree


# -- differential test --------------------------------------------------


class TestAgainstFractionReference:
    def test_reference_phi_has_degree_phi(self):
        for n in FIELDS:
            assert len(_phi(n)) - 1 == get_field(n).degree

    @pytest.mark.parametrize("n", FIELDS)
    def test_ring_operations(self, n):
        f = get_field(n)
        rng = random.Random(n)
        for _ in range(25):
            ca, cb = _random_coeffs(rng, f.degree), _random_coeffs(rng, f.degree)
            a, b = _element(f, ca), _element(f, cb)
            assert _value(a) == ca and _value(b) == cb
            results = {
                "+": (a + b, tuple(x + y for x, y in zip(ca, cb))),
                "-": (a - b, tuple(x - y for x, y in zip(ca, cb))),
                "*": (a * b, _ref_mul(ca, cb, n)),
            }
            q = Fraction(rng.randint(-7, 7) or 1, rng.randint(1, 7))
            results["*q"] = (a * q, tuple(x * q for x in ca))
            results["/q"] = (a / q, tuple(x / q for x in ca))
            results["+q"] = (a + q, (ca[0] + q,) + ca[1:])
            if any(cb):
                inv = _ref_inverse(cb, n)
                results["inverse"] = (b.inverse(), inv)
                results["/"] = (a / b, _ref_mul(ca, inv, n))
            for op, (got, want) in results.items():
                _assert_normalized(got)
                assert _value(got) == want, (n, op, ca, cb)

    @pytest.mark.parametrize("n, count", [(17, 3), (41, 1)])
    def test_inverse_at_degrees_16_and_40(self, n, count):
        f = get_field(n)
        rng = random.Random(300 + n)
        for _ in range(count):
            cb = _random_coeffs(rng, f.degree)
            if any(cb):
                got = _element(f, cb).inverse()
                _assert_normalized(got)
                assert _value(got) == _ref_inverse(cb, n)

    def test_inverse_of_bernoulli_values(self):
        chi = character_from_index(41, 1)
        values = [b for b in (gbn(chi, k) for k in range(7)) if not b.is_zero()]
        assert len(values) == 3
        for b in values:
            got = b.inverse()
            _assert_normalized(got)
            assert _value(got) == _ref_inverse(_value(b), b.field.n)

    @pytest.mark.parametrize("n", FIELDS)
    def test_galois(self, n):
        f = get_field(n)
        rng = random.Random(100 + n)
        for _ in range(10):
            ca = _random_coeffs(rng, f.degree)
            a = _element(f, ca)
            for sigma in range(1, 2 * n + 1):
                if math.gcd(sigma, n) == 1:
                    got = galois_apply(a, sigma)
                    _assert_normalized(got)
                    assert _value(got) == _ref_substitute(ca, sigma, n)

    @pytest.mark.parametrize("n", FIELDS)
    def test_invariants(self, n):
        f = get_field(n)
        rng = random.Random(200 + n)
        zero = f.zero()
        assert zero.nums == (0,) * f.degree and zero.den == 1
        for _ in range(20):
            ca = _random_coeffs(rng, f.degree)
            a = _element(f, ca)
            b = _element(f, _random_coeffs(rng, f.degree))
            diff = a - a
            assert diff.nums == (0,) * f.degree and diff.den == 1
            again = (a + b) - b
            _assert_normalized(again)
            assert again == a and hash(again) == hash(a)
            scaled = _element(f, [3 * c for c in ca]) / 3
            assert scaled == a and hash(scaled) == hash(a)
            assert (a.den == 1) == all(c.denominator == 1 for c in ca)
        for den in (0, -2):
            with pytest.raises(ValueError, match="positive"):
                CycElement(f, [1] * f.degree, den)
        half = f.from_rational(Fraction(-4, 8))
        assert half.den == 2 and half.nums[0] == -1
        assert half == Fraction(-1, 2)


# -- zeta_K(1-k) against the product over every character -------------------


def test_zeta_value_is_the_product_over_every_character():
    # The reference multiplies all [(Z/N)^x : H] L-values, each moved into Q(zeta_m) by this
    # file's substitution, with m the exponent of (Z/N)^x; zeta_special_value takes one norm
    # per Galois orbit instead.  A zero factor makes the product zero.
    for N in range(1, 33):
        chis = enumerate_characters(N)
        m = math.lcm(*(chi.order() for chi in chis))
        subgroups = {frozenset(unit_subgroup(N, [u])): u for u in range(1, N + 1) if math.gcd(u, N) == 1}
        for k in range(1, 5):
            values = {chi: l_value(chi, 1 - k) for chi in chis}
            factors = {chi: _ref_substitute(_value(v), m // v.field.n, m)
                       for chi, v in values.items() if not v.is_zero()}
            for u in subgroups.values():
                on_h = [chi for chi in chis if _value_exponent(chi, u) == 0]
                prod = _reduce([Fraction(0)], m)
                if all(chi in factors for chi in on_h):
                    prod = _reduce([Fraction(1)], m)
                    for chi in on_h:
                        prod = _ref_mul(prod, factors[chi], m)
                assert not any(prod[1:]), (N, u, k)
                assert zeta_special_value(abelian_field(N, (u,)), 1 - k) == prod[0], (N, u, k)


# -- one HNF per printed basis ----------------------------------------------


@pytest.fixture
def hnf_calls(monkeypatch):
    calls = []
    real = cyc.hermite_normal_form

    def counting(m, modulus):
        calls.append(len(m))
        return real(m, modulus)

    monkeypatch.setattr(cyc, "hermite_normal_form", counting)
    return calls


class TestOneHnfPerBasis:
    def test_only_a_non_integral_basis_runs_an_hnf(self, hnf_calls):
        f = get_field(12)
        z = f.zeta_power(1)
        a = (f.one() + z) * Fraction(5, 12)
        builds = {
            "denominator_ideal": (lambda: denominator_ideal(a), 1),
            "denominator_ideal(integral)": (lambda: denominator_ideal(f.one() + z), 0),
            "denominator_ideal(zero)": (lambda: denominator_ideal(f.zero()), 0),
            "denominator_invariants": (lambda: denominator_invariants(a), 0),
            "quotient_group": (lambda: quotient_group(a), 0),
        }
        for name, (build, runs) in builds.items():
            hnf_calls.clear()
            build()
            assert len(hnf_calls) == runs, name

    def test_bernoulli_denominator_ideals_run_none(self, hnf_calls):
        for N, idx, k in ((5, 2, 2), (13, 1, 3), (16, 3, 5), (7, 1, 3)):
            quotient_group(denom_ideal(character_from_index(N, idx), k))
        assert hnf_calls == []


# -- the closure check of denominator_ideal, and the oracle lattice's constructor


class TestClosureCheck:
    @pytest.mark.parametrize("n, den, block", [
        # 2Z + Z*i is not an ideal of Z[i]: i * 2 = 2i lies in it, i * i = -1 does not.
        (4, 2, [[2, 0], [0, 1]]),
        (3, 3, [[3, 0], [0, 1]]),
    ])
    def test_a_basis_not_closed_under_zeta_is_rejected(self, monkeypatch, n, den, block):
        # The HNF is patched to return a kernel block that is a lattice but no ideal.
        real = cyc.hermite_normal_form
        monkeypatch.setattr(cyc, "hermite_normal_form",
                            lambda m, modulus: real(m, modulus)[:2] + [[0, 0] + row for row in block])
        # A denominator lattice that is no ideal is a broken invariant, not an argument out of range.
        with pytest.raises(AssertionError, match="not closed"):
            denominator_ideal(get_field(n).from_rational(Fraction(1, den)))


class TestOracleLattice:
    def test_generator_rows_need_not_be_in_hnf(self):
        f = get_field(4)
        # (1 + i) from any integer generators: rows of (1 + i) and i(1 + i) = -1 + i, shuffled.
        ideal = IdealLattice(f, [[-1, 1], [3, 1], [1, 1]], 2)
        assert ideal.basis == [[1, 1], [0, 2]]
        assert ideal == principal(f, f.one() + f.zeta_power(1))

    def test_degree_one_fields(self):
        for n in (1, 2):
            ideal = IdealLattice(get_field(n), [[6], [-4]], 6)
            assert ideal.basis == [[2]]

    @pytest.mark.parametrize("n, gen, basis", [
        (3, (1, -1), [[1, 2], [0, 3]]),  # 1 - z, of norm 3
        (4, (1, 2), [[1, 2], [0, 5]]),  # 1 + 2i, of norm 5
    ])
    def test_principal_of_a_non_rational_generator(self, n, gen, basis):
        # No rational generator, so the HNF runs modulo the norm; the bases are pinned.
        f = get_field(n)
        assert principal(f, CycElement(f, gen)).basis == basis


# -- rendered values pinned at the Fraction-tuple implementation --------


def test_rendered_values_pinned():
    lines = []
    for N in range(1, 25):
        for chi in enumerate_characters(N):
            for k in range(0, 11):
                lines.append(f"{N}:{chi.index()} B{k} {render_cyc(gbn(chi, k))}")
            for k in range(1, 11):
                lines.append(f"{N}:{chi.index()} L{1 - k} {render_cyc(l_value(chi, 1 - k))}")
    lines += [render_cyc(c) for c in eisenstein_coeffs(character_from_index(7, 1), 3, 60)]
    assert len(lines) == 3841
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0da384fb92a8dd895313bff6689124465a63a28d64214f98dc94e678e272e3fc"
