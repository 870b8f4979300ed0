"""Twisted divisor sums, Eisenstein coefficients, congruence checks."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from dirichletj import eisenstein
from dirichletj.bernoulli import denom_ideal, gbn
from dirichletj.characters import (
    InputError,
    character_from_index,
    enumerate_characters,
    is_primitive,
    parity,
)
from dirichletj.cli import main
from dirichletj.cyclotomic import CycElement, get_field
from dirichletj.eisenstein import congruence_check, eisenstein_coeffs

from exponent_tuples import evaluate
from ideal_oracle import denominator_lattice, ideal_product, ideal_sum, principal


def trivial():
    return character_from_index(1, 0)


def odd4():
    return enumerate_characters(4)[1]


def quad5():
    return enumerate_characters(5)[2]


def divisor_sum_written_here(chi, m, n):
    # Every d <= n is tested, and each term is added as a field element.
    field = get_field(chi.order())
    expected = field.zero()
    for d in range(1, n + 1):
        if n % d == 0 and evaluate(chi, d) is not None:
            expected = expected + evaluate(chi, d) * d**m
    return expected


def sieve_sums(chi, m, n_max):
    """sigma_{m,chi}(n) for 0 <= n <= n_max as ``eisenstein_coeffs`` reads them off its divisor sieve."""
    field = get_field(chi.order())
    return [CycElement(field, row) for row in eisenstein._sigma_rows(chi, m, n_max)]


class TestSigma:
    def test_classical(self):
        assert divisor_sum_written_here(trivial(), 1, 6) == get_field(1).from_rational(12)
        assert sieve_sums(trivial(), 1, 6)[6] == get_field(1).from_rational(12)

    def test_twisted_mod4(self):
        assert divisor_sum_written_here(odd4(), 0, 5) == get_field(2).from_rational(2)
        assert sieve_sums(odd4(), 0, 5)[5] == get_field(2).from_rational(2)

    def test_n1(self):
        for chi in enumerate_characters(8):
            assert divisor_sum_written_here(chi, 3, 1) == get_field(chi.order()).one()
            assert sieve_sums(chi, 3, 1)[1] == get_field(chi.order()).one()

    def test_multiplicative_on_coprime(self):
        for chi in (trivial(), odd4(), quad5()):
            table = sieve_sums(chi, 2, 200)
            for a in range(1, 15):
                for b in range(1, 15):
                    if math.gcd(a, b) != 1 or a * b > 200:
                        continue
                    assert table[a * b] == table[a] * table[b]

    def test_matches_divisor_sum_written_here(self):
        # n_max = 120 up to N = 24, and n_max < N from N = 29 to 60, where the sieve reaches
        # only some of the residues of each class of equal chi(d).
        cases = [(N, (120,)) for N in range(1, 25)] + [(N, (1, 7, N - 1)) for N in range(29, 61)]
        for N, n_maxes in cases:
            for chi in enumerate_characters(N):
                m = chi.index() % 4
                expected = [divisor_sum_written_here(chi, m, n) for n in range(max(n_maxes) + 1)]
                for n_max in n_maxes:
                    table = sieve_sums(chi, m, n_max)
                    assert table[1:] == expected[1:n_max + 1], (N, chi.index(), m, n_max)

    # The largest series a cold `eisenstein` call builds: n_max = 2000, a
    # character of order 4 (field degree 2) and one of field degree 4.
    @pytest.mark.parametrize("modulus, order", [(5, 4), (11, 10)])
    def test_matches_divisor_sum_at_n_max_2000(self, modulus, order):
        chi = next(c for c in enumerate_characters(modulus) if c.order() == order)
        table = sieve_sums(chi, 10, 2000)
        assert len(table) == 2001 and table[0] == get_field(order).zero()
        for n in random.Random(14).sample(range(1, 2001), 50):
            assert table[n] == divisor_sum_written_here(chi, 10, n), n


class TestPinnedOutputs:
    def test_eisenstein_json_up_to_conductor_30(self, capsys):
        # Every primitive chi of conductor 1 or 3..30, each weight <= 6 of chi's parity, and
        # n_max in {1, 7, 40}, with every coefficient shown; the exit code and stdout, hashed.
        lines = []
        for N in [1] + list(range(3, 31)):
            for chi in enumerate_characters(N):
                if not is_primitive(chi):
                    continue
                for k in range(1 if parity(chi) < 0 else 2, 7, 2):
                    for n_max in ("1", "7", "40"):
                        code = main(["eisenstein", "--modulus", str(N), "--index", str(chi.index()),
                                     "--weight", str(k), "--nmax", n_max, "--show-coeffs", n_max, "--json"])
                        lines.append(f"{code}:{capsys.readouterr().out}")
        assert len(lines) == 1512
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
            "9138068d20a369ee983fd4e08e4a6ca59bc891bcd309ad4526b57c7b28ba4492")

    def test_eisenstein_json_at_nmax_20000(self, capsys):
        # The quartic character mod 5 at weight 1, every coefficient up to q^20000 shown.
        code = main(["eisenstein", "--modulus", "5", "--index", "1", "--weight", "1", "--nmax", "20000",
                     "--show-coeffs", "20000", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fc3e6298db37ecb7e17ac4c071a94e299564280ba58615915c779918e4e887cb")


class TestCoefficients:
    def test_classical_weight4(self):
        coeffs = eisenstein_coeffs(trivial(), 4, 3)
        # -8/B_4 = -8/(-1/30) = 240.
        assert coeffs[0] == get_field(1).one()
        assert coeffs[1] == get_field(1).from_rational(240)
        assert coeffs[2] == get_field(1).from_rational(240 * 9)

    def test_odd4_weight1(self):
        coeffs = eisenstein_coeffs(odd4(), 1, 2)
        assert coeffs[1] == get_field(2).from_rational(4)

    def test_parity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            eisenstein_coeffs(odd4(), 2, 5)

    def test_negative_n_max_raises_input_error(self):
        with pytest.raises(InputError, match="^n_max must be nonnegative$"):
            eisenstein_coeffs(odd4(), 1, -1)

    def test_quad5_weight2_factor(self):
        # -4 / B_{2,chi} = -4/(4/5) = -5, so c_n = -5 sigma_{1,chi}(n).
        coeffs = eisenstein_coeffs(quad5(), 2, 4)
        for n in range(1, 5):
            assert coeffs[n] == divisor_sum_written_here(quad5(), 1, n) * Fraction(-5)

    def test_denominators_only_at_normalizing_factor(self):
        for chi, k in ((trivial(), 12), (quad5(), 8), (odd4(), 5)):
            b = gbn(chi, k)
            factor = get_field(chi.order()).from_rational(Fraction(-2 * k)) * b.inverse()
            allowed = factor.den
            for c in eisenstein_coeffs(chi, k, 40)[1:]:
                d = c.den
                # every prime of d divides the normalizing factor's denominator
                while d > 1:
                    g = math.gcd(d, allowed)
                    assert g > 1
                    d //= g


class TestCongruences:
    def test_classical_weight4(self):
        result = congruence_check(trivial(), 4, 200)
        assert result["ok"] and result["full_findings"] == 0
        assert result["ideal_index"] == 240

    def test_odd4_weight1(self):
        result = congruence_check(odd4(), 1, 200)
        assert result["ok"] and result["full_findings"] == 0
        assert result["ideal_index"] == 4

    def test_quad5_weight2(self):
        result = congruence_check(quad5(), 2, 200)
        assert result["ok"] and result["full_findings"] == 0
        assert result["ideal_index"] == 5

    def test_classical_sweep(self):
        for weight in range(2, 21, 2):
            result = congruence_check(trivial(), weight, 200)
            assert result["mandatory_failures"] == 0

    def test_weight12_has_full_findings(self):
        # The 691 in the numerator of B_12 makes E_12 non-integral, so the
        # full-ideal check reports findings while the mandatory one passes.
        result = congruence_check(trivial(), 12, 50)
        assert result["mandatory_failures"] == 0
        assert result["full_findings"] > 0

    def test_imprimitive_rejected(self):
        lifted = [c for c in enumerate_characters(8) if not c.is_trivial() and c.order() == 2][1]
        from dirichletj.characters import is_primitive

        if is_primitive(lifted):
            pytest.skip("enumeration order changed")
        with pytest.raises(ValueError):
            congruence_check(lifted, 1, 5)

    def test_composite_conductor_rejected(self):
        # The mandatory check takes the primary part at the one prime of the conductor.
        chi = character_from_index(12, 3)
        with pytest.raises(InputError, match="the conductor must be 1 or a prime power, got 12"):
            congruence_check(chi, 2, 5)

    @pytest.mark.parametrize("chi, k", [(trivial(), 12), (quad5(), 2), (odd4(), 1)], ids=["1:0", "5:2", "4:1"])
    def test_ideal_index_taken_a_bounded_number_of_times(self, monkeypatch, chi, k):
        calls = []
        original = eisenstein.denominator_invariants
        monkeypatch.setattr(eisenstein, "denominator_invariants", lambda x: calls.append(x) or original(x))
        counts = []
        for n_max in (10, 400):
            calls.clear()
            congruence_check(chi, k, n_max)
            counts.append(len(calls))
        assert counts == [1, 1]


def rows_by_ideal_membership(ideal, N, coeffs):
    """(mandatory_ok, full_ok) for c_1, c_2, ... by membership in ``ideal`` D, for conductor N.

    The mandatory ideal is the conductor-primary component D + (q) of D,
    with q the part of D's index at the conductor's prime (the whole
    index for conductor 1), so its quotient is the q-part of Z[chi]/D.
    A coefficient y/d is in it when d is prime to its index and
    y * (1/d mod index) lies in it.
    """
    field = ideal.field
    q = idx = ideal.index()
    if N > 1:
        p = next(p for p in range(2, N + 1) if N % p == 0)
        prime_to_p = idx
        while prime_to_p % p == 0:
            prime_to_p //= p
        q = idx // prime_to_p
    primary = ideal_sum(ideal, principal(field, field.from_rational(q)))
    modulus = primary.index()
    assert modulus == q
    rows = []
    for c in coeffs[1:]:
        if math.gcd(c.den, modulus) != 1:
            mandatory = False
        else:
            u = pow(c.den, -1, modulus)
            mandatory = primary.contains(CycElement(field, [y * u for y in c.nums]))
        rows.append((mandatory, ideal.contains(c)))
    return rows


def verdicts(result, N):
    """(mandatory_ok, full_ok) for c_1, c_2, ..., read off the denominators of the report's coefficients.

    The mandatory test reads the part of the report's ideal index at the
    conductor's prime (the whole index for conductor 1).
    """
    idx = result["ideal_index"]
    primary = idx if N == 1 else math.gcd(idx, N ** idx.bit_length())
    return [(math.gcd(c.den, primary) == 1, c.den == 1) for c in result["coefficients"][1:]]


def _congruence_grid():
    """(chi, k, n_max): small prime-power conductors, conductor 1 to weight 20, and 37 to k = 40."""
    for N, k_max, n_max in [(1, 20, 30), (3, 8, 20), (4, 8, 20), (5, 8, 20), (7, 6, 20), (8, 6, 10),
                            (9, 6, 10), (11, 4, 10), (13, 4, 10), (16, 4, 10), (25, 3, 5), (37, 40, 1)]:
        for chi in enumerate_characters(N):
            if is_primitive(chi):
                for k in range(1, k_max + 1):
                    if (-1) ** k == parity(chi):
                        yield chi, k, n_max


def test_denominator_tests_agree_with_ideal_membership():
    checked_at_37, failing_at_37 = 0, 0
    for chi, k, n_max in _congruence_grid():
        result = congruence_check(chi, k, n_max)
        assert len(result["coefficients"]) == n_max + 1
        expected = rows_by_ideal_membership(denominator_lattice(denom_ideal(chi, k)), chi.modulus,
                                            result["coefficients"])
        assert verdicts(result, chi.modulus) == expected, (chi.modulus, chi.index(), k)
        assert result["mandatory_failures"] == sum(not ok for ok, _ in expected)
        assert result["full_findings"] == sum(not ok for _, ok in expected)
        if chi.modulus == 37:
            checked_at_37 += 1
            failing_at_37 += not result["ok"]
        if chi.modulus == 1 and k == 12:
            # The 691 in the numerator of B_12 fails the full test only.
            assert result["ok"] and result["full_findings"] == 30
    # At the irregular prime 37 the mandatory test fails on some (chi, k).
    assert (checked_at_37, failing_at_37) == (700, 126)


def test_mandatory_test_reads_only_the_conductor_part_of_the_index(monkeypatch):
    # No coefficient found (prime-power conductors < 130, k <= 40) has a
    # denominator prime that divides the index away from the conductor, so
    # the ideal is scaled by such a prime: c_n for (odd4, 5) has
    # denominator 5, and D * (5) has the same 2-primary component as D = D(x).  x = -5/4 has a 5 in its
    # numerator, so D * (5) is D(x/25).
    result = congruence_check(odd4(), 5, 20)
    x = denom_ideal(odd4(), 5)
    scaled = ideal_product(denominator_lattice(x), principal(get_field(2), 5))
    assert scaled == denominator_lattice(x / 25)
    monkeypatch.setattr(eisenstein, "denom_ideal", lambda chi, k: x / 25)
    scaled_result = congruence_check(odd4(), 5, 20)
    assert scaled_result["ideal_index"] == 5 * result["ideal_index"] == 20
    mandatory = [ok for ok, _ in verdicts(scaled_result, 4)]
    assert mandatory == [ok for ok, _ in verdicts(result, 4)] == [True] * 20
    assert mandatory == [ok for ok, _ in rows_by_ideal_membership(scaled, 4, scaled_result["coefficients"])]
    assert scaled_result["mandatory_failures"] == result["mandatory_failures"] == 0


def test_ideal_index_is_the_product_of_all_invariants(monkeypatch):
    # Every quotient of a prime-power conductor checked so far is cyclic, so the ideal is scaled by 3, inert in
    # Z[i]: D(x) * (3) = D(x/3) has quotient Z/3 + Z/30, whose index is not its largest invariant.
    chi = character_from_index(5, 1)
    result = congruence_check(chi, 1, 20)
    x = denom_ideal(chi, 1)
    scaled = ideal_product(denominator_lattice(x), principal(get_field(4), 3))
    assert scaled == denominator_lattice(x / 3)
    monkeypatch.setattr(eisenstein, "denom_ideal", lambda chi, k: x / 3)
    scaled_result = congruence_check(chi, 1, 20)
    assert scaled_result["ideal_index"] == scaled.index() == 9 * result["ideal_index"] == 90
    mandatory = [ok for ok, _ in verdicts(scaled_result, 5)]
    assert mandatory == [ok for ok, _ in verdicts(result, 5)]
    assert mandatory == [ok for ok, _ in rows_by_ideal_membership(scaled, 5, scaled_result["coefficients"])]
    assert scaled_result["mandatory_failures"] == result["mandatory_failures"] == mandatory.count(False)
