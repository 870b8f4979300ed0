"""Dedekind zeta special values and the J(K) comparison."""

from fractions import Fraction

import pytest

from dirichletj import dedekind
from dirichletj.bernoulli import bernoulli_number, l_value
from dirichletj.characters import char_inv
from dirichletj.dedekind import (
    AbelianFieldSpec,
    field_characters,
    is_totally_real,
    verify_jk,
    zeta_special_value,
)

from exponent_tuples import char_mul


class TestFieldCharacters:
    def test_full_subgroup_gives_trivial(self):
        spec = AbelianFieldSpec(5, (2,))
        chis = field_characters(spec)
        assert len(chis) == 1 and chis[0].is_trivial()

    def test_index_two(self):
        spec = AbelianFieldSpec(5, (4,))
        chis = field_characters(spec)
        assert len(chis) == 2
        assert sorted(c.order() for c in chis) == [1, 2]

    def test_trivial_subgroup(self):
        spec = AbelianFieldSpec(5, ())
        assert len(field_characters(spec)) == 4

    def test_closed_under_inverse_and_product(self):
        spec = AbelianFieldSpec(7, (6,))
        chis = set(field_characters(spec))
        for a in chis:
            assert char_inv(a) in chis
            for b in chis:
                assert char_mul(a, b) in chis


class TestTotallyReal:
    def test_sqrt5(self):
        assert is_totally_real(AbelianFieldSpec(5, (4,)))

    def test_trivial_subgroup_not(self):
        assert not is_totally_real(AbelianFieldSpec(5, ()))

    def test_q(self):
        assert is_totally_real(AbelianFieldSpec(1, ()))


class TestZetaValues:
    def test_q_matches_bernoulli(self):
        spec = AbelianFieldSpec(1, ())
        for t in range(1, 11):
            expected = -bernoulli_number(2 * t) / (2 * t)
            assert zeta_special_value(spec, 1 - 2 * t) == expected

    def test_q_through_larger_level(self):
        # K = Q realized inside Q(zeta_5): primitive representative rules
        # remove the Euler-factor distortion.
        spec = AbelianFieldSpec(5, (2,))
        assert zeta_special_value(spec, -1) == Fraction(-1, 12)

    def test_sqrt5(self):
        spec = AbelianFieldSpec(5, (4,))
        assert zeta_special_value(spec, -1) == Fraction(1, 30)
        assert zeta_special_value(spec, -3) == Fraction(1, 60)

    def test_gaussian_field_vanishes(self):
        spec = AbelianFieldSpec(4, ())
        assert zeta_special_value(spec, -1) == 0

    def test_vanishing_for_non_totally_real(self):
        for N in range(3, 13):
            if N % 4 == 2:
                continue
            spec = AbelianFieldSpec(N, ())
            if is_totally_real(spec):
                continue
            assert zeta_special_value(spec, -1) == 0

    def test_real_cyclotomic_7(self):
        spec = AbelianFieldSpec(7, (6,))
        assert zeta_special_value(spec, -1) == Fraction(-1, 21)


class TestGaloisOrbits:
    @pytest.mark.parametrize("k", [1, 2])
    def test_one_l_value_per_orbit(self, monkeypatch, k):
        # (Z/31)^x is cyclic of order 30: one orbit of characters per divisor of 30.
        calls = []
        monkeypatch.setattr(dedekind, "l_value", lambda chi, s: calls.append(chi) or l_value(chi, s))
        zeta_special_value(AbelianFieldSpec(31, ()), 1 - k)
        assert sorted(chi.order() for chi in calls) == [1, 2, 3, 5, 6, 10, 15, 30]

    def test_a_set_that_is_not_galois_stable_is_refused(self, monkeypatch):
        # The characters of Q(zeta_7)^+ are 1, chi and chi^2 with chi of order 3; without
        # chi^2 the orbit of chi is not covered.
        spec = AbelianFieldSpec(7, (6,))
        chis = field_characters(spec)
        chi = next(c for c in chis if c.order() == 3)
        assert char_mul(chi, chi) in chis
        monkeypatch.setattr(dedekind, "field_characters", lambda _: [c for c in chis if c != char_mul(chi, chi)])
        with pytest.raises(AssertionError, match="Galois orbits"):
            zeta_special_value(spec, -1)


class TestVerifyJK:
    def test_sqrt5(self):
        row = verify_jk(AbelianFieldSpec(5, (4,)), 1)
        assert row["ok"]
        assert row["zeta_value"] == "1/30"
        assert row["arithmetic_side"] == "Z/3 + Z/5"

    def test_q_reduces_to_image_of_j(self):
        for t in (1, 2, 3):
            row = verify_jk(AbelianFieldSpec(1, ()), t)
            assert row["ok"]

    def test_real_cyclotomic7(self):
        for t in (1, 2, 3):
            assert verify_jk(AbelianFieldSpec(7, (6,)), t)["ok"]

    def test_sqrt2(self):
        for t in (1, 2, 3):
            assert verify_jk(AbelianFieldSpec(8, (7,)), t)["ok"]

    def test_not_totally_real_rejected(self):
        with pytest.raises(ValueError):
            verify_jk(AbelianFieldSpec(5, ()), 1)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            verify_jk(AbelianFieldSpec(12, (11,)), 1)
