"""Dedekind zeta special values and the J(K) comparison."""

import hashlib
import json
import math
from fractions import Fraction

import pytest

from dirichletj import characters, dedekind
from dirichletj.bernoulli import bernoulli_number, l_value
from dirichletj.characters import (AbelianField, abelian_field, char_inv, enumerate_characters, field_characters,
                                   unit_subgroup)
from dirichletj.cli import main
from dirichletj.cyclotomic import get_field
from dirichletj.dedekind import verify_jk, zeta_special_value
from dirichletj.exactalg import factorize

from exponent_tuples import char_mul, evaluate


class TestFieldCharacters:
    def test_full_subgroup_gives_trivial(self):
        field = abelian_field(5, (2,))
        chis = field_characters(field)
        assert len(chis) == 1 and chis[0].is_trivial()

    def test_index_two(self):
        field = abelian_field(5, (4,))
        chis = field_characters(field)
        assert len(chis) == 2
        assert sorted(c.order() for c in chis) == [1, 2]

    def test_trivial_subgroup(self):
        field = abelian_field(5, ())
        assert len(field_characters(field)) == 4

    def test_x_is_every_character_trivial_on_h_f_in_index_order(self):
        # The brute-force route: evaluate every character mod f on every element of H_f.
        fields = {abelian_field(N, gens) for N in range(1, 65)
                  for gens in [()] + [(u,) for u in range(N) if math.gcd(u, N) == 1]}
        assert len(fields) == 256
        for field in fields:
            expected = tuple(chi for chi in enumerate_characters(field.conductor)
                             if all(evaluate(chi, h) == get_field(chi.order()).one() for h in field.subgroup))
            assert field_characters(field) == expected, field

    def test_closed_under_inverse_and_product(self):
        field = abelian_field(7, (6,))
        chis = set(field_characters(field))
        for a in chis:
            assert char_inv(a) in chis
            for b in chis:
                assert char_mul(a, b) in chis


class TestFieldValue:
    def test_presentations_of_one_field_are_one_value(self):
        assert abelian_field(1, ()) == abelian_field(2, ()) == abelian_field(9, (2,)) == abelian_field(8, (3, 5)) \
            == AbelianField(1, (0,))
        assert abelian_field(4, ()) == abelian_field(8, (5,)) == AbelianField(4, (1,))
        assert abelian_field(12, (7,)) == abelian_field(3, ()) == AbelianField(3, (1,))
        assert abelian_field(25, (4,)) == abelian_field(5, (4,)) == AbelianField(5, (1, 4))
        assert abelian_field(8, (7,)) == AbelianField(8, (1, 7)) != abelian_field(8, (3,))
        assert len({abelian_field(9, (2,)), abelian_field(5, (2,)), abelian_field(1, ())}) == 1

    def test_galois_group_at_a_level_is_the_preimage_of_h_f(self):
        assert abelian_field(9, (2,)).galois_group(9) == [1, 2, 4, 5, 7, 8]
        assert abelian_field(1, ()).galois_group(1) == [0] and abelian_field(2, ()).galois_group(2) == [1]
        assert abelian_field(25, (4,)).galois_group(25) == sorted(unit_subgroup(25, (4,)))
        assert abelian_field(12, (7,)).galois_group(12) == [1, 7]

    def test_one_cold_call_builds_h_once_and_x_once(self, capsys, monkeypatch):
        # Built per call site, H took eight builds and X three for this call.
        honest, built = characters.unit_subgroup, []
        monkeypatch.setattr(characters, "unit_subgroup", lambda N, gens: built.append((N, gens)) or honest(N, gens))
        characters.field_characters.cache_clear()
        assert main(["dedekind", "--modulus", "5", "--subgroup", "4", "--weight", "2", "--verify-t", "1"]) == 0
        assert "-> ok" in capsys.readouterr().out
        assert built == [(5, (4,))] and characters.field_characters.cache_info().misses == 1
        characters.field_characters.cache_clear()

    def test_homotopy_jk_never_builds_x(self, capsys):
        characters.field_characters.cache_clear()
        assert main(["homotopy", "jk", "--modulus", "13", "--subgroup", "3", "--from", "1", "--to", "4"]) == 0
        capsys.readouterr()
        assert characters.field_characters.cache_info().misses == 0


class TestTotallyReal:
    def test_sqrt5(self):
        assert abelian_field(5, (4,)).is_totally_real()

    def test_trivial_subgroup_not(self):
        assert not abelian_field(5, ()).is_totally_real()

    def test_q(self):
        assert abelian_field(1, ()).is_totally_real()


class TestZetaValues:
    def test_q_matches_bernoulli(self):
        field = abelian_field(1, ())
        for t in range(1, 11):
            expected = -bernoulli_number(2 * t) / (2 * t)
            assert zeta_special_value(field, 1 - 2 * t) == expected

    def test_q_through_larger_level(self):
        # K = Q presented inside Q(zeta_5) is read at its conductor 1: no Euler factor at 5.
        field = abelian_field(5, (2,))
        assert zeta_special_value(field, -1) == Fraction(-1, 12)

    def test_sqrt5(self):
        field = abelian_field(5, (4,))
        assert zeta_special_value(field, -1) == Fraction(1, 30)
        assert zeta_special_value(field, -3) == Fraction(1, 60)

    def test_gaussian_field_vanishes(self):
        field = abelian_field(4, ())
        assert zeta_special_value(field, -1) == 0

    def test_vanishing_for_non_totally_real(self):
        for N in range(3, 13):
            if N % 4 == 2:
                continue
            field = abelian_field(N, ())
            if field.is_totally_real():
                continue
            assert zeta_special_value(field, -1) == 0

    def test_real_cyclotomic_7(self):
        field = abelian_field(7, (6,))
        assert zeta_special_value(field, -1) == Fraction(-1, 21)


class TestGaloisOrbits:
    @pytest.mark.parametrize("k", [1, 2])
    def test_one_l_value_per_orbit(self, monkeypatch, k):
        # (Z/31)^x is cyclic of order 30: one orbit of characters per divisor of 30.
        calls = []
        monkeypatch.setattr(dedekind, "l_value", lambda chi, s: calls.append(chi) or l_value(chi, s))
        zeta_special_value(abelian_field(31, ()), 1 - k)
        assert sorted(chi.order() for chi in calls) == [1, 2, 3, 5, 6, 10, 15, 30]

    def test_a_set_that_is_not_galois_stable_is_refused(self, monkeypatch):
        # The characters of Q(zeta_7)^+ are 1, chi and chi^2 with chi of order 3; without
        # chi^2 the orbit of chi is not covered.
        field = abelian_field(7, (6,))
        chis = field_characters(field)
        chi = next(c for c in chis if c.order() == 3)
        assert char_mul(chi, chi) in chis
        monkeypatch.setattr(dedekind, "field_characters", lambda _: [c for c in chis if c != char_mul(chi, chi)])
        with pytest.raises(AssertionError, match="Galois orbits"):
            zeta_special_value(field, -1)


class TestVerifyJK:
    def test_sqrt5(self):
        row = verify_jk(abelian_field(5, (4,)), 1)
        assert row["ok"]
        assert row["zeta_value"] == "1/30"
        assert row["arithmetic_side"] == "Z/3 + Z/5"

    def test_q_reduces_to_image_of_j(self):
        for t in (1, 2, 3):
            row = verify_jk(abelian_field(1, ()), t)
            assert row["ok"]

    def test_real_cyclotomic7(self):
        for t in (1, 2, 3):
            assert verify_jk(abelian_field(7, (6,)), t)["ok"]

    def test_sqrt2(self):
        for t in (1, 2, 3):
            assert verify_jk(abelian_field(8, (7,)), t)["ok"]

    def test_not_totally_real_rejected(self):
        with pytest.raises(ValueError):
            verify_jk(abelian_field(5, ()), 1)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            verify_jk(abelian_field(12, (11,)), 1)


def _at_own_conductor(N, H):
    """Whether no proper divisor M of N has every unit = 1 mod M inside H."""
    units = [u for u in range(N) if math.gcd(u, N) == 1]
    return all(any(u % M == 1 % M and u not in H for u in units) for M in range(1, N) if N % M == 0)


class TestPinnedOutputs:
    """The printed Dedekind values and J(K) rows, hashed, as the CLI prints them."""

    def test_dedekind_json_up_to_40(self, capsys):
        # Every N <= 40 with H trivial or generated by one unit, at weights 1-3.
        lines = []
        for N in range(1, 41):
            for gens in [[]] + [[str(u)] for u in range(N) if math.gcd(u, N) == 1]:
                for k in (1, 2, 3):
                    assert main(["dedekind", "--modulus", str(N), *(["--subgroup", *gens] if gens else []),
                                 "--weight", str(k), "--json"]) == 0
                    lines.append(capsys.readouterr().out)
        assert len(lines) == 1590
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
            "f766e755fa2e30c482de6584e56b59399bde2f7e42c7d1a64c8ca2e27b701391")

    def test_dedekind_json_at_the_largest_modulus(self, capsys):
        # The call with the largest tables of chi's values: 49999 is prime, so every nontrivial
        # character of the field is primitive there, and its table holds 49998 units.
        assert main(["dedekind", "--modulus", "49999", "--subgroup", "2", "--json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "02198250db104041c792991126b0866beac22d928583a6edc57a99afbfb3d92d")

    def test_verify_jk_rows_of_totally_real_fields_at_their_conductor(self, capsys):
        # N = 1 and the prime powers <= 49, H trivial or generated by one unit, -1 in H,
        # and no proper divisor of N a level of the same field; t <= 3.
        lines = []
        for N in [1] + [N for N in range(2, 50) if len(factorize(N)) == 1]:
            for gens in [()] + [(u,) for u in range(N) if math.gcd(u, N) == 1]:
                H = unit_subgroup(N, gens)
                if not (N <= 2 or N - 1 in H) or not _at_own_conductor(N, H):
                    continue
                for t in (1, 2, 3):
                    code = main(["dedekind", "--modulus", str(N), *(["--subgroup", str(*gens)] if gens else []),
                                 "--verify-t", str(t), "--json"])
                    row = json.loads(capsys.readouterr().out)["verify_jk"]
                    lines.append(f"{code}:{json.dumps(row, sort_keys=True)}")
        assert len(lines) == 276
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "026e109e894504a954ee23df6322afe310ef2cffcfa59137f607d69291cb4f31")
