"""Group expressions and the homotopy tables of the twisted J-spectra."""

import hashlib
import random
from collections import Counter

import pytest

from dirichletj import homotopy
from dirichletj.characters import InputError, char_inv, enumerate_characters, is_primitive, parity
from dirichletj.exactalg import AbelianGroupExpr, factorize
from dirichletj.homotopy import (
    check_duality_JN,
    check_duality_dirichlet,
    decompose_p,
    invert_primes,
    pi_DK1,
    pi_DK1_primed,
    pi_J,
    pi_JK,
    pi_JN,
    pi_K1,
    pi_K1_pv,
    pi_exotic,
    pi_jn_chi,
    pi_jn_chi_paths,
)
from dirichletj.padic import PAdicCharacterData, PrimeToPPart

A = AbelianGroupExpr


def primitive_chars(N):
    return [c for c in enumerate_characters(N) if is_primitive(c) and not c.is_trivial()]


class TestGroupExpr:
    def test_normalization_idempotent_crt(self):
        rng = random.Random(2)
        samples = list(range(2, 200)) + [rng.randint(200, 10**4) for _ in range(300)]
        for m in samples:
            g = A.cyclic(m)
            # re-normalizing (direct sum with zero) changes nothing
            assert g + A.zero() == g
            # CRT: total order preserved, atoms are prime powers
            assert g.order() == m
            for kind, p, e in g.atoms:
                assert kind == "C"
                fac = factorize(m)
                assert fac[p] == e

    def test_cyclic_is_shared_and_matches_the_smith_diagonal_route(self):
        # cyclic(m) is memoized; a repeat call returns the same group, and every group
        # equals the one from_invariants builds for the diagonal (m).
        for m in range(1, 3000):
            g = A.cyclic(m)
            assert A.cyclic(m) is g and g == A.from_invariants([m]) and g.atoms == A.from_invariants([m]).atoms

    def test_equality_is_multiset(self):
        assert A.cyclic(6) == A.cyclic(2) + A.cyclic(3)
        assert A.cyclic(24) == A.cyclic(8) + A.cyclic(3)
        assert A.cyclic(4) != A.cyclic(2) + A.cyclic(2)

    def test_render(self):
        assert A.zero().render() == "0"
        assert A.free(1).render() == "Z"
        assert A.free(2).render() == "Z^2"
        assert A.padic(5).render() == "Z_5"
        assert A.cyclic(24).render() == "Z/8 + Z/3"
        assert A.q_mod_z().render() == "Q/Z"
        assert invert_primes(A.q_mod_z(), {2, 3}).render() == "Q/Z[1/6]"
        assert (A.free(1) + A.cyclic(2)).render() == "Z + Z/2"

    def test_normal_order_of_a_mixed_multiset_is_pinned(self):
        # Kind first (Z, Z_p, Q/Z, Z/p^e), then the fields: the prime, the inverted primes, (p, e).
        atoms = [("C", 5, 2), ("QZ", (2, 3)), ("Z",), ("C", 2, 3), ("Zp", 5), ("C", 2, 1), ("QZ", ()), ("Zp", 2),
                 ("C", 3, 1), ("Z",), ("QZ", (2,)), ("C", 2, 1), ("Zp", 5), ("C", 3, 2), ("QZ", ())]
        expected = (("Z",), ("Z",), ("Zp", 2), ("Zp", 5), ("Zp", 5), ("QZ", ()), ("QZ", ()), ("QZ", (2,)),
                    ("QZ", (2, 3)), ("C", 2, 1), ("C", 2, 1), ("C", 2, 3), ("C", 3, 1), ("C", 3, 2), ("C", 5, 2))
        rendered = "Z^2 + Z_2 + Z_5^2 + Q/Z + Q/Z + Q/Z[1/2] + Q/Z[1/6] + Z/2 + Z/2 + Z/8 + Z/3 + Z/9 + Z/25"
        rng = random.Random(7)
        for _ in range(20):
            g = A.direct_sum(A((a,)) for a in rng.sample(atoms, len(atoms)))
            assert g.atoms == expected and g.render() == rendered
        assert (A((atoms[0],)) + A(tuple(atoms[1:]))).atoms == expected

    def test_invert_primes(self):
        assert invert_primes(A.cyclic(24), {2}) == A.cyclic(3)
        assert invert_primes(A.cyclic(5), {2}) == A.cyclic(5)
        assert invert_primes(A.free(1) + A.padic(2), {2}) == A.free(1)
        assert invert_primes(A.cyclic(12), set()) == A.cyclic(12)
        localized = invert_primes(A.q_mod_z(), {2})
        assert localized.atoms[0][0] == "QZ" and localized.atoms[0][1] == (2,)

    def test_invert_primes_rejects_a_non_prime(self):
        with pytest.raises(InputError, match="4 is not prime"):
            invert_primes(A.cyclic(12), {4})

    def test_parts(self):
        infinite = A.free(2) + A.padic(3) + A.q_mod_z() + invert_primes(A.q_mod_z(), {2})
        g = infinite + A.cyclic(12) + A.cyclic(2)
        assert g.finite_part() == A.cyclic(12) + A.cyclic(2)
        assert g.free_rank() == 2 and g.q_mod_z_count() == 2
        assert A.cyclic(6).free_rank() == 0 and A.free(1).q_mod_z_count() == 0
        # without() drops every copy of each atom of its argument.
        assert g.without(A.cyclic(2)) == infinite + A.cyclic(12)
        assert g.without(A.cyclic(6) + A.free(1)) == infinite.without(A.free(1)) + A.cyclic(4)
        assert g.without(A.zero()) == g and A.zero().without(g) == A.zero()


class TestUntwistedTables:
    def test_pi_j_spec_rows(self):
        assert pi_J(0) == A.free(1) + A.cyclic(2)
        assert pi_J(3) == A.cyclic(24)
        assert pi_J(-2) == A.q_mod_z()
        assert pi_J(7) == A.cyclic(240)
        assert pi_J(1) == A.cyclic(2) + A.cyclic(2)
        assert pi_J(2) == A.cyclic(2)
        assert pi_J(-1).is_zero() and pi_J(4).is_zero()
        assert pi_J(-5) == A.cyclic(24)  # Z/D_{|2k|} at negative degrees

    def test_pi_jn_spec_rows(self):
        assert pi_JN(4, 3) == A.cyclic(24)  # D_{2,4} = 4*24/(2*2)
        assert pi_JN(12, 1) == A.cyclic(12)
        assert pi_JN(4, 1) == A.cyclic(4)
        assert pi_JN(4, 0) == A.free(1)

    def test_pi_jn_level1_is_pi_j(self):
        for i in range(-12, 30):
            assert pi_JN(1, i) == pi_J(i)

    def test_pi_jn_even_reduction(self):
        for i in range(-8, 20):
            assert pi_JN(6, i) == pi_JN(3, i)

    def test_pi_k1(self):
        assert pi_K1(3, 3) == A.cyclic(3)
        assert pi_K1(2, 1) == A.cyclic(2) + A.cyclic(2)
        assert pi_K1(3, 0) == A.padic(3)
        assert pi_K1(2, 0) == A.padic(2) + A.cyclic(2)
        assert pi_K1(5, 2 * 4 * 5 - 1) == A.cyclic(25)  # k = 5: v_5(5)+1 = 2

    def test_pi_k1_pv(self):
        assert pi_K1_pv(3, 2, 5) == A.cyclic(27)  # k = 3: Z/3^(v_3(3)+2)
        assert pi_K1_pv(3, 1, 5) == A.cyclic(9)  # k = 3: Z/3^(v_3(3)+1)
        assert pi_K1_pv(3, 2, 0) == A.padic(3)
        with pytest.raises(ValueError):
            pi_K1_pv(2, 1, 3)

    def test_pi_k1_rejects_non_prime(self):
        for p in (0, 1, 4, 9, 15):
            with pytest.raises(ValueError):
                pi_K1(p, 3)
            with pytest.raises(ValueError):
                pi_K1_pv(p, 1, 3)

    def test_pi_exotic(self):
        assert pi_exotic(0) == A.padic(2)
        assert pi_exotic(5 + 8) == A.cyclic(2) + A.cyclic(2)
        assert pi_exotic(4) == A.cyclic(2)
        assert pi_exotic(3) == A.cyclic(2 ** 3)


class TestDirichletK1:
    def test_conductor_p_stripe(self):
        data = PAdicCharacterData(p=5, v=1, tame=2)
        assert pi_DK1(data, 3) == A.cyclic(5)  # k = 2, 4 | (2-2)
        assert pi_DK1(data, 1).is_zero()  # k = 1, 4 does not divide -1
        assert pi_DK1(data, 2 * 3 - 1).is_zero()  # k = 3, 4 does not divide 1
        assert pi_DK1(data, 2 * 10 - 1) == A.cyclic(25)  # k = 10: v_5(10)+1 = 2
        assert pi_DK1(data, 2 * 6 - 1) == A.cyclic(5)  # k = 6: 4 | 4

    def test_conductor_pv(self):
        data = PAdicCharacterData(p=3, v=2, tame=1)
        assert pi_DK1(data, 1) == A.cyclic(3)  # k = 1 = a mod 2
        assert pi_DK1(data, 2 * 3 - 1) == A.cyclic(3)
        assert pi_DK1(data, 2 * 2 - 1).is_zero()

    def test_conductor4(self):
        data = PAdicCharacterData(p=2, v=2, tame=1)
        assert pi_DK1(data, 5) == A.cyclic(4)
        assert pi_DK1(data, 2) == A.cyclic(2)
        assert pi_DK1(data, 3) == A.cyclic(2) + A.cyclic(2)

    def test_contractible_non_p_power_image(self):
        data = PAdicCharacterData(p=3, v=1, tame=1, prime_to_p=PrimeToPPart(11, 0, False))
        for i in range(-8, 16):
            assert pi_DK1(data, i).is_zero()

    def test_self_duality_symmetry(self):
        # The predicate pi_{2k-1} != 0 is invariant under (k, a) -> (-k, -a),
        # and the orders match through v_p(k) = v_p(-k).
        for p in (3, 5, 7):
            for a in range(1, p - 1):
                data = PAdicCharacterData(p=p, v=1, tame=a)
                dual = PAdicCharacterData(p=p, v=1, tame=(p - 1 - a) % (p - 1))
                for k in range(-30, 31):
                    if k == 0:
                        continue
                    assert pi_DK1(data, 2 * k - 1) == pi_DK1(dual, 2 * (-k) - 1)

    def test_primed_tables(self):
        d4 = PAdicCharacterData(p=2, v=2, tame=1)
        assert pi_DK1_primed(d4, 1) == A.cyclic(4)
        d8even = PAdicCharacterData(p=2, v=3, tame=0)
        assert pi_DK1_primed(d8even, 5) == A.cyclic(2) + A.cyclic(2)
        # Agreement with the unprimed tables in degrees 2k-1 of matching parity.
        for v, eps in ((2, 1), (3, 0), (3, 1), (4, 0)):
            data = PAdicCharacterData(p=2, v=v, tame=eps)
            for k in range(-10, 11):
                if (-1) ** k != (1 if eps == 0 else -1):
                    continue
                assert pi_DK1(data, 2 * k - 1) == pi_DK1_primed(data, 2 * k - 1)

    def test_primed_rejects_odd_primes(self):
        with pytest.raises(ValueError):
            pi_DK1_primed(PAdicCharacterData(p=3, v=1, tame=1), 1)


class TestDecompose:
    def test_quad5_at5(self):
        chi = enumerate_characters(5)[2]
        summands = decompose_p(chi, 5)
        assert len(summands) == 1
        assert summands[0].tame == 2 and summands[0].v == 1 and summands[0].prime_to_p is None

    def test_order4_mod5_at5(self):
        chi = enumerate_characters(5)[1]
        summands = decompose_p(chi, 5)
        assert sorted(s.tame for s in summands) == [1, 3]

    def test_odd4_at2(self):
        chi = enumerate_characters(4)[1]
        summands = decompose_p(chi, 2)
        assert len(summands) == 1 and summands[0].tame == 1 and summands[0].v == 2

    def test_quad5_at2(self):
        chi = enumerate_characters(5)[2]
        (s,) = decompose_p(chi, 2)
        assert s.v == 0 and s.prime_to_p == PrimeToPPart(5, 1, True)

    def test_imprimitive_rejected(self):
        with pytest.raises(ValueError):
            decompose_p(enumerate_characters(8)[2], 2)  # conductor 4 lift

    def test_returned_list_is_the_callers_own(self):
        chi = enumerate_characters(5)[1]
        first = decompose_p(chi, 5)
        want = list(first)
        first.append(first[0])
        first[0] = PAdicCharacterData(p=5, v=0, tame=0)
        second = decompose_p(chi, 5)
        assert second == want and second is not first
        second.clear()
        assert decompose_p(chi, 5) == want


def _digest(lines):
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestPinnedOutputs:
    """Every rendered value on two fixed grids, hashed: work saved across degrees
    or characters must leave each of these bytes as it was."""

    def test_paths_up_to_conductor_64(self):
        lines = []
        for N in range(3, 65):
            for chi in primitive_chars(N):
                for i in range(-16, 41):
                    direct, assembled = pi_jn_chi_paths(chi, i)
                    lines.append(f"{N}:{chi.index()}:{i}:{direct.render()}|{assembled.render()}")
        assert _digest(lines) == (43092, "a6fd278f5e465deb91c8dabfe612977b9072c0a66d2358488c3ffa7e6e74c6fd")

    def test_duality_rows_on_the_verify_grid(self):
        # The grid of `verify duality-dirichlet`: p in {3, 5, 7} with v <= 2, 2^v with v = 2..4, t in [-20, 20].
        pairs = [(p, v) for p in (3, 5, 7) for v in (1, 2)] + [(2, v) for v in (2, 3, 4)]
        lines = [f"{p}:{v}:{chi.index()}:{row['t']}:{row['lhs']}|{row['rhs']}|{row['ok']}"
                 for p, v in pairs for chi in primitive_chars(p**v)
                 for row in check_duality_dirichlet(chi, v, range(-20, 21))]
        assert _digest(lines) == (2952, "71af56413a9647c3f79d2a4641516de8918b0e574e2486cbd93cca2a2ab2057e")


class TestPiJNChi:
    def test_conductor4(self):
        chi = enumerate_characters(4)[1]
        assert pi_jn_chi(chi, 5) == A.cyclic(4)
        assert pi_jn_chi(chi, 1) == A.cyclic(4)

    def test_quad5_inverted(self):
        chi = enumerate_characters(5)[2]
        assert pi_jn_chi(chi, 3, {2}) == A.cyclic(5)
        assert pi_jn_chi(chi, 3) == A.cyclic(5) + A.cyclic(2) + A.cyclic(2)

    def test_conductor9_kernel_rows(self):
        for chi in primitive_chars(9):
            d = 2 if parity(chi) == -1 else 1
            for k in range(-6, 7):
                if k == 0:
                    continue
                value = pi_jn_chi(chi, 2 * k - 1)
                from dirichletj.characters import kernel_order_match, tame_order

                expected = (
                    A.cyclic(3) if kernel_order_match(k, 3, tame_order(chi, 3)) else A.zero()
                )
                assert value == expected

    def test_two_path_sample(self):
        for N in (5, 7, 12, 13, 15, 16, 20, 21, 24):
            for chi in primitive_chars(N):
                for i in range(-6, 15):
                    direct, assembled = pi_jn_chi_paths(chi, i)
                    assert direct == assembled

    def test_assembly_equals_summand_by_summand_sum(self):
        # The assembly reads only the summands that can be nonzero in degree i;
        # adding every p-completed summand one at a time must give the same
        # expression.  Conductors <= 64 and |i| <= 40 reach negative k,
        # k = 0 (mod p - 1) and v_p(k) >= 1 at p = 3, 5 and 7.
        for N in range(3, 65):
            for chi in primitive_chars(N):
                primes = sorted(set(factorize(N)) | set(factorize(chi.order())))
                summands = [s for p in primes for s in decompose_p(chi, p)]
                every_degree, index = homotopy._assembly_summands(chi)
                planned = [*every_degree, *(s for _, eigen in index for group in eigen.values() for s in group)]
                dropped = [s for s in summands if s.prime_to_p is not None and not s.prime_to_p.image_is_p_power]
                assert Counter(planned + dropped) == Counter(summands)
                for i in range(-40, 41):
                    folded = A.zero()
                    for s in summands:
                        folded = folded + pi_DK1(s, i)
                    assembled = pi_jn_chi_paths(chi, i)[1]
                    assert assembled == folded and assembled.atoms == folded.atoms

    def test_contractible_double_squared_conductor(self):
        # v_l(N) >= 2 for two primes: identically zero.
        for chi in primitive_chars(36):
            for i in range(-8, 25):
                assert pi_jn_chi(chi, i).is_zero()

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            pi_jn_chi(enumerate_characters(5)[0], 3)

    def test_rejection_is_not_cached(self):
        # An error is raised on every call, not only the first one.
        for chi in (enumerate_characters(8)[2], enumerate_characters(5)[0]):  # conductor 4 lift; trivial
            for _ in range(2):
                with pytest.raises(InputError):
                    pi_jn_chi_paths(chi, 3)


class TestPiJK:
    def test_full_subgroup_recovers_localized_j(self):
        # H = (Z/5)^x: J(5)^(hH) agrees with J after inverting |H| = 4.
        for i in [j for j in range(-9, 20) if j not in (0, -1, -2)]:
            lhs = pi_JK(5, (2,), i, invert_G=True)
            rhs = invert_primes(pi_J(i), {2})
            assert lhs == rhs

    def test_sqrt5(self):
        assert pi_JK(5, (4,), 3, invert_G=True) == A.cyclic(15)
        assert pi_JK(5, (4,), 2, invert_G=True).is_zero()

    def test_degenerate_degrees_rejected(self):
        with pytest.raises(ValueError):
            pi_JK(5, (4,), 0)

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            pi_JK(12, (11,), 3)


class TestDuality:
    def test_dirichlet_odd_example(self):
        chi = enumerate_characters(5)[2]
        rows = check_duality_dirichlet(chi, 1, [3])
        assert rows[0]["ok"] and rows[0]["lhs"] == "Z/5"

    def test_dirichlet_conductor4(self):
        chi = enumerate_characters(4)[1]
        rows = check_duality_dirichlet(chi, 2, [1])
        assert rows[0]["ok"] and rows[0]["lhs"] == "Z/4"

    def test_dirichlet_conductor8_even(self):
        chi = [c for c in primitive_chars(8) if parity(c) == 1][0]
        rows = check_duality_dirichlet(chi, 3, [1])
        assert rows[0]["ok"] and rows[0]["lhs"] == "Z/2 + Z/2"

    def test_jn_strict(self):
        rows = check_duality_JN(4, [3, 1, 5])
        assert all(r["ok"] for r in rows)
        by_t = {r["t"]: r for r in rows}
        assert by_t[3]["lhs"] == "Z/8 + Z/3" and by_t[3]["rhs"] == "Z/8 + Z/3"
        assert by_t[1]["lhs"] == "Z/4"

    def test_jn_lax_notes(self):
        rows = check_duality_JN(5, range(-10, 11))
        assert all(r["ok"] for r in rows)
        assert any(r.get("note") == "z2-slack" for r in rows)

    def test_jn_degenerate_flagged(self):
        rows = check_duality_JN(4, [0, -2])
        assert all(r["ok"] and r.get("note") == "degenerate-convention" for r in rows)

    def test_wrong_v_rejected(self):
        chi = enumerate_characters(5)[2]
        with pytest.raises(ValueError):
            check_duality_dirichlet(chi, 2, [1])
