"""Group expressions and the homotopy tables of the twisted J-spectra."""

import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dirichletj import characters, exactalg, homotopy
from dirichletj.characters import (InputError, abelian_field, char_inv, enumerate_characters, is_primitive, parity,
                                   unit_subgroup)
from dirichletj.exactalg import AbelianGroupExpr, factorize
from dirichletj.homotopy import (
    check_duality_JN,
    check_duality_dirichlet,
    decompose_p,
    invert_primes,
    pi_DK1,
    pi_JK,
    pi_JN,
    pi_K1,
    pi_K1_pv,
    pi_exotic,
    pi_jn_chi,
    pi_jn_chi_paths,
)
from dirichletj.padic import PAdicCharacterData, PrimeToPPart, quotient_oracle, quotient_oracle_2

A = AbelianGroupExpr

_PRIMES = st.sampled_from([2, 3, 5, 7, 11])
_CYCLIC_ATOMS = st.tuples(st.just("C"), _PRIMES, st.integers(1, 6))
_INVERTED = st.lists(_PRIMES, max_size=3, unique=True).map(lambda ps: tuple(sorted(ps)))
_ATOMS = st.one_of(_CYCLIC_ATOMS, st.just(("Z",)), st.tuples(st.just("Zp"), _PRIMES), st.tuples(st.just("QZ"), _INVERTED))


def _reference_render(atoms):
    """Each run of equal atoms in order, counted: Z^k and Z_p^k once, Q/Z and Z/p^e once per copy."""
    runs = []
    for a in atoms:
        if runs and runs[-1][0] == a:
            runs[-1][1] += 1
        else:
            runs.append([a, 1])
    parts = []
    for a, k in runs:
        if a[0] in ("Z", "Zp"):
            base = "Z" if a[0] == "Z" else f"Z_{a[1]}"
            parts.append(base if k == 1 else f"{base}^{k}")
        else:
            one = f"Z/{a[1] ** a[2]}" if a[0] == "C" else "Q/Z" + (f"[1/{math.prod(a[1])}]" if a[1] else "")
            parts += [one] * k
    return " + ".join(parts) or "0"


def primitive_chars(N):
    return [c for c in enumerate_characters(N) if is_primitive(c) and not c.is_trivial()]


def _primed(data, i):
    # The primed (exotic Moore-model) 2-adic table: the unprimed one four degrees down.
    return pi_DK1(data, i - 4)


class TestGroupExpr:
    def test_normalization_idempotent_crt(self):
        rng = random.Random(2)
        samples = list(range(2, 200)) + [rng.randint(200, 10**4) for _ in range(300)]
        for m in samples:
            g = A.cyclic(m)
            # re-normalizing (direct sum with zero) changes nothing
            assert g + A.zero() == g
            # CRT: atoms are the prime powers of m, and every prime of m is present
            fac = factorize(m)
            for kind, p, e in g.atoms:
                assert kind == "C"
                assert fac[p] == e
            assert math.prod(p**e for _, p, e in g.atoms) == m

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

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.lists(_CYCLIC_ATOMS, max_size=8), st.lists(_ATOMS, max_size=8)))
    def test_normal_form_and_rendering_match_the_keyed_sort_and_a_reference(self, atoms):
        # The keyless sort of an all-cyclic list and the cached rendering are fast paths of the keyed sort
        # and of the run-length rendering.
        normal = tuple(sorted(atoms, key=exactalg._atom_key))
        assert exactalg._norm(atoms) == normal
        assert A.direct_sum(A((a,)) for a in atoms).render() == _reference_render(normal)

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
        # J is the level-1 J-spectrum.
        assert pi_JN(1, 0) == A.free(1) + A.cyclic(2)
        assert pi_JN(1, 3) == A.cyclic(24)
        assert pi_JN(1, -2) == A.q_mod_z()
        assert pi_JN(1, 7) == A.cyclic(240)
        assert pi_JN(1, 1) == A.cyclic(2) + A.cyclic(2)
        assert pi_JN(1, 2) == A.cyclic(2)
        assert pi_JN(1, -1).is_zero() and pi_JN(1, 4).is_zero()
        assert pi_JN(1, -5) == A.cyclic(24)  # Z/D_{|2k|} at negative degrees

    def test_pi_jn_spec_rows(self):
        assert pi_JN(4, 3) == A.cyclic(24)  # D_{2,4} = 4*24/(2*2)
        assert pi_JN(12, 1) == A.cyclic(12)
        assert pi_JN(4, 1) == A.cyclic(4)
        assert pi_JN(4, 0) == A.free(1)

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
        data = PAdicCharacterData(p=3, v=1, tame=1, prime_to_p=PrimeToPPart(0, False))
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
        assert _primed(d4, 1) == A.cyclic(4)
        d8even = PAdicCharacterData(p=2, v=3, tame=0)
        assert _primed(d8even, 5) == A.cyclic(2) + A.cyclic(2)
        # Agreement with the unprimed tables in degrees 2k-1 of matching parity.
        for v, eps in ((2, 1), (3, 0), (3, 1), (4, 0)):
            data = PAdicCharacterData(p=2, v=v, tame=eps)
            for k in range(-10, 11):
                if (-1) ** k != (1 if eps == 0 else -1):
                    continue
                assert pi_DK1(data, 2 * k - 1) == _primed(data, 2 * k - 1)

    @pytest.mark.parametrize("table, v, tame, row", [
        (_primed, 2, 1, ["Z/2", "Z/4", "0", "0", "0", "Z/4", "Z/2", "Z/2 + Z/2"]),
        (_primed, 3, 0, ["0", "0", "0", "Z/2", "Z/2", "Z/2 + Z/2", "Z/2", "Z/2"]),
        (_primed, 3, 1, ["Z/2", "Z/2", "0", "0", "0", "Z/2", "Z/2", "Z/2 + Z/2"]),
        (pi_DK1, 3, 0, ["Z/2", "Z/2 + Z/2", "Z/2", "Z/2", "0", "0", "0", "Z/2"]),
        (pi_DK1, 3, 1, ["0", "Z/2", "Z/2", "Z/2 + Z/2", "Z/2", "Z/2", "0", "0"]),
    ])
    def test_one_period_of_the_2_power_tables(self, table, v, tame, row):
        # The rows of the hand-written tables that the shifts by 4 (primed) and by 2 (odd)
        # replaced, i = 0..7; the tables are periodic mod 8, so one period pins every degree.
        data = PAdicCharacterData(p=2, v=v, tame=tame)
        for m in (-3, 0, 2):
            assert [table(data, 8 * m + r).render() for r in range(8)] == row


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
        assert s.v == 0 and s.prime_to_p == PrimeToPPart(1, True)

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

    def test_paths_on_larger_prime_and_4q_conductors(self):
        # Prime conductors 67..131 (ell-wedges up to ell = 53, at p = 107), then conductors 4q.
        levels = [p for p in range(67, 132) if exactalg.is_prime(p)] + [4 * q for q in (17, 19, 23, 29, 31)]
        lines = []
        for N in levels:
            for chi in primitive_chars(N):
                for i in range(-20, 41):
                    direct, assembled = pi_jn_chi_paths(chi, i)
                    lines.append(f"{N}:{chi.index()}:{i}:{direct.render()}|{assembled.render()}")
        assert _digest(lines) == (87291, "c1c07e36ceb7c16a40b16636370a4cf78bf4a699b6f92cc8956ebadab1740db8")

    def test_direct_plans_and_ell_up_to_conductor_199(self):
        # The repr of every direct plan, and ell(chi) where the conductor is a prime power.
        lines = []
        for N in range(3, 200):
            prime_power = len(factorize(N)) == 1
            for chi in primitive_chars(N):
                ell = f":{characters.ell_of_chi(chi)}" if prime_power else ""
                lines.append(f"{N}:{chi.index()}:{homotopy._direct_plan(chi)!r}{ell}")
        assert _digest(lines) == (7484, "bbe0a6c32af2f527fa3007ed91c3c5aae9f87332df79e666c8a72540478f3db6")

    def test_duality_rows_on_the_verify_grid(self):
        # The grid of `verify duality-dirichlet`: p in {3, 5, 7} with v <= 2, 2^v with v = 2..4, t in [-20, 20].
        pairs = [(p, v) for p in (3, 5, 7) for v in (1, 2)] + [(2, v) for v in (2, 3, 4)]
        lines = [f"{p}:{v}:{chi.index()}:{row['t']}:{row['lhs']}|{row['rhs']}|{row['ok']}"
                 for p, v in pairs for chi in primitive_chars(p**v)
                 for row in check_duality_dirichlet(chi, v, range(-20, 21))]
        assert _digest(lines) == (2952, "71af56413a9647c3f79d2a4641516de8918b0e574e2486cbd93cca2a2ab2057e")

    def test_jk_on_cyclic_subgroups_up_to_32(self):
        # N = 1 or a prime power <= 32, H trivial or generated by one unit, both invert_G settings.
        # Each presentation is read at its conductor f: the 8960 rows of the 128 presentations
        # with f = N hash as they did when every presentation was read at N.
        levels = [1] + [N for N in range(2, 33) if len(factorize(N)) == 1]
        presentations = [(N, gens) for N in levels for gens in [()] + [(u,) for u in range(N) if math.gcd(u, N) == 1]]

        def lines(subset):
            return [f"{N}:{list(gens)}:{i}:{inv}:{pi_JK(abelian_field(N, gens), i, inv).render()}"
                    for N, gens in subset for i in range(-13, 25) if i not in (0, -1, -2) for inv in (False, True)]

        assert _digest(lines(presentations)) == (17010, "8f51c3203831d471f230e2bd4353d3dffcd7474b15c2bcc3a745f811c74de2a6")
        at_conductor = [(N, gens) for N, gens in presentations if abelian_field(N, gens).conductor == N]
        assert _digest(lines(at_conductor)) == (8960, "8e46e6ae1c8801481ee934931075c9287e0aafd19f00a50e421c5341108c12c4")

    def test_jn_duality_rows_up_to_64(self):
        lines = [f"{N}:{row['t']}:{row['lhs']}|{row['rhs']}|{row['ok']}|{row.get('note')}"
                 for N in range(1, 65) for row in check_duality_JN(N, range(-40, 41))]
        assert _digest(lines) == (5184, "f7a004ad013f7c2e0f83dfda8fa4d227aa692cccc58a516ba4000c268a09f6e6")

    def test_duality_rows_on_prime_power_conductors(self):
        # Conductors 2^v (v <= 7), 3^v (v <= 4), 5^v (v <= 3) and 7^v (v <= 2), t in [-40, 40].
        pairs = [(2, v) for v in range(2, 8)] + [(3, v) for v in range(1, 5)] + \
                [(5, v) for v in range(1, 4)] + [(7, v) for v in (1, 2)]
        lines = [f"{p}:{v}:{chi.index()}:{row['t']}:{row['lhs']}|{row['rhs']}|{row['ok']}"
                 for p, v in pairs for chi in primitive_chars(p**v)
                 for row in check_duality_dirichlet(chi, v, range(-40, 41))]
        assert _digest(lines) == (20736, "8278a15342c08894a174b131ba92539c2632c8f9adefbe6e020656ed4cd3a344")

    def test_j_up_to_degree_2000(self):
        # J is the level-1 J-spectrum.
        lines = [f"{i}:{pi_JN(1, i).render()}" for i in range(-2000, 2001)]
        assert _digest(lines) == (4001, "5249d5550de8037f9e4b506d8517df0f77bb9b2e05af855f048aec59700c8fda")

    def test_oracle_quotients(self):
        # Every tame exponent a at p in {3, 5, 7, 11}, v in {2, 3}, t in [-30, 30].
        lines = [f"{p}:{v}:{a}:{t}:{quotient_oracle(p, v, a, t).render()}"
                 for p in (3, 5, 7, 11) for v in (2, 3) for a in range(p - 1) for t in range(-30, 31)]
        assert _digest(lines) == (2684, "a3db6c2c011ade6bbdd2d166bbb47291123332513144deff04741da671a2b36a")

    def test_2_adic_oracle_quotients(self):
        lines = [f"{v}:{t}:{quotient_oracle_2(v, t).render()}" for v in (3, 4, 5, 6) for t in range(-30, 31)]
        assert _digest(lines) == (244, "c8531f9d0875238abaf391e4fabac57eee1ec3ba0232cbca07f8fc52cd7c1057")

    def test_decompositions_up_to_conductor_100(self):
        # Every prime dividing the conductor or the order of each primitive nontrivial chi.
        lines = [f"{N}:{chi.index()}:{p}:{decompose_p(chi, p)!r}" for N in range(3, 101) for chi in primitive_chars(N)
                 for p in sorted(set(factorize(N)) | set(factorize(chi.order())))]
        assert _digest(lines) == (5253, "43fbd504fa29c27a5ca55f4f498a567c5c3c59317044dce7effeb7923e8aec84")


class TestPiJNChi:
    def test_conductor4(self):
        chi = enumerate_characters(4)[1]
        assert pi_jn_chi(chi, 5) == A.cyclic(4)
        assert pi_jn_chi(chi, 1) == A.cyclic(4)

    @pytest.mark.parametrize("modulus", [4, 7])
    def test_conductor_4_and_p_read_the_wedge(self, monkeypatch, modulus):
        # Conductor 4 and the p-part at conductor p (7:1 has order 6) are suspended wedges:
        # a wrong wedge must show up as a disagreement with the assembly.
        monkeypatch.setattr(homotopy, "_direct_wedge", lambda q, w, t, i: A.cyclic(3))
        with pytest.raises(AssertionError, match="direct table and assembly disagree"):
            pi_jn_chi(enumerate_characters(modulus)[1], 1)

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


def _field_key(N, gens):
    """(f, H_f) by brute force: the least M | N with every unit = 1 mod M in H, and H mod f."""
    H = unit_subgroup(N, gens)
    units = [u for u in range(N) if math.gcd(u, N) == 1]
    f = min(M for M in range(1, N + 1) if N % M == 0 and all(u in H for u in units if u % M == 1 % M))
    return f, frozenset(h % f for h in H)


class TestPiJK:
    def test_full_subgroup_is_j(self):
        # H = (Z/5)^x: K = Q, so J(K) is J itself, with or without inverting |H_f| = 1.
        field = abelian_field(5, (2,))
        for i in [j for j in range(-9, 20) if j not in (0, -1, -2)]:
            assert pi_JK(field, i) == pi_JK(field, i, invert_G=True) == pi_JN(1, i)

    def test_sqrt5(self):
        assert pi_JK(abelian_field(5, (4,)), 3, invert_G=True) == A.cyclic(15)
        assert pi_JK(abelian_field(5, (4,)), 2, invert_G=True).is_zero()

    def test_degenerate_degrees_rejected(self):
        # -2 too: for K = Q it holds the divisible Q/Z of pi_*(J), which the assembly leaves out.
        for i in (0, -1, -2):
            with pytest.raises(InputError, match="degrees 0, -1 and -2 are not represented"):
                pi_JK(abelian_field(5, (4,)), i)

    def test_non_prime_power_rejected(self):
        # (12, <11>) is Q(sqrt 3), of conductor 12; (12, <7>), of conductor 3, is read (test_cli).
        with pytest.raises(InputError, match="^N must be 1 or a prime power in this release$"):
            pi_JK(abelian_field(12, (11,)), 3)

    def test_one_table_per_field(self):
        # N = 1 and the prime powers <= 49, H trivial or generated by one unit, grouped by
        # (f, H_f) computed by brute force: every presentation of one field prints one table.
        # Read at N instead, 14 of the 85 fields printed two or more.
        levels = [1] + [N for N in range(2, 50) if len(factorize(N)) == 1]
        tables, count = {}, 0
        for N in levels:
            for gens in [()] + [(u,) for u in range(N) if math.gcd(u, N) == 1]:
                field = abelian_field(N, gens)
                table = [pi_JK(field, i, inv).render() for i in range(1, 25) for inv in (False, True)]
                tables.setdefault(_field_key(N, gens), set()).add(tuple(table))
                count += 1
        assert (count, len(tables)) == (454, 85)
        assert all(len(group) == 1 for group in tables.values())

    def test_subgroup_is_built_once_per_table(self, monkeypatch):
        # H is built once per presentation and the per-field data once per field, so a degree
        # costs the same whatever |H| is; (64, <3>) is (32, <3>) at its conductor 32.
        honest, built = characters.unit_subgroup, []
        monkeypatch.setattr(characters, "unit_subgroup", lambda N, gens: built.append(N) or honest(N, gens))
        characters.abelian_field.cache_clear()
        homotopy._jk_setup.cache_clear()
        assert homotopy._jk_setup.cache_info().maxsize == 1024
        presentations = ((32, (3,)), (32, (3,)), (64, (3,)), (32, (5,)))
        tables = [[pi_JK(abelian_field(N, gens), i, True).render() for i in range(1, 40)] for N, gens in presentations]
        assert built == [32, 64, 32] and tables[0] == tables[1] == tables[2] != tables[3]
        assert homotopy._jk_setup.cache_info().misses == 2
        characters.abelian_field.cache_clear()
        homotopy._jk_setup.cache_clear()


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

    def test_every_2_adic_row_passes_the_two_path_check(self, monkeypatch):
        # The duality rows read pi_jn_chi at p = 2 as at odd p, so a direct table that
        # disagrees with the assembly stops the row.
        monkeypatch.setattr(homotopy, "_pi_jnchi_direct", lambda chi, i: A.cyclic(3))
        chi = [c for c in primitive_chars(8) if parity(c) == 1][0]
        with pytest.raises(AssertionError, match="direct table and assembly disagree"):
            check_duality_dirichlet(chi, 3, [1])

    def test_wrong_v_rejected(self):
        chi = enumerate_characters(5)[2]
        with pytest.raises(ValueError):
            check_duality_dirichlet(chi, 2, [1])
