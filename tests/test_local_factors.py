"""Local factors, the prime-to-p part and the tame data of a character,
checked against the evaluation algorithm: chi is evaluated on CRT lifts of
local generators and each local character is rebuilt from those values.

The reference reads nothing of the layout of the exponent tuple; it only
evaluates chi, so it shares no code with what it checks: the slicing of
``prime_to_p_order`` and of the test helper ``factor_local``, and the
weights that ``qualifying_prime`` reads.
"""

import itertools
import math
from collections import Counter
from functools import lru_cache

import pytest

from dirichletj.characters import (
    DirichletCharacter,
    _value_exponent,
    ell_of_chi,
    enumerate_characters,
    get_structure,
    is_primitive,
    prime_to_p_order,
    qualifying_prime,
    tame_order,
    unit_subgroup,
)
from dirichletj.cyclotomic import padic_splitting
from dirichletj.exactalg import factorize
from dirichletj.homotopy import decompose_p
from dirichletj.padic import PAdicCharacterData

from exponent_tuples import factor_local

MODULI = list(range(1, 301)) + [720, 1000, 2 * 3 * 5 * 7 * 11]


def crt(residue: int, M: int, N: int) -> int:
    """x = residue mod M and x = 1 mod N/M, for M | N coprime to N/M."""
    other = N // M
    x = residue + M * ((1 - residue) * pow(M, -1, other) % other) if other > 1 else residue
    assert x % M == residue % M and x % other == 1 % other
    return x % N


def valuation(k: int, p: int) -> int:
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v


def restrict_by_evaluation(chi: DirichletCharacter, M: int) -> DirichletCharacter:
    """The character mod M that chi induces on the units that are 1 mod N/M."""
    N, n = chi.modulus, chi.order()
    st = get_structure(M)
    exps = []
    for _, _, g, order in st.generators:
        t = _value_exponent(chi, crt(g, M, N))
        assert t * order % n == 0
        exps.append(t * order // n % order)
    return DirichletCharacter(st, tuple(exps))


@lru_cache(maxsize=None)
def smallest_primitive_root(q: int) -> int:
    phi = sum(1 for a in range(1, q) if math.gcd(a, q) == 1)
    for g in range(2, q):
        if math.gcd(g, q) == 1 and all(pow(g, e, q) != 1 for e in range(1, phi)):
            return g
    raise AssertionError(f"no primitive root mod {q}")


def tame_value_exponent(chi: DirichletCharacter, p: int) -> int:
    """t with chi(T) = zeta_n^t for the canonical tame generator T at p: the
    Teichmuller lift g^(p^(v-1)) of the smallest primitive root g mod p^v,
    and -1 at p = 2."""
    N = chi.modulus
    v = valuation(N, p)
    q = p**v
    if p == 2:
        return _value_exponent(chi, crt(q - 1, q, N))
    g = smallest_primitive_root(q)
    return _value_exponent(chi, crt(pow(g, p ** (v - 1), q), q, N))


def characters_up_to_300():
    for N in MODULI:
        yield from enumerate_characters(N)


def test_factor_local_and_prime_to_p_part_match_evaluation():
    checked = 0
    for chi in characters_up_to_300():
        N = chi.modulus
        fac = factorize(N)
        local = factor_local(chi)
        assert sorted(local) == sorted(fac)
        for p, v in fac.items():
            assert local[p] == restrict_by_evaluation(chi, p**v)
            assert prime_to_p_order(chi, p) == restrict_by_evaluation(chi, N // p**v).order()
            checked += 1
        assert prime_to_p_order(chi, 7 if N % 7 else 13 if N % 13 else 17) == chi.order()
    assert checked > 50_000


def test_tame_order_matches_evaluation():
    for chi in characters_up_to_300():
        n = chi.order()
        for p in factorize(chi.modulus):
            if p == 2 and chi.modulus % 4:
                assert tame_order(chi, 2) == 1
                continue
            t = tame_value_exponent(chi, p)
            assert tame_order(chi, p) == n // math.gcd(t, n)
        assert tame_order(chi, 293 if chi.modulus % 293 else 283) == 1


@lru_cache(maxsize=None)
def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, math.isqrt(q) + 1)))


def test_qualifying_prime_matches_evaluation():
    # For each prime ell of ord(chi), the prime-to-ell part is chi restricted by evaluation to
    # the units that are 1 mod ell^(v_ell(N)); at most one has an image of order ell^n, n >= 1.
    kinds = Counter()
    for chi in characters_up_to_300():
        if not is_primitive(chi):
            continue
        N, found = chi.modulus, []
        for ell in prime_divisors(chi.order()):
            m = restrict_by_evaluation(chi, N // ell ** valuation(N, ell)).order()
            n = valuation(m, ell)
            if n and m == ell**n:
                found.append((ell, n))
        assert len(found) <= 1, (N, chi.index(), found)
        assert qualifying_prime(chi) == (found[0] if found else None), (N, chi.index())
        prime_power = len(prime_divisors(N)) <= 1
        if prime_power:
            assert ell_of_chi(chi) == (found[0][0] if found else 1), (N, chi.index())
        kinds[prime_power, bool(found), bool(found) and N % found[0][0] == 0] += 1
    # Both kinds of conductor, with and without a qualifying prime, and ell | N at mixed ones.
    assert {(True, False, False), (True, True, False), (False, False, False),
            (False, True, False), (False, True, True)} <= set(kinds), kinds


def expected_decomposition(chi: DirichletCharacter, p: int) -> list[PAdicCharacterData]:
    """One summand per Galois coset, with the n >= 1 of |image chi'| = p^n; none unless that image is a nontrivial p-power."""
    N, n = chi.modulus, chi.order()
    v = valuation(N, p)
    wild = None
    if N > p**v:
        m = restrict_by_evaluation(chi, N // p**v).order()
        wild = valuation(m, p)
        if not (wild >= 1 and m == p**wild):
            return []
    if v == 0:
        a0 = 0
    elif p == 2:
        a0 = 1 if tame_value_exponent(chi, 2) else 0
    else:
        # chi(T) = zeta_n^t is a (p-1)-th root of unity zeta_(p-1)^a0.
        t = tame_value_exponent(chi, p)
        assert t * (p - 1) % n == 0
        a0 = t * (p - 1) // n % (p - 1)
    return [
        PAdicCharacterData(p=p, v=v, tame=a0 if p == 2 else b * a0 % (p - 1), prime_to_p=wild)
        for b in padic_splitting(n, p)
    ]


def test_decompose_p_matches_evaluation():
    checked = 0
    for N in range(3, 121):
        for chi in enumerate_characters(N):
            if chi.is_trivial() or not is_primitive(chi):
                continue
            for p in sorted(set(factorize(N)) | set(factorize(chi.order()))):
                assert decompose_p(chi, p) == expected_decomposition(chi, p), (N, chi.index(), p)
                checked += 1
    assert checked > 5_000


def brute_subgroup(N: int, gens: tuple[int, ...]) -> set[int]:
    """Every product of powers g_1^k_1 ... g_r^k_r mod N with 0 <= k_i < N."""
    powers = [{pow(g, k, N) for k in range(N)} for g in gens]
    return {math.prod(xs) % N for xs in itertools.product(*powers)}


def test_unit_subgroup_matches_brute_force():
    for N in range(2, 41):
        units = [a for a in range(1, N) if math.gcd(a, N) == 1]
        for gens in [()] + [(a,) for a in units] + list(itertools.combinations(units, 2))[:40]:
            assert unit_subgroup(N, gens) == (brute_subgroup(N, gens) if gens else {1})
    assert unit_subgroup(1, ()) == {0}
    assert unit_subgroup(1, (5,)) == {0}
    assert unit_subgroup(13, (-1,)) == {1, 12}


@pytest.mark.parametrize("N, gens", [(12, (5, 4)), (9, (3,)), (10, (0,))])
def test_unit_subgroup_rejects_non_units(N, gens):
    with pytest.raises(ValueError, match="not a unit mod"):
        unit_subgroup(N, gens)
