"""Dirichlet character enumeration, evaluation, and structure."""

import copy
import hashlib
import math
import pickle

import pytest

from dirichletj import characters
from dirichletj.characters import (
    InputError,
    _value_exponent,
    abelian_field,
    char_inv,
    character_from_index,
    conductor,
    ell_of_chi,
    enumerate_characters,
    get_structure,
    is_primitive,
    kernel_order_match,
    parity,
    primitivize,
    tame_order,
    value_classes,
)
from dirichletj.cyclotomic import get_field
from dirichletj import exactalg
from dirichletj.exactalg import _multiplicative_order, euler_phi

from exponent_tuples import char_mul, char_pow, evaluate, factor_local


def quad5():
    return enumerate_characters(5)[2]


def odd4():
    return enumerate_characters(4)[1]


class TestEnumeration:
    def test_n1(self):
        chis = enumerate_characters(1)
        assert len(chis) == 1 and chis[0].is_trivial()

    def test_n4(self):
        chis = enumerate_characters(4)
        assert len(chis) == 2
        assert chis[0].is_trivial()
        assert evaluate(chis[1], 3) == get_field(2).from_rational(-1)

    def test_n9(self):
        chis = enumerate_characters(9)
        assert len(chis) == 6
        assert sum(1 for c in chis if is_primitive(c)) == 4

    def test_counts(self):
        for N in range(1, 40):
            assert len(enumerate_characters(N)) == euler_phi(N)

    def test_index_roundtrip(self):
        for N in (5, 8, 12, 16):
            for chi in enumerate_characters(N):
                assert character_from_index(N, chi.index()) == chi


class TestInterning:
    def test_equal_lookups_return_the_identical_character(self):
        for N, i in ((1, 0), (5, 2), (40, 7), (40, 15), (97, 50)):
            chi = character_from_index(N, i)
            assert character_from_index(N, i) is chi and chi.index() == i and chi.modulus == N

    def test_interned_characters_equal_the_enumeration(self):
        for N in range(1, 61):
            chis = enumerate_characters(N)
            shared = [character_from_index(N, i) for i in range(len(chis))]
            assert shared == chis and [hash(c) for c in shared] == [hash(c) for c in chis]
            assert all(character_from_index(N, i) is c for i, c in enumerate(shared))

    @pytest.mark.parametrize("roundtrip", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_round_trips_give_an_equal_character_with_the_same_hash(self, roundtrip):
        for N, i in ((1, 0), (12, 3), (40, 7)):
            chi = character_from_index(N, i)
            back = roundtrip(chi)
            assert back == chi and hash(back) == hash(chi) and back.index() == i
            assert character_from_index(N, i) is chi

    def test_an_out_of_range_index_raises_on_every_call(self):
        for N, i in ((5, 4), (5, -1), (1, 1), (12, 4)):
            for _ in range(3):
                with pytest.raises(InputError, match="character index out of range"):
                    character_from_index(N, i)
        with pytest.raises(InputError, match="modulus must be positive"):
            character_from_index(0, 0)
        assert character_from_index(5, 3).index() == 3


class TestEvaluation:
    def test_trivial(self):
        chi = enumerate_characters(12)[0]
        for a in (1, 5, 7, 11):
            assert evaluate(chi, a) == get_field(1).one()

    def test_quadratic_mod5_brute(self):
        chi = quad5()
        # Brute-force oracle: 2^2 = 4 != 1 and 2^4 = 16 = 1 mod 5, so 2 is a
        # non-residue and chi(2) = -1.
        assert pow(2, 2, 5) != 1 and pow(2, 4, 5) == 1
        assert evaluate(chi, 2) == get_field(2).from_rational(-1)

    def test_zero_marker(self):
        for chi in enumerate_characters(12):
            assert evaluate(chi, 6) is None

    def test_multiplicative(self):
        for N in (5, 8, 9, 12):
            for chi in enumerate_characters(N):
                field = get_field(chi.order())
                for a in range(1, N):
                    for b in range(1, N):
                        if math.gcd(a * b, N) != 1:
                            continue
                        assert evaluate(chi, a * b) == evaluate(chi, a) * evaluate(chi, b)

    def test_orthogonality(self):
        for N in (4, 5, 9, 12):
            for chi in enumerate_characters(N):
                field = get_field(chi.order())
                acc = field.zero()
                for a in range(1, N + 1):
                    v = evaluate(chi, a)
                    if v is not None:
                        acc = acc + v
                if chi.is_trivial():
                    assert acc == field.from_rational(euler_phi(N))
                else:
                    assert acc.is_zero()


def test_value_classes_match_evaluate():
    # The classes are disjoint, cover the units in [1, N], and each column entry is a coordinate
    # of chi's value on its class.
    for N in range(1, 61):
        units = [a for a in range(1, N + 1) if math.gcd(a, N) == 1]
        for chi in enumerate_characters(N):
            table = value_classes(chi)
            assert sorted(table.units) == units, (N, chi.index())
            assert table.bounds[0] == 0 and table.bounds[-1] == len(units)
            assert len(table.columns) == get_field(chi.order()).degree
            vecs = list(zip(*table.columns))
            assert len(vecs) == len(table.bounds) - 1 == len(set(vecs)), (N, chi.index())
            for vec, lo, hi in zip(vecs, table.bounds, table.bounds[1:]):
                assert lo < hi and all(evaluate(chi, a).nums == vec for a in table.units[lo:hi]), (N, chi.index())


class TestConductor:
    def test_trivial_mod12(self):
        assert conductor(enumerate_characters(12)[0]) == 1

    def test_mod8_lift_of_mod4(self):
        lifted = [c for c in enumerate_characters(8) if conductor(c) == 4]
        assert len(lifted) == 1
        assert parity(lifted[0]) == -1

    def test_quadratic_mod5(self):
        assert conductor(quad5()) == 5 and is_primitive(quad5())

    def test_primitivize(self):
        for N in (8, 12, 16):
            for chi in enumerate_characters(N):
                prim = primitivize(chi)
                assert prim.modulus == conductor(chi)
                assert is_primitive(prim)
                assert prim.order() == chi.order()

    def test_field_conductor_is_the_lcm_of_its_character_conductors(self):
        # A second route to f: list the characters mod N trivial on H by brute force over the
        # powers of the generator, and take the lcm of their conductors (Washington, ch. 3).
        cases = 0
        for N in range(1, 65):
            chis = enumerate_characters(N)
            units = [u for u in range(N) if math.gcd(u, N) == 1]
            for gens in [()] + [(u,) for u in units]:
                H = {pow(gens[0], k, N) for k in range(N)} if gens else {1 % N}
                X = [chi for chi in chis if all(_value_exponent(chi, h) == 0 for h in H)]
                assert math.lcm(*map(conductor, X)) == abelian_field(N, gens).conductor, (N, gens)
                cases += 1
        assert cases == 1324

    def test_conductor_of_product_divides_lcm(self):
        for N in (8, 12, 15):
            chis = enumerate_characters(N)
            for a in chis:
                for b in chis:
                    lcm = conductor(a) * conductor(b) // math.gcd(conductor(a), conductor(b))
                    assert lcm % conductor(char_mul(a, b)) == 0


class TestParity:
    def test_trivial(self):
        assert parity(enumerate_characters(5)[0]) == 1

    def test_odd_mod4(self):
        assert parity(odd4()) == -1

    def test_quadratic_mod5(self):
        assert parity(quad5()) == 1

    def test_parity_is_the_value_at_minus_one(self):
        # parity reads the exponent tuple; the reference evaluates chi(N - 1) from the generators' powers.
        checked = 0
        for N in range(1, 301):
            for chi in enumerate_characters(N):
                one = get_field(chi.order()).one()
                value = evaluate(chi, N - 1)
                assert value == (one if parity(chi) == 1 else -one), (N, chi.index())
                checked += 1
        assert checked == 27_398


class TestGroupStructure:
    def test_inverse(self):
        for N in (5, 9, 16):
            for chi in enumerate_characters(N):
                assert char_mul(chi, char_inv(chi)).is_trivial()

    def test_quadratic_self_inverse(self):
        assert char_inv(quad5()) == quad5()

    def test_power_order(self):
        chi = [c for c in enumerate_characters(7) if c.order() == 6][0]
        assert char_pow(chi, 3).order() == 2

    def test_closed_under_multiplication(self):
        for N in (8, 9, 12):
            chis = set(enumerate_characters(N))
            for a in chis:
                for b in chis:
                    assert char_mul(a, b) in chis

    def test_galois_twist_invariants(self):
        for N in (5, 7, 9, 13):
            for chi in enumerate_characters(N):
                n = chi.order()
                for b in range(1, n + 1):
                    if math.gcd(b, n) != 1:
                        continue
                    twist = char_pow(chi, b)
                    assert conductor(twist) == conductor(chi)
                    assert parity(twist) == parity(chi)
                    kernel = {a for a in range(1, N + 1) if evaluate(chi, a) == get_field(n).one()}
                    kernel_t = {
                        a for a in range(1, N + 1) if evaluate(twist, a) == get_field(twist.order()).one()
                    }
                    assert kernel == kernel_t


class TestLocalFactorization:
    def test_prime_modulus(self):
        chi = quad5()
        assert factor_local(chi) == {5: chi}

    def test_n12_split(self):
        chi = [c for c in enumerate_characters(12) if is_primitive(c)][0]
        local = factor_local(chi)
        assert conductor(local[2]) == 4 and conductor(local[3]) == 3

    def test_trivial_splits_trivially(self):
        local = factor_local(enumerate_characters(12)[0])
        assert all(part.is_trivial() for part in local.values())

    def test_conductor_product(self):
        for N in (12, 15, 20, 24):
            for chi in enumerate_characters(N):
                prod = 1
                for part in factor_local(chi).values():
                    prod *= conductor(part)
                assert prod == conductor(chi)


class TestEll:
    def test_quadratic_mod5(self):
        assert ell_of_chi(quad5()) == 2

    def test_order4_mod5(self):
        chi = enumerate_characters(5)[1]
        assert chi.order() == 4 and ell_of_chi(chi) == 2

    def test_order6_mod7(self):
        chi = [c for c in enumerate_characters(7) if c.order() == 6][0]
        assert ell_of_chi(chi) == 1

    def test_p_power_image_excluded(self):
        # Conductor 9 with image of order 3: ell = p is not allowed, so 1.
        chi = [c for c in enumerate_characters(9) if is_primitive(c) and c.order() == 3][0]
        assert ell_of_chi(chi) == 1

    def test_composite_conductor_rejected(self):
        chi = [c for c in enumerate_characters(12) if is_primitive(c)][0]
        with pytest.raises(InputError, match="^conductor is not a prime power$"):
            ell_of_chi(chi)


@pytest.mark.parametrize("call, message", [
    (lambda: characters.primitive_root(1), "p must be an odd prime"),
    (lambda: characters.primitive_root(2), "p must be an odd prime"),
    (lambda: characters.unit_subgroup(0, (1,)), "N must be positive"),
])
def test_unit_group_helpers_refuse_arguments_out_of_range(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


class TestKernelMatch:
    def test_spec_examples(self):
        assert kernel_order_match(2, 5, 2) is True
        assert kernel_order_match(2, 5, 4) is False
        assert kernel_order_match(0, 5, 1) is True

    @pytest.mark.parametrize("args, message", [
        ((1, 2, 1), "p must be an odd prime"),
        ((1, 9, 2), "p must be an odd prime"),
        ((1, 7, 4), "tame order must divide p - 1"),
        ((1, 5, 0), "tame order must divide p - 1"),
    ])
    def test_arguments_out_of_range_raise_input_error(self, args, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            kernel_order_match(*args)

    def test_against_explicit_kernels(self):
        # Enumerate kernels in (Z/p)^x directly.
        for p in (5, 7, 11):
            g = next(x for x in range(2, p) if all(pow(x, (p - 1) // q, p) != 1 for q in _prime_divs(p - 1)))
            for d in _divisors(p - 1):
                ker_chi = {pow(g, d * j, p) for j in range((p - 1) // d)}
                for k in range(p - 1):
                    ker_omega_k = {a for a in range(1, p) if pow(a, _order_of_power(k, p), p) == 1}
                    ker_omega_k = {pow(g, j, p) for j in range(p - 1) if (j * k) % (p - 1) == 0}
                    assert kernel_order_match(k, p, d) == (ker_omega_k == ker_chi)


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


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _order_of_power(k, p):
    return (p - 1) // math.gcd(k, p - 1)


class TestStructure:
    def test_canonical_generators_verified(self):
        st = get_structure(25)
        (p, v, g, order) = st.generators[0]
        assert (p, v, order) == (5, 2, 20)
        assert g % 25 == 2  # smallest primitive root mod 25

    def test_two_power_generators(self):
        st = get_structure(16)
        gens = [(g % 16, o) for (_, _, g, o) in st.generators]
        assert gens == [(15, 2), (5, 4)]

    def test_totient_identity_inclusion_exclusion(self):
        for n in range(1, 501):
            primes = sorted(_prime_divs(n))
            total = n
            for mask in range(1, 1 << len(primes)):
                prod = 1
                bits = 0
                for i, p in enumerate(primes):
                    if mask >> i & 1:
                        prod *= p
                        bits += 1
                total += (-1) ** bits * (n // prod)
            assert total == euler_phi(n)
            assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)

    def test_tame_order(self):
        assert tame_order(quad5(), 5) == 2
        chi9 = [c for c in enumerate_characters(9) if is_primitive(c) and c.order() == 3][0]
        assert tame_order(chi9, 3) == 1
        chi9b = [c for c in enumerate_characters(9) if is_primitive(c) and c.order() == 6][0]
        assert tame_order(chi9b, 3) == 2


# ---------------------------------------------------------------------------
# conductor against a brute-force scan kept here


def _brute_dlogs(st):
    """Every unit mod N as a product of the generators, with its exponents."""
    N = st.modulus
    out = {1 % N: ()}
    for _, _, g, order in st.generators:
        out = {(a * pow(g, d, N)) % N: exps + (d,) for a, exps in out.items() for d in range(order)}
    return out


def _brute_conductor(chi, dlogs):
    """Smallest M | N such that chi(a) = 1 for every unit a = 1 mod M."""
    N = chi.modulus
    orders = [g[3] for g in chi.structure.generators]
    lcm = math.lcm(*orders) if orders else 1

    def trivial_at(a):
        return sum(e * d * (lcm // o) for e, d, o in zip(chi.exponents, dlogs[a], orders)) % lcm == 0

    for M in range(1, N + 1):
        if N % M == 0 and all(trivial_at(a) for a in range(1 % M, N, M) if math.gcd(a, N) == 1):
            return M
    raise AssertionError("N itself always works")


@pytest.mark.parametrize("moduli", [range(1, 151), range(151, 301), (128, 243, 720, 1000)],
                         ids=["N<=150", "150<N<=300", "large"])
def test_conductor_matches_brute_force(moduli):
    for N in moduli:
        chis = enumerate_characters(N)
        dlogs = _brute_dlogs(chis[0].structure)
        for chi in chis:
            assert conductor(chi) == _brute_conductor(chi, dlogs), chi


def _factor(n):
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_primitive_counts_are_multiplicative():
    # p - 2 primitive characters mod p, p^v (1 - 1/p)^2 mod p^v for v >= 2.
    for N in range(1, 301):
        want = 1
        for p, v in _factor(N).items():
            want *= p - 2 if v == 1 else p ** (v - 2) * (p - 1) ** 2
        assert sum(1 for chi in enumerate_characters(N) if is_primitive(chi)) == want, N



def test_cold_dlog_table_takes_phi_from_the_structure(monkeypatch):
    # The table for the prime 997 is the 996 powers of its one generator, whose order is read
    # off the unit-group structure, so euler_phi runs only inside get_structure, not once per power.
    calls = []

    def counted(n):
        calls.append(n)
        return euler_phi(n)

    monkeypatch.setattr(characters, "euler_phi", counted)
    characters._dlog_table.cache_clear()
    characters.get_structure.cache_clear()
    table = characters._dlog_table(997)
    assert len(calls) <= 2, len(calls)
    (_, _, g, order), = get_structure(997).generators
    assert order == len(table) == 996
    assert all(pow(g, e, 997) == a for a, (e,) in table.items())


def test_structure_walks_each_generator_once(monkeypatch):
    # smallest_primitive_root walks the order of each odd prime power's root mod its prime; get_structure
    # walks only the fixed generators at 2: -1 and 5 mod 8 here, and the roots mod 9 and 5, walked mod 3 and 5.
    walks = []

    def counted(a, modulus):
        walks.append((a, modulus))
        return _multiplicative_order(a, modulus)

    monkeypatch.setattr(characters, "_multiplicative_order", counted)
    monkeypatch.setattr(exactalg, "_multiplicative_order", counted)
    characters.get_structure.cache_clear()
    structure = get_structure(360)
    assert sorted(walks) == [(2, 3), (2, 5), (5, 8), (7, 8)]
    assert structure.orders == (2, 2, 6, 4)
    characters.get_structure.cache_clear()


def test_generators_up_to_2000_are_pinned():
    # sha256 of the CRT-lifted generators of (Z/N)^x for every N <= 2000, one line "N:generators" each,
    # from the code in which smallest_primitive_root took phi(q) from its caller.
    lines = [f"{N}:{get_structure(N).generators}" for N in range(1, 2001)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "4a8f6e1fbb244fe01c0ec7d4430ee4c7252117c881ebcb777aa51601d94a6205"
