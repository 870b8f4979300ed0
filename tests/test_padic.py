"""Teichmuller lifts, topological generators, and the SNF cohomology oracle."""

import copy
import hashlib
import json
import random

import pytest

from dirichletj import padic
from dirichletj.cyclotomic import cyclotomic_poly
from dirichletj.exactalg import AbelianGroupExpr, InputError, padic_invariant_exponents, times_x_rows
from dirichletj.padic import (
    PAdicCharacterData,
    e2_page,
    quotient_oracle,
    quotient_oracle_2,
    teichmuller,
    topological_generator,
)


class TestTeichmuller:
    def test_fixes_one(self):
        for p in (3, 5, 7):
            assert teichmuller(p, 1, 10) == 1

    def test_omega2_mod25_brute(self):
        # Brute-force oracle: the unique 4th root of unity = 2 mod 5 in Z/25.
        roots = [x for x in range(25) if pow(x, 4, 25) == 1 and x % 5 == 2]
        assert roots == [7]
        assert teichmuller(5, 2, 2) == 7

    def test_root_of_unity_property(self):
        for p in (3, 5, 7, 11):
            for a in range(1, p):
                w = teichmuller(p, a, 8)
                assert pow(w, p - 1, p**8) == 1
                assert w % p == a % p

    def test_multiplicative(self):
        for p in (5, 7):
            for a in range(1, p):
                for b in range(1, p):
                    lhs = teichmuller(p, a * b % p, 6)
                    rhs = teichmuller(p, a, 6) * teichmuller(p, b, 6) % p**6
                    assert lhs == rhs

    def test_divisible_rejected(self):
        with pytest.raises(ValueError):
            teichmuller(5, 10, 4)

    def test_oracle_lifts_once_per_grid(self):
        # The lift of g mod p depends on p and the precision only, not on (a, t): one
        # computation serves the 84 oracle calls of the (5, 3) grid.
        teichmuller.cache_clear()
        calls = 0
        for a in range(4):
            for t in range(-10, 11):
                quotient_oracle(5, 3, a, t)
                calls += 1
        info = teichmuller.cache_info()
        assert (info.misses, info.hits) == (1, calls - 1)


class TestTopologicalGenerator:
    def test_p3(self):
        g = topological_generator(3)
        assert g == 2
        # Oracle: 2 has order 6 = phi(9) mod 9.
        assert sorted(pow(2, j, 9) for j in range(6)) == sorted({pow(2, j, 9) for j in range(6)})
        assert pow(2, 6, 9) == 1 and pow(2, 3, 9) != 1 and pow(2, 2, 9) != 1

    def test_p5(self):
        assert topological_generator(5) == 2
        assert all(pow(2, 20 // q, 25) != 1 for q in (2, 5))

    def test_p2(self):
        assert topological_generator(2) == 5

    def test_a_non_prime_raises_input_error(self):
        with pytest.raises(InputError, match="^p must be prime$"):
            topological_generator(9)

    def test_cache_keeps_the_newest_primes(self, monkeypatch):
        monkeypatch.setattr(padic, "_TOPGENS", 2)
        monkeypatch.setattr(padic, "_TOPGEN_CACHE", {})
        assert [topological_generator(p) for p in (3, 5, 7, 3)] == [2, 2, 3, 2]
        assert padic._TOPGEN_CACHE == {7: 3, 3: 2}

    def test_generators_below_2000_are_pinned(self, monkeypatch):
        # sha256 of {p: topological_generator(p)} as JSON for the 302 odd primes p < 2000, from the
        # code in which smallest_primitive_root took phi(p^2) from its caller.  Each root is
        # verified by walking its phi(p^2) powers, so this takes tens of seconds.
        monkeypatch.setattr(padic, "_TOPGEN_CACHE", {})
        generators = {p: topological_generator(p) for p in range(3, 2000, 2) if all(p % d for d in range(3, p, 2))}
        assert len(generators) == 302
        assert hashlib.sha256(json.dumps(generators).encode()).hexdigest() == \
            "474f2f2e0515400499b21e2f3615245db66bf196e1ccac81de0e2e161bb67e6f"


@pytest.fixture(autouse=True)
def cold_smith_quotient():
    """Every test starts and leaves the elimination cache empty, so a spy or a lying
    elimination patched in by a test sees a fresh elimination of each input."""
    padic._smith_quotient.cache_clear()
    yield
    padic._smith_quotient.cache_clear()


@pytest.fixture
def snf_precisions(monkeypatch):
    """The precision of every Smith elimination the oracle runs, in order."""
    seen = []
    snf = padic.padic_invariant_exponents

    def counted(rows, p, M):
        seen.append(M)
        return snf(rows, p, M)

    monkeypatch.setattr(padic, "padic_invariant_exponents", counted)
    return seen


@pytest.fixture
def snf_rows(monkeypatch):
    """The rows of every Smith elimination the oracle runs, in order."""
    seen = []
    snf = padic.padic_invariant_exponents

    def spy(rows, p, M):
        seen.append(rows)
        return snf(rows, p, M)

    monkeypatch.setattr(padic, "padic_invariant_exponents", spy)
    return seen


class TestQuotientOracle:
    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("v", [2, 3])
    def test_closed_form(self, p, v):
        for a in range(p - 1):
            for t in range(-6, 7):
                got = quotient_oracle(p, v, a, t)
                if (t - a) % (p - 1) == 0:
                    assert got == AbelianGroupExpr.cyclic(p)
                else:
                    assert got.is_zero()

    def test_spec_example(self):
        assert quotient_oracle(3, 2, 1, 3) == AbelianGroupExpr.cyclic(3)

    def test_one_elimination_per_exact_quotient(self, snf_precisions):
        # One elimination, mod p^(v_p(Res) + 1): v_p(Res) is 1 on the Z/p stripe and 0 off it.
        # The cache is cleared for each t, since t = -3 and t = 3 share an input at (3, 2).
        for p, v in ((3, 2), (5, 3)):
            for t in range(-3, 4):
                padic._smith_quotient.cache_clear()
                snf_precisions.clear()
                quotient_oracle(p, v, 1, t)
                assert snf_precisions == [2 if (t - 1) % (p - 1) == 0 else 1]
        snf_precisions.clear()
        assert quotient_oracle_2(3, 1) == AbelianGroupExpr.cyclic(2)
        assert snf_precisions == [2]

    def test_capped_exponent_fails_the_sum_check(self, monkeypatch):
        # u = 9 on Z[x]/(Phi_3) is Z/9 + Z/9 with v_3(Res) = 4; an elimination
        # run mod 3 instead caps both exponents at 1, and they sum to 2.
        quotient = padic._stable_quotient(cyclotomic_poly(3), [9, 0], 3)
        assert quotient == AbelianGroupExpr.cyclic(9).times(2)
        padic._smith_quotient.cache_clear()
        snf = padic.padic_invariant_exponents
        monkeypatch.setattr(padic, "padic_invariant_exponents", lambda rows, p, M: snf(rows, p, 1))
        with pytest.raises(AssertionError, match="Res"):
            padic._stable_quotient(cyclotomic_poly(3), [9, 0], 3)

    def test_resultant_vanishing_at_the_fixed_precision_raises(self, snf_precisions):
        # u = 3^15 on Z[x]/(Phi_3): Res = 3^30 is 0 mod 3^15, so no elimination runs.
        with pytest.raises(ArithmeticError, match="vanishes"):
            padic._stable_quotient(cyclotomic_poly(3), [3**15, 0], 3)
        assert snf_precisions == []

    def test_pinned_oracle_digest(self):
        # Every quotient on a fixed grid, rendered and hashed: the precision
        # an elimination runs at must leave each of these bytes as it was.
        lines = [f"{p}:{v}:{a}:{t}:{quotient_oracle(p, v, a, t).render()}"
                 for p in (3, 5, 7) for v in (2, 3) for a in range(p - 1) for t in range(-12, 13)]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == (600, "2ed715186dcb6def77fe6f3988a89d9effebb4217f8cbd1ec8881b836ccbcac2")

    def test_resultant_catches_a_lost_exponent(self, monkeypatch):
        snf = padic.padic_invariant_exponents
        monkeypatch.setattr(padic, "padic_invariant_exponents", lambda rows, p, M: snf(rows, p, M)[:-1])
        with pytest.raises(AssertionError, match="Res"):
            quotient_oracle(3, 2, 1, 3)

    def test_an_inflated_resultant_fails_the_sum_check(self, monkeypatch):
        # The resultant fixes r = v_p(Res); one that reads p times too large asks the exponents to sum
        # to one more than they do.
        honest = padic._resultant_mod
        monkeypatch.setattr(padic, "_resultant_mod", lambda phi, u, pm: honest(phi, u, pm) * 7 % pm)
        with pytest.raises(AssertionError, match="Res"):
            quotient_oracle(7, 3, 1, 5)

    def test_a_failed_check_raises_on_every_call(self, monkeypatch):
        # lru_cache stores no exception: the same lying elimination runs and fails again.
        snf = padic.padic_invariant_exponents
        calls = []
        monkeypatch.setattr(padic, "padic_invariant_exponents", lambda rows, p, M: calls.append(M) or snf(rows, p, M)[:-1])
        for _ in range(2):
            with pytest.raises(AssertionError, match="Res"):
                quotient_oracle(3, 2, 1, 3)
        assert calls == [2, 2]
        assert padic._smith_quotient.cache_info().currsize == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            quotient_oracle(2, 2, 0, 1)
        with pytest.raises(ValueError):
            quotient_oracle(5, 1, 0, 1)

    @pytest.mark.parametrize("args, message", [
        ((3, 1, 0, 1), "v must be at least 2"),
        ((4, 2, 0, 1), "p must be an odd prime"),
        ((5, 2, 4, 1), "tame exponent out of range"),
    ])
    def test_arguments_out_of_range_raise_input_error(self, args, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            quotient_oracle(*args)


class TestQuotientOracle2:
    def test_v_below_three_raises_input_error(self):
        with pytest.raises(InputError, match="^v must be at least 3$"):
            quotient_oracle_2(2, 1)

    def test_spec_examples(self):
        assert quotient_oracle_2(3, 1) == AbelianGroupExpr.cyclic(2)
        assert quotient_oracle_2(4, 0) == AbelianGroupExpr.cyclic(2)
        assert quotient_oracle_2(3, 5) == AbelianGroupExpr.cyclic(2)

    def test_sweep(self):
        for v in (3, 4):
            for t in range(-5, 6):
                assert quotient_oracle_2(v, t) == AbelianGroupExpr.cyclic(2)


def _phi_prime_power_mod(p, m, x, modulus):
    """Phi_(p^m)(x) = sum_(j < p) x^(j p^(m-1)) mod ``modulus``, m >= 1."""
    step = pow(x, p ** (m - 1), modulus)
    return sum(pow(step, j, modulus) for j in range(p)) % modulus


def _dense_resultant(phi, u, pm):
    """sum_j phi_j c^j w^(d-j) mod pm for c = -u0, w = u1, by Horner over every coefficient of phi."""
    c, w = -u[0], u[1]
    acc, wpow = 0, 1
    for coeff in reversed(phi):
        acc = (acc * c + coeff * wpow) % pm
        wpow = wpow * w % pm
    return acc


def test_sparse_resultant_equals_dense_horner():
    # The resultant walks only Phi's nonzero coefficients; every Phi_n, n <= 130, checks it against
    # the dense walk at random u mod p^15.
    rng = random.Random(130)
    checked = 0
    for p in (2, 3, 5, 7, 11):
        pm = p**15
        for n in range(1, 131):
            phi = cyclotomic_poly(n)
            for _ in range(6):
                u = [rng.randrange(pm), rng.randrange(pm)]
                assert padic._resultant_mod(phi, u, pm) == _dense_resultant(phi, u, pm), (p, n, u)
                checked += 1
    assert checked == 3900


def test_every_oracle_resultant_has_valuation_at_most_one():
    # Res(Phi_(p^m), w x - c) is w^d Phi_(p^m)(c/w) up to sign, w a unit, so the oracle's fixed
    # precision 15 is never reached when v_p(Phi_(p^m)(x)) <= 1, with x = g^t omega(g)^(-a)
    # (x = 5^t at p = 2).  It is 1 exactly when x = 1 mod p.  Plain integers mod p^2; the
    # Teichmuller lift mod p^2 is found by search.
    for p in (3, 5, 7, 11, 13):
        g = topological_generator(p)
        omega = next(y for y in range(g % p, p * p, p) if pow(y, p - 1, p * p) == 1)
        for m in range(1, 8):
            if p**m > 2000:
                break
            for a in range(p - 1):
                for t in range(-60, 61):
                    x = pow(g, t, p * p) * pow(omega, -a, p * p) % (p * p)
                    value = _phi_prime_power_mod(p, m, x, p * p)
                    valuation = 0 if value % p else 1 if value else 2
                    assert valuation == (1 if x % p == 1 else 0), (p, m, a, t)
    for m in range(1, 6):
        for t in range(-60, 61):
            value = _phi_prime_power_mod(2, m, pow(5, t, 4), 4)
            assert value == 2, (m, t)


class TestE2Page:
    def test_trivial_tame_zp(self):
        data = PAdicCharacterData(p=5, v=0, tame=0)
        assert e2_page(data, 1, 0) == AbelianGroupExpr.padic(5)
        assert e2_page(data, 0, 0) == AbelianGroupExpr.padic(5)
        assert e2_page(data, 2, 0).is_zero()

    def test_twisted_stripe(self):
        data = PAdicCharacterData(p=5, v=1, tame=2)
        # Entries at s = 1 and half-degree t/2 = a mod (p-1), order p^(v_p+1).
        assert e2_page(data, 1, 4) == AbelianGroupExpr.cyclic(5)
        assert e2_page(data, 1, 2 * (2 + 4)) == AbelianGroupExpr.cyclic(5)
        assert e2_page(data, 1, 2 * 10) == AbelianGroupExpr.cyclic(25)  # v_5(10)+1 = 2
        assert e2_page(data, 0, 4).is_zero()

    def test_wild_one_line(self):
        data = PAdicCharacterData(p=3, v=2, tame=1)
        for t in range(-10, 11, 2):
            assert e2_page(data, 2, t).is_zero()
            expected = AbelianGroupExpr.cyclic(3) if (t // 2 - 1) % 2 == 0 else AbelianGroupExpr.zero()
            assert e2_page(data, 1, t) == expected

    def test_matches_oracle_on_s1(self):
        for p in (3, 5):
            for v in (2, 3):
                for a in range(p - 1):
                    data = PAdicCharacterData(p=p, v=v, tame=a)
                    for t in range(-6, 7):
                        assert e2_page(data, 1, 2 * t) == quotient_oracle(p, v, a, t)

    def test_column_dimension_bound(self):
        # Length-one resolution: at most two nonzero s-entries per column.
        for v in (0, 1, 2):
            for a in range(4):
                if v == 0 and a:
                    continue
                data = PAdicCharacterData(p=5, v=v, tame=a)
                for t in range(-8, 9, 2):
                    nonzero = sum(1 for s in range(0, 5) if not e2_page(data, s, t).is_zero())
                    assert nonzero <= 2

    def test_odd_degree_rejected_for_odd_p(self):
        with pytest.raises(InputError, match="^pages are concentrated in even internal degree for odd p$"):
            e2_page(PAdicCharacterData(p=5, v=1, tame=1), 1, 3)

    def test_conductor4_table(self):
        data = PAdicCharacterData(p=2, v=2, tame=1)
        assert e2_page(data, 1, 2) == AbelianGroupExpr.cyclic(4)
        assert e2_page(data, 2, 2) == AbelianGroupExpr.cyclic(2)
        assert e2_page(data, 1, 4) == AbelianGroupExpr.cyclic(2)
        assert e2_page(data, 0, 2).is_zero()

    def test_mixed_conductor_rejected(self):
        data = PAdicCharacterData(p=5, v=1, tame=1, prime_to_p=1)
        with pytest.raises(InputError, match="^e2_page requires a pure p-power conductor$"):
            e2_page(data, 1, 0)


@pytest.mark.parametrize("n", [0, -1])
def test_a_trivial_p_power_image_is_refused(n):
    # The prime-to-p part is the n >= 1 with |image chi'| = p^n; no summand has another.
    with pytest.raises(InputError, match="^p-power image must be nontrivial$"):
        PAdicCharacterData(5, 1, 1, n)
    assert PAdicCharacterData(5, 1, 1, 2).prime_to_p == 2


# ---------------------------------------------------------------------------
# the p-adic SNF against a naive full-scan elimination kept here


def _naive_invariant_exponents(rows, p, M):
    """Pick the least-valuation entry of the whole block, clear its column,
    drop its row and column, repeat; the valuations are the exponents."""
    pm = p**M

    def val(x):
        return M if x == 0 else next(v for v in range(M) if x % p ** (v + 1))

    a = [[x % pm for x in row] for row in rows]
    exps = []
    while a:
        v, bi, bj = min((val(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row))
        if v == M:
            return sorted(exps + [M] * len(a))
        pivot_row = a[bi]
        inv = pow(pivot_row[bj] // p**v, -1, pm)
        rest = []
        for i, row in enumerate(a):
            if i != bi:
                q = (row[bj] // p**v) * inv
                rest.append([(x - q * y) % pm for j, (x, y) in enumerate(zip(row, pivot_row)) if j != bj])
        exps.append(v)
        a = rest
    return sorted(exps)


def _assert_matches_naive(rows, p, M):
    """The elimination of the dense ``rows``, fed both as every entry by column and as its
    nonzero entries only, equals the naive one and leaves its input as it was."""
    expected = _naive_invariant_exponents(rows, p, M)
    for form in ([dict(enumerate(row)) for row in rows], [{j: x for j, x in enumerate(row) if x} for row in rows]):
        before = copy.deepcopy(form)
        assert padic_invariant_exponents(form, p, M) == expected
        assert form == before
    return expected


def _dense(rows):
    return [[row.get(j, 0) for j in range(len(rows))] for row in rows]


def _random_matrix(rng, r, p, M, scale=1):
    return [[scale * rng.randrange(p**M) for _ in range(r)] for _ in range(r)]


def _oracle_input(p, v, a, t):
    """Phi, u = w*x - g^t mod p^15 and r = v_p(Res) for quotient_oracle(p, v, a, t), and for
    quotient_oracle_2(v, t) at p = 2, where u = x - 5^t and ``a`` is unused."""
    pm = p**15
    if p == 2:
        phi, u = cyclotomic_poly(2 ** (v - 2)), [-pow(5, t, pm) % pm, 1]
    else:
        g = topological_generator(p)
        phi, u = cyclotomic_poly(p ** (v - 1)), [-pow(g, t, pm) % pm, pow(teichmuller(p, g % p, 15), a, pm)]
    res = padic._resultant_mod(phi, u, pm)
    assert res, (p, v, a, t)
    return phi, u, next(e for e in range(15) if res % p ** (e + 1))


def _oracle(p, v, a, t):
    return quotient_oracle_2(v, t) if p == 2 else quotient_oracle(p, v, a, t)


def _oracle_matrix(p, v, a, t):
    """The multiplication matrix of the oracle's u mod p^15 for (p, v, a, t), with r = v_p(Res)."""
    phi, u, r = _oracle_input(p, v, a, t)
    return times_x_rows(phi, u), r


class TestPadicSNF:
    @pytest.mark.parametrize("p", [2, 3, 5, 11])
    def test_random(self, p):
        rng = random.Random(p)
        for _ in range(60):
            M, r = rng.randint(1, 6), rng.randint(1, 8)
            rows = _random_matrix(rng, r, p, M)
            if rng.random() < 0.5:  # sparse, so that low-rank and non-unit pivots occur
                rows = [[x if rng.random() < 0.3 else 0 for x in row] for row in rows]
            _assert_matches_naive(rows, p, M)

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_only_unit_in_last_row(self, p):
        rng = random.Random(10 + p)
        for r in range(1, 8):
            rows = _random_matrix(rng, r, p, 5, scale=p)
            rows[-1][rng.randrange(r)] = rng.randrange(1, p)
            _assert_matches_naive(rows, p, 5)

    @pytest.mark.parametrize("p", [2, 5])
    def test_every_entry_divisible_by_p(self, p):
        rng = random.Random(20 + p)
        for r in range(1, 8):
            for scale in (p, p * p):
                rows = _random_matrix(rng, r, p, 6, scale=scale)
                assert min(_assert_matches_naive(rows, p, 6)) >= 1

    def test_zero_matrix(self):
        for r in (0, 1, 4):
            zero = [[0] * r for _ in range(r)]
            assert _assert_matches_naive(zero, 3, 4) == [4] * r

    @pytest.mark.parametrize("a, t", [(0, 0), (2, 5), (3, -7)])
    def test_oracle_matrix_p11_v3(self, a, t):
        # Multiplication by omega^a(g) zeta - g^t on Z_11[zeta_121] / 11^15: a 110 x 110 matrix.
        rows, _ = _oracle_matrix(11, 3, a, t)
        assert len(rows) == 110
        _assert_matches_naive(rows, 11, 15)


@pytest.mark.parametrize("p, v", [(p, v) for p in (3, 5, 7) for v in (2, 3)])
def test_elimination_matches_naive_on_the_homotopy_sweep_oracle_grid(p, v):
    # Every matrix of the benchmark's p-adic grid (every tame a, t in [-10, 10]), at the
    # precision r + 1 the oracle runs and at the default precision 15.
    for a in range(p - 1):
        for t in range(-10, 11):
            rows, r = _oracle_matrix(p, v, a, t)
            for M in (r + 1, 15):
                assert sum(_assert_matches_naive(rows, p, M)) == r, (a, t, M)


def _banded_matrix(rng, r, p, M, width):
    """Entries within ``width`` of the diagonal, a third of them multiples of p, and a dense last row."""
    pm = p**M
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(max(0, i - width), min(r, i + width + 1)):
            x = rng.randrange(pm)
            rows[i][j] = x * p % pm if rng.random() < 0.35 else x
    rows[-1] = [rng.randrange(pm) for _ in range(r)]
    return rows


@pytest.mark.parametrize("p", [2, 3, 5])
def test_elimination_matches_naive_on_banded_and_dense_matrices(p):
    # Column swaps at non-unit pivots move band entries into rows that held zeros there,
    # so the update must reach positions outside the band of the middle rows.
    rng = random.Random(100 + p)
    for _ in range(40):
        M, r = rng.randint(2, 6), rng.randint(2, 14)
        rows = _banded_matrix(rng, r, p, M, rng.randint(1, 2))
        if rng.random() < 0.5:  # the transpose: a dense last column instead
            rows = [list(col) for col in zip(*rows)]
        _assert_matches_naive(rows, p, M)
    for _ in range(8):
        M, r = rng.randint(2, 6), rng.randint(2, 10)
        rows = _random_matrix(rng, r, p, M, scale=rng.choice((1, p)))
        _assert_matches_naive(rows, p, M)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_elimination_reduces_negative_and_large_entries_and_skips_empty_rows(p):
    # Entries below zero, at or above p^M, multiples of p^M, and rows with no entries at all.
    rng = random.Random(200 + p)
    for _ in range(40):
        M, r = rng.randint(1, 5), rng.randint(1, 9)
        pm = p**M
        rows = [[rng.choice((rng.randrange(-3 * pm, 3 * pm), pm * rng.randint(-2, 2), 0)) for _ in range(r)]
                for _ in range(r)]
        for i in rng.sample(range(r), rng.randrange(r)):
            rows[i] = [0] * r
        _assert_matches_naive(rows, p, M)


def _assert_rows_are_the_multiplication_matrix(p, v, a, t, snf_rows):
    """A cold oracle call eliminates the sparse rows of u mod p^(r+1), which densified are
    times_x_rows of that u, entry for entry.  Over Phi_2 = x + 1, zeta is -1."""
    padic._smith_quotient.cache_clear()
    snf_rows.clear()
    _oracle(p, v, a, t)
    phi, u, r = _oracle_input(p, v, a, t)
    u0, u1 = (x % p ** (r + 1) for x in u)
    expected = times_x_rows(phi, [u0 - u1] if len(phi) == 2 else [u0, u1])
    assert [_dense(rows) for rows in snf_rows] == [expected], (p, v, a, t)


@pytest.mark.parametrize("p, v", [(p, v) for p in (3, 5, 7) for v in (2, 3)] + [(11, 3)])
def test_oracle_rows_are_the_multiplication_matrix(p, v, snf_rows):
    # On the benchmark's p-adic grid (every tame a, t in [-10, 10]) and at (11, 3).
    for a in range(p - 1):
        for t in range(-10, 11):
            _assert_rows_are_the_multiplication_matrix(p, v, a, t, snf_rows)


@pytest.mark.parametrize("v", [3, 4, 5])
def test_oracle_2_rows_are_the_multiplication_matrix(v, snf_rows):
    for t in range(-10, 11):
        _assert_rows_are_the_multiplication_matrix(2, v, 0, t, snf_rows)


# ---------------------------------------------------------------------------
# the elimination cache


# Every odd p <= 13 at v = 2, 3 with every tame a, and p = 2 at v = 3..6, for |t| <= 30.
_CACHE_GRID = [(p, v, a) for p in (3, 5, 7, 11, 13) for v in (2, 3) for a in range(p - 1)] + \
    [(2, v, 0) for v in range(3, 7)]


def _closed_form(p, v, a, t):
    if p == 2:
        return AbelianGroupExpr.cyclic(2)
    return e2_page(PAdicCharacterData(p=p, v=v, tame=a), 1, 2 * t)


def test_cached_sweep_equals_the_closed_form_and_a_cold_oracle():
    # The sweep runs on one warm cache; each cold answer is taken with the cache cleared.
    calls = [(p, v, a, t) for p, v, a in _CACHE_GRID for t in range(-30, 31)]
    cached = [_oracle(*call) for call in calls]
    assert padic._smith_quotient.cache_info().hits > len(calls) // 2
    for call, got in zip(calls, cached):
        padic._smith_quotient.cache_clear()
        assert got == _closed_form(*call) == _oracle(*call), call


def _distinct_inputs(p, ts):
    """The distinct (u0 mod p^(r+1), u1 mod p^(r+1), r) of a t-sweep over every tame a, from
    plain integers: r is 1 exactly on the Z/p stripe (always at p = 2), and the Teichmuller
    lift of g mod p^2 is found by search."""
    if p == 2:
        return {(-pow(5, t, 4) % 4, 1, 1) for t in ts}
    g = topological_generator(p)
    omega = next(y for y in range(g % p, p * p, p) if pow(y, p - 1, p * p) == 1)
    keys = set()
    for a in range(p - 1):
        for t in ts:
            r = 1 if (t - a) % (p - 1) == 0 else 0
            pr = p ** (r + 1)
            keys.add((-pow(g, t, pr) % pr, pow(omega, a, pr), r))
    return keys


@pytest.mark.parametrize("p, v", [(3, 2), (5, 3), (7, 2), (13, 2), (2, 3), (2, 5)])
def test_a_sweep_eliminates_each_distinct_input_once(p, v, snf_precisions):
    ts = range(-30, 31)
    for a in range(1 if p == 2 else p - 1):
        for t in ts:
            _oracle(p, v, a, t)
    keys = _distinct_inputs(p, ts)
    assert sorted(snf_precisions) == sorted(r + 1 for _, _, r in keys)
    assert padic._smith_quotient.cache_info().currsize == len(keys)
