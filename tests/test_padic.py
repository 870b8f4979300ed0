"""Teichmuller lifts, topological generators, and the SNF cohomology oracle."""

import copy
import hashlib
import random

import pytest

from dirichletj import padic
from dirichletj.cyclotomic import cyclotomic_poly
from dirichletj.exactalg import AbelianGroupExpr, padic_invariant_exponents, times_x_rows
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

    def test_cache_keeps_the_newest_primes(self, monkeypatch):
        monkeypatch.setattr(padic, "_TOPGENS", 2)
        monkeypatch.setattr(padic, "_TOPGEN_CACHE", {})
        assert [topological_generator(p) for p in (3, 5, 7, 3)] == [2, 2, 3, 2]
        assert padic._TOPGEN_CACHE == {7: 3, 3: 2}


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

    def test_precision_independence(self):
        assert quotient_oracle(5, 2, 2, 2, M=15) == quotient_oracle(5, 2, 2, 2, M=25)

    def test_one_elimination_per_exact_quotient(self, snf_precisions):
        # One elimination, mod p^(v_p(Res) + 1): v_p(Res) is 1 on the Z/p stripe and 0 off it.
        for p, v in ((3, 2), (5, 3)):
            for t in range(-3, 4):
                snf_precisions.clear()
                quotient_oracle(p, v, 1, t)
                assert snf_precisions == [2 if (t - 1) % (p - 1) == 0 else 1]
        snf_precisions.clear()
        assert quotient_oracle_2(3, 1) == AbelianGroupExpr.cyclic(2)
        assert snf_precisions == [2]

    def test_low_precision_escalates(self, snf_precisions):
        # Z/3: the resultant vanishes mod 3 at M = 1, so no elimination runs there;
        # at M = 6 it has valuation 1, and the one elimination runs mod 3^2.
        assert quotient_oracle(3, 2, 1, 3, M=1) == AbelianGroupExpr.cyclic(3)
        assert snf_precisions == [2]

    def test_exponents_below_M_summing_to_M_escalate(self, snf_precisions):
        # u = 3 on Z[x]/(Phi_3): both exponents are 1 < M = 2, but Res = 9 vanishes mod 3^2;
        # at M = 7 its valuation is 2, and the one elimination runs mod 3^3.
        got = padic._stable_quotient(cyclotomic_poly(3), lambda precision: [3, 0], 3, 2)
        assert got == AbelianGroupExpr.cyclic(3) + AbelianGroupExpr.cyclic(3)
        assert snf_precisions == [3]

    def test_capped_exponent_fails_the_sum_check(self, monkeypatch):
        # u = 9 on Z[x]/(Phi_3) is Z/9 + Z/9 with v_3(Res) = 4; an elimination
        # run mod 3 instead caps both exponents at 1, and they sum to 2.
        quotient = padic._stable_quotient(cyclotomic_poly(3), lambda precision: [9, 0], 3, 15)
        assert quotient == AbelianGroupExpr.cyclic(9).times(2)
        snf = padic.padic_invariant_exponents
        monkeypatch.setattr(padic, "padic_invariant_exponents", lambda rows, p, M: snf(rows, p, 1))
        with pytest.raises(AssertionError, match="Res"):
            padic._stable_quotient(cyclotomic_poly(3), lambda precision: [9, 0], 3, 15)

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

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            quotient_oracle(2, 2, 0, 1)
        with pytest.raises(ValueError):
            quotient_oracle(5, 1, 0, 1)


class TestQuotientOracle2:
    def test_spec_examples(self):
        assert quotient_oracle_2(3, 1) == AbelianGroupExpr.cyclic(2)
        assert quotient_oracle_2(4, 0) == AbelianGroupExpr.cyclic(2)
        assert quotient_oracle_2(3, 5) == AbelianGroupExpr.cyclic(2)

    def test_sweep(self):
        for v in (3, 4):
            for t in range(-5, 6):
                assert quotient_oracle_2(v, t) == AbelianGroupExpr.cyclic(2)


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
        with pytest.raises(ValueError):
            e2_page(PAdicCharacterData(p=5, v=1, tame=1), 1, 3)

    def test_conductor4_table(self):
        data = PAdicCharacterData(p=2, v=2, tame=1)
        assert e2_page(data, 1, 2) == AbelianGroupExpr.cyclic(4)
        assert e2_page(data, 2, 2) == AbelianGroupExpr.cyclic(2)
        assert e2_page(data, 1, 4) == AbelianGroupExpr.cyclic(2)
        assert e2_page(data, 0, 2).is_zero()

    def test_mixed_conductor_rejected(self):
        from dirichletj.padic import PrimeToPPart

        data = PAdicCharacterData(p=5, v=1, tame=1, prime_to_p=PrimeToPPart(3, 0, False))
        with pytest.raises(ValueError):
            e2_page(data, 1, 0)


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


def _oracle_matrix(p, v, a, t):
    """The matrix the oracle eliminates for (p, v, a, t) at its default precision 15, with r = v_p(Res)."""
    pm = p**15
    g = topological_generator(p)
    phi = cyclotomic_poly(p ** (v - 1))
    u = [-pow(g, t, pm) % pm, pow(teichmuller(p, g % p, 15), a, pm)]
    res = padic._resultant_mod(phi, u, pm)
    assert res, (p, v, a, t)
    r = next(e for e in range(15) if res % p ** (e + 1))
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


@pytest.mark.parametrize("p, v", [(p, v) for p in (3, 5, 7) for v in (2, 3)] + [(11, 3)])
def test_oracle_rows_are_the_multiplication_matrix(p, v, snf_rows):
    # The oracle's sparse rows of w*x - g^t, densified, are times_x_rows of it, on the
    # benchmark's p-adic grid (every tame a, t in [-10, 10]) and at (11, 3).
    for a in range(p - 1):
        for t in range(-10, 11):
            snf_rows.clear()
            quotient_oracle(p, v, a, t)
            expected, _ = _oracle_matrix(p, v, a, t)
            assert [_dense(rows) for rows in snf_rows] == [expected], (a, t)


@pytest.mark.parametrize("v", [3, 4, 5])
def test_oracle_2_rows_are_the_multiplication_matrix(v, snf_rows):
    # zeta - 5^t on Z_2[zeta_(2^(v-2))] at precision 15; over Phi_2 = x + 1, zeta is -1.
    pm = 2**15
    phi = cyclotomic_poly(2 ** (v - 2))
    for t in range(-10, 11):
        snf_rows.clear()
        quotient_oracle_2(v, t)
        gt = pow(5, t, pm)
        u = [(-1 - gt) % pm] if len(phi) == 2 else [-gt % pm, 1]
        assert [_dense(rows) for rows in snf_rows] == [times_x_rows(phi, u)], t
