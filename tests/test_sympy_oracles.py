"""sympy as an outside oracle for the Smith diagonal, for factorization and for factoring Phi_n mod p.

For a nonsingular square matrix sympy's ``invariant_factors`` returns the
positive diagonal with d[i] | d[i+1], the convention of
``cyclotomic.denominator_invariants``, which reads it off local elementary
divisors with no HNF, and of the textbook Smith form of the test oracle.
"""

import math
import random

import pytest

from dirichletj.bernoulli import denom_ideal
from dirichletj.characters import char_inv, enumerate_characters, is_primitive, parity
from dirichletj.cyclotomic import (CycElement, cyclotomic_factor_count, denominator_ideal, denominator_invariants,
                                   get_field)
from dirichletj.exactalg import _vp, euler_phi, factorize, is_prime, times_x_rows

from ideal_oracle import denominator_lattice, smith_diagonal

sympy = pytest.importorskip("sympy")
invariant_factors = pytest.importorskip("sympy.matrices.normalforms").invariant_factors


def sympy_diagonal(m):
    return [int(x) for x in invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)]


SMALL_PRIMES = [p for p in range(2, 100) if is_prime(p)]


def random_matrix(rng):
    """U * diag * V, up to 8 x 8, with entries up to 10^6, and |det| = the product of diag.

    The diagonal entries are products of up to three primes below 100.  U
    and V are random elementary row and column steps applied to diag; a
    step is kept only while every entry stays below the bound.
    """
    n = rng.randint(1, 8)
    diag = [math.prod(rng.choices(SMALL_PRIMES, k=rng.randint(0, 3))) for _ in range(n)]
    bound = max(10 ** rng.randint(0, 6), *diag)
    m = [[diag[i] * (i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n * n):
        i, j, c = rng.randrange(n), rng.randrange(n), rng.choice([-3, -2, -1, 1, 2, 3])
        if i == j:
            continue
        if rng.random() < 0.5:
            row = [x + c * y for x, y in zip(m[i], m[j])]
            if max(map(abs, row)) <= bound:
                m[i] = row
        else:
            col = [r[i] + c * r[j] for r in m]
            if max(map(abs, col)) <= bound:
                for r, x in zip(m, col):
                    r[i] = x
    return m, math.prod(diag)


def test_oracle_smith_random_matrices():
    rng = random.Random(8)
    for _ in range(200):
        m, _ = random_matrix(rng)
        assert smith_diagonal(m) == sympy_diagonal(m), m


def _primitive_values(conductors, k_max, max_degree=None):
    """B_{k,chi}/2k for the primitive chi of these conductors and k <= k_max of matching parity."""
    for N in conductors:
        for chi in enumerate_characters(N):
            if is_primitive(chi) and (max_degree is None or euler_phi(chi.order()) <= max_degree):
                for k in range(1, k_max + 1):
                    if (-1) ** k == parity(chi):
                        yield denom_ideal(chi, k)


def _gbn_theorem_values():
    """The values the gbn-theorem suite compares: B_{|k|,chi^-1}/2|k| on its moduli, |k| <= 12."""
    for N in (3, 4, 5, 7, 11, 13, 9, 25, 27):
        for chi in enumerate_characters(N):
            if is_primitive(chi):
                for k in range(1, 13):
                    if (-1) ** k == parity(chi):
                        yield denom_ideal(char_inv(chi), k)


def _drawn_values(rng, count):
    """``count`` elements A/c of small cyclotomic fields whose c has 2-3 primes, each to an exponent <= 3.

    A is a small element times powers of z - r, whose norm Phi_n(r) puts
    primes above p into A at some primes p | c and not at their conjugates,
    so an elementary divisor of A can reach or pass v_p(c).
    """
    out = []
    while len(out) < count:
        f = get_field(rng.choice([3, 4, 5, 7, 8, 9, 12]))
        a = CycElement(f, [rng.randint(-3, 3) for _ in range(f.degree)])
        for _ in range(rng.randint(0, 6)):
            a = a * (f.zeta_power(1) - rng.randint(-3, 3))
        if a.is_zero():
            continue
        primes = rng.sample([2, 3, 5, 7, 11, 13, 17, 29], rng.randint(2, 3))
        out.append(a / math.prod(p ** rng.randint(1, 3) for p in primes))
    return out


def test_smith_denominator_ideals():
    # The local invariants against the oracle's Smith form of the lattice built the old way, and
    # against sympy's Smith form of the library's HNF basis, on the gbn-theorem grid, every
    # primitive chi of conductor <= 41 and degree <= 16 (k <= 12), conductors 49, 64 and 81 (k <= 6),
    # the composite conductors <= 40 (k <= 12) and drawn A/c.
    composite = [N for N in range(6, 41) if len(factorize(N)) > 1]
    grids = {
        "gbn-theorem": list(_gbn_theorem_values()),
        "conductor <= 41": list(_primitive_values(range(1, 42), 12, max_degree=16)),
        "49, 64, 81": list(_primitive_values((49, 64, 81), 6)),
        "composite": list(_primitive_values(composite, 12)),
        "drawn": _drawn_values(random.Random(25), 500),
    }
    bases = {}
    capped, past = 0, 0
    for name, values in grids.items():
        for a in values:
            invariants = denominator_invariants(a)
            lattice = denominator_lattice(a)
            assert invariants == smith_diagonal(lattice.basis), (name, a)
            basis = denominator_ideal(a)
            assert basis == lattice.basis, (name, a)
            bases[tuple(map(tuple, basis))] = invariants
            if name == "drawn":
                # An elementary divisor of A over Z_p at or past v_p(c): the elimination mod p^v caps it.
                top = smith_diagonal(times_x_rows(a.field.phi_n, a.nums))[-1]
                for p, v in factorize(a.den).items():
                    capped += _vp(top, p) >= v
                    past += _vp(top, p) > v
    assert capped >= 50 and past >= 10, (capped, past)
    assert len(bases) > 400
    for basis, invariants in sorted(bases.items()):
        assert invariants == sympy_diagonal(basis), basis


def test_factorize():
    for n in range(1, 5001):
        assert factorize(n) == sympy.factorint(n), n


def test_cyclotomic_factor_count():
    x = sympy.Symbol("x")
    pairs = [(n, p) for n in range(1, 41) for p in range(2, 24) if is_prime(p) and n % p]
    assert len(pairs) == 303
    for n, p in pairs:
        _, factors = sympy.Poly(sympy.cyclotomic_poly(n, x), x, modulus=p).factor_list()
        assert cyclotomic_factor_count(n, p) == sum(e for _, e in factors), (n, p)
