"""sympy as an outside oracle for the Smith diagonal, for factorization and for factoring Phi_n mod p.

For a nonsingular square matrix sympy's ``invariant_factors`` returns the
positive diagonal with d[i] | d[i+1], the convention of
``smith_normal_form``, which reads it off an HNF basis.
"""

import math
import random

import pytest

from dirichletj.bernoulli import denom_ideal
from dirichletj.characters import enumerate_characters, is_primitive, parity
from dirichletj.cyclotomic import cyclotomic_factor_count
from dirichletj.exactalg import euler_phi, factorize, hermite_normal_form, is_prime, smith_normal_form

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


def test_smith_random_matrices():
    rng = random.Random(8)
    for _ in range(200):
        m, det = random_matrix(rng)
        assert smith_normal_form(hermite_normal_form(m, det)) == sympy_diagonal(m), m


def test_smith_denominator_ideals():
    # Every denominator ideal of a primitive chi of conductor <= 41 and degree <= 16, k <= 12.
    bases = set()
    for N in range(1, 42):
        for chi in enumerate_characters(N):
            if not is_primitive(chi) or euler_phi(chi.order()) > 16:
                continue
            for k in range(1, 13):
                if (-1) ** k == parity(chi):
                    bases.add(tuple(map(tuple, denom_ideal(chi, k).basis)))
    assert len(bases) > 200
    for basis in sorted(bases):
        assert smith_normal_form(basis) == sympy_diagonal(basis), basis


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
