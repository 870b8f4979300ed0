"""sympy as an outside oracle for the Smith diagonal and for factorization.

sympy's ``invariant_factors`` returns min(rows, cols) entries, zeros
included, the convention of ``smith_normal_form``.
"""

import random

import pytest

from dirichletj.bernoulli import denom_ideal
from dirichletj.characters import enumerate_characters, is_primitive, parity
from dirichletj.exactalg import euler_phi, factorize, smith_normal_form

sympy = pytest.importorskip("sympy")
invariant_factors = pytest.importorskip("sympy.matrices.normalforms").invariant_factors


def sympy_diagonal(m):
    return [int(x) for x in invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)]


def random_matrix(rng):
    """Up to 8 x 8, entries up to 10^6; half of them combinations of fewer rows."""
    rows, cols = rng.randint(1, 8), rng.randint(1, 8)
    bound = 10 ** rng.randint(0, 6)
    if rng.random() < 0.5:
        return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    gens = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rng.randint(0, min(rows, cols)))]
    return [[sum(rng.randint(-3, 3) * g[j] for g in gens) for j in range(cols)] for _ in range(rows)]


def test_smith_random_matrices():
    rng = random.Random(8)
    for _ in range(200):
        m = random_matrix(rng)
        assert smith_normal_form(m) == sympy_diagonal(m), m


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
