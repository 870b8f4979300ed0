"""mpmath as an outside oracle for B_(k,chi).

Both B_(k,chi) pipelines read one ``ValueTable`` of chi and one
primitivization, so an error in what they share passes their cross-check.
Here chi's values come from ``exponent_tuples.evaluate``, which writes each
residue as a product of powers of the generators, with no discrete-log table
of the library's, and mpmath sums the L-series: B_(k,chi) = -k L(1 - k, chi).
What is shared is mathematics, not code: at s = 1 - k mpmath evaluates the
Hurwitz zeta through Bernoulli polynomials, the formula of the
polynomial-sum pipeline.

Both sides are compared at the embedding zeta_n -> e^(2 pi i/n) at 50 digits,
with an absolute tolerance of 10^-30: a parity zero reads about 10^-30 from
mpmath at that precision, so a tolerance relative to the value would fail it.
"""

import pytest

from dirichletj.bernoulli import gbn
from dirichletj.characters import enumerate_characters, is_primitive

from exponent_tuples import evaluate

mpmath = pytest.importorskip("mpmath")


def _embed(x, roots):
    """A field element at zeta_n -> roots[1], with roots[j] = e^(2 pi i j/n)."""
    return mpmath.fsum(c * roots[j] for j, c in enumerate(x.nums) if c) / x.den


def test_gbn_equals_mpmath_at_one_embedding():
    compared = 0
    with mpmath.workdps(50):
        for N in range(3, 25):
            for chi in enumerate_characters(N):
                if chi.is_trivial() or not is_primitive(chi):
                    continue
                n = chi.order()
                roots = [mpmath.expjpi(mpmath.mpf(2 * j) / n) for j in range(n)]
                values = [0 if v is None else _embed(v, roots) for v in (evaluate(chi, a) for a in range(N))]
                for k in range(1, 9):
                    expected = -k * mpmath.dirichlet(1 - k, values)
                    assert abs(_embed(gbn(chi, k), roots) - expected) < mpmath.mpf(10) ** -30, (N, chi.index(), k)
                    compared += 1
    assert compared == 856
