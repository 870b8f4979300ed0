"""q-expansions of normalized Eisenstein series and their congruences.

The normalized series attached to a character of matching parity has
constant term 1 and higher coefficients ``c_n = -(2k / B_{k,chi})
sigma_{k-1,chi}(n)`` with the twisted divisor sum ``sigma_{m,chi}(n) =
sum_{0 < d | n} chi(d) d^m``.

The congruence ``E_{k,chi} = 1 mod D_{k,chi}``, with ``D_{k,chi}`` the
denominator ideal of ``B_{k,chi}/2k``, is checked as two denominator
tests.  ``c_n B_{k,chi}/2k = -sigma_{k-1,chi}(n)`` is integral, so
``c_n`` lies in ``D_{k,chi}`` exactly when ``c_n`` is integral, and in
its conductor-primary part (all of it for conductor 1), up to
denominators prime to that part's index, exactly when the denominator of
``c_n`` is prime to that index.

The conductor-primary test is mandatory, under the hypothesis that the
conductor's prime ``p`` is regular (``p`` divides none of B_2, B_4, ...,
B_{p-3}).  At conductor 1 it always holds: the denominator of ``c_n``
divides the numerator of ``B_k/2k``, which is prime to the index.  It
passes on every prime-power conductor up to 41 with k <= 10 except 37.
At an irregular prime it can fail, with a prime above ``p`` in both the
numerator and the denominator of ``B_{k,chi}/2k``: at conductor 37 it
fails on 126 of the 700 (chi, k) with k <= 40, and at conductor 59 on
224 of the 228 with k <= 8, so ``eisenstein --modulus 37 --index 1
--weight 1`` exits 1.

The full test is only reported, with a failing ``n`` surfaced as a
finding rather than an error.  Non-integrality away from the conductor
is expected whenever B_{k,chi} picks up extra numerator primes (the 691
of weight 12 is the classical example).
"""

from __future__ import annotations

import itertools
import math
import operator

from .bernoulli import denom_ideal, gbn
from .characters import DirichletCharacter, InputError, conductor, is_primitive, parity, value_classes
from .cyclotomic import CycElement, denominator_invariants, get_field
from .exactalg import _vp, factorize, times_x_rows


def _sigma_rows(chi: DirichletCharacter, m: int, n_max: int) -> list[tuple[int, ...]]:
    """The integer vectors of sigma_{m,chi}(n) over the power basis, for 0 <= n <= n_max.

    One divisor sieve over chi's ``ValueTable``, with one list per coordinate:
    each unit d <= n_max, stepping by the modulus from each unit of each
    class, adds chi(d) d^m to every multiple of d, one slice assignment
    per (d, coordinate where chi(d) is nonzero).  chi is evaluated nowhere
    here.  Row 0 is zero (the sieve adds nothing to it).
    """
    table = value_classes(chi)
    cols = [[0] * (n_max + 1) for _ in table.columns]
    for c, (lo, hi) in enumerate(zip(table.bounds, table.bounds[1:])):
        terms = [(col, column[c]) for col, column in zip(cols, table.columns) if column[c]]
        for a in table.units[lo:hi]:
            for d in range(a, n_max + 1, chi.modulus):
                w = d**m
                for col, x in terms:
                    col[d::d] = map(operator.add, col[d::d], itertools.repeat(x * w))
    return list(zip(*cols))


def eisenstein_coeffs(chi: DirichletCharacter, k: int, n_max: int) -> list[CycElement]:
    """Coefficients c_0 = 1, c_n = -(2k/B_{k,chi}) sigma_{k-1,chi}(n).

    Requires (-1)^k = chi(-1); otherwise B_{k,chi} = 0 and normalization
    is undefined.  Each c_n is the sieve's integer vector times the one
    matrix of multiplication by the normalizing factor's numerator, over
    its denominator; the vectors are read straight off the sieve.
    """
    if k < 1:
        raise InputError("k must be positive")
    if n_max < 0:
        raise InputError("n_max must be nonnegative")
    if (-1) ** k != parity(chi):
        raise InputError("parity mismatch: B_{k,chi} = 0, series not normalizable")
    field = get_field(chi.order())
    b = gbn(chi, k)
    factor = field.from_rational(-2 * k) * b.inverse()
    columns = list(zip(*times_x_rows(field.phi_n, factor.nums)))
    return [field.one()] + [
        CycElement(field, [sum(map(int.__mul__, row, col)) for col in columns], factor.den)
        for row in _sigma_rows(chi, k - 1, n_max)[1:]
    ]


def congruence_check(chi: DirichletCharacter, k: int, n_max: int) -> dict:
    """Check c_n against the denominator ideal for 1 <= n <= n_max.

    Returns a report with the ``coefficients`` c_0..c_n_max and two counts
    of the n that fail a test.  ``mandatory_failures`` counts the c_n
    outside the conductor-primary part of the ideal (all primes of the
    index for conductor 1): those whose denominator shares a prime with
    that part of the index.  ``full_findings`` counts the c_n outside the
    whole ideal, the non-integral ones; they are reported only (failures
    are findings).
    """
    if not is_primitive(chi):
        raise InputError("chi must be primitive")
    N = conductor(chi)
    idx = math.prod(denominator_invariants(denom_ideal(chi, k)))
    if N == 1:
        primary = idx
    else:
        primes = factorize(N)
        if len(primes) != 1:
            raise InputError(f"the conductor must be 1 or a prime power, got {N}")
        p, = primes
        primary = p ** _vp(idx, p)
    coeffs = eisenstein_coeffs(chi, k, n_max)
    # c_0 = 1 has denominator 1, so it counts in neither sum.
    mandatory_failures = sum(math.gcd(c.den, primary) != 1 for c in coeffs)
    return {
        "ideal_index": idx,
        "coefficients": coeffs,
        "mandatory_failures": mandatory_failures,
        "full_findings": sum(c.den != 1 for c in coeffs),
        "ok": mandatory_failures == 0,
    }
