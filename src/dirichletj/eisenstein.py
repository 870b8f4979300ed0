"""q-expansions of normalized Eisenstein series and their congruences.

The normalized series attached to a character of matching parity has
constant term 1 and higher coefficients ``c_n = -(2k / B_{k,chi})
sigma_{k-1,chi}(n)`` with the twisted divisor sum ``sigma_{m,chi}(n) =
sum_{0 < d | n} chi(d) d^m``.

The congruence ``E_{k,chi} = 1 mod D_{k,chi}`` is checked two ways:
membership of ``c_n`` in the conductor-primary part of the denominator
ideal is mandatory (it follows from the implemented congruence
theorems); membership in the full ideal is only reported, with a failing
``n`` surfaced as a finding rather than an error.  Non-integrality away
from the conductor is expected whenever B_{k,chi} picks up extra
numerator primes (the 691 of weight 12 is the classical example).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional

from .bernoulli import denom_ideal, gbn, p_primary_part
from .characters import DirichletCharacter, InputError, conductor, evaluate, is_primitive, parity
from .cyclotomic import CycElement, IdealLattice, get_field
from .exactalg import factorize


def sigma_chi(chi: DirichletCharacter, m: int, n_max: int) -> list[CycElement]:
    """Twisted divisor sums sigma_{m,chi}(n) in Q(zeta_ord(chi)) for 0 <= n <= n_max.

    One divisor sieve: each d <= n_max adds chi(d) d^m to the integer
    vector of every multiple of d, with chi(d) read from one table of
    ``evaluate(chi, a)`` for a < min(modulus, n_max + 1).  Entry 0 is 0
    (the sieve adds nothing to it).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if m < 0:
        raise ValueError("m must be nonnegative")
    field = get_field(chi.order())
    values = [evaluate(chi, a) for a in range(min(chi.modulus, n_max + 1))]
    acc = [[0] * field.degree for _ in range(n_max + 1)]
    for d in range(1, n_max + 1):
        val = values[d % chi.modulus]
        if val is None:
            continue
        w = d**m
        terms = [(t, x * w) for t, x in enumerate(val.nums) if x]
        for n in range(d, n_max + 1, d):
            row = acc[n]
            for t, y in terms:
                row[t] += y
    return [CycElement(field, row) for row in acc]


def eisenstein_coeffs(chi: DirichletCharacter, k: int, n_max: int) -> list[CycElement]:
    """Coefficients c_0 = 1, c_n = -(2k/B_{k,chi}) sigma_{k-1,chi}(n).

    Requires (-1)^k = chi(-1); otherwise B_{k,chi} = 0 and normalization
    is undefined.
    """
    if k < 1:
        raise InputError("k must be positive")
    if (-1) ** k != parity(chi):
        raise InputError("parity mismatch: B_{k,chi} = 0, series not normalizable")
    field = get_field(chi.order())
    b = gbn(chi, k)
    factor = field.from_rational(Fraction(-2 * k)) * b.inverse()
    return [field.one()] + [factor * sigma for sigma in sigma_chi(chi, k - 1, n_max)[1:]]


def _coprime_denominator_membership(ideal: IdealLattice) -> Callable[[CycElement], bool]:
    """The test x in ideal, allowing denominators of x coprime to the ideal's index.

    Writes x = y/d with d minimal, so y is the integer vector ``x.nums``; if
    d shares a prime with the index the test fails, otherwise d is inverted
    modulo the index.  The index is taken once, and each distinct d is
    inverted once.
    """
    idx = ideal.index()
    inverses: dict[int, Optional[int]] = {}

    def member(x: CycElement) -> bool:
        if idx == 1:
            return True
        d = x.den
        if d not in inverses:
            inverses[d] = pow(d, -1, idx) if math.gcd(d, idx) == 1 else None
        u = inverses[d]
        return u is not None and ideal._contains_vector([n * u for n in x.nums])

    return member


def congruence_check(chi: DirichletCharacter, k: int, n_max: int) -> dict:
    """Check c_n against the denominator ideal for 1 <= n <= n_max.

    Returns a report with per-n rows and the ``coefficients`` c_0..c_n_max.
    ``mandatory_ok`` is membership in the conductor-primary part of the
    ideal (all primes of the index for conductor 1); ``full_ok`` is
    membership in the whole ideal, reported only (failures are findings).
    """
    if not is_primitive(chi):
        raise InputError("chi must be primitive")
    N = conductor(chi)
    ideal = denom_ideal(chi, k)
    idx = ideal.index()
    if N == 1:
        mandatory_ideal = ideal
    else:
        primes = factorize(N)
        if len(primes) != 1:
            raise InputError(f"the conductor must be 1 or a prime power, got {N}")
        p, = primes
        mandatory_ideal = p_primary_part(ideal, p)
    in_mandatory = _coprime_denominator_membership(mandatory_ideal)
    coeffs = eisenstein_coeffs(chi, k, n_max)
    rows = []
    mandatory_failures = 0
    findings = 0
    for n in range(1, n_max + 1):
        c = coeffs[n]
        mandatory_ok = in_mandatory(c)
        full_ok = c.is_integral() and ideal.contains(c)
        if not mandatory_ok:
            mandatory_failures += 1
        if not full_ok:
            findings += 1
        rows.append({"n": n, "mandatory_ok": mandatory_ok, "full_ok": full_ok})
    return {
        "modulus": chi.modulus,
        "index": chi.index(),
        "k": k,
        "ideal_index": idx,
        "rows": rows,
        "coefficients": coeffs,
        "mandatory_failures": mandatory_failures,
        "full_findings": findings,
        "ok": mandatory_failures == 0,
    }
