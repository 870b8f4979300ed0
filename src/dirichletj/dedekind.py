"""Dedekind zeta special values of abelian fields and the J(K) comparison.

A field K is one ``characters.AbelianField``, read at its conductor f, so
every presentation of K gives one answer.  Special values are exact
products of Dirichlet L-values over its character group X, the characters
mod f trivial on H_f (each reduced to its primitive representative): one
L-value per Galois orbit, whose norm is the orbit's product, and the
orbits must cover X exactly.

``verify_jk`` compares the denominator of zeta_K(1-2t) against
pi_{4t-1}(J(K)[1/|H_f|]) as finite groups away from |H_f|.  For K = Q the
homotopy side is the classical image of J, whose order is the
denominator of B_{2t}/(4t) — exactly twice the denominator of
zeta(1-2t); the comparison normalizes by that factor of 2 at the prime 2
when f = 1.
"""

from __future__ import annotations

import math

from .bernoulli import l_value
from .characters import AbelianField, InputError, field_characters
from .cyclotomic import CycElement, _norm_and_conjugates, get_field, render_cyc
from .exactalg import AbelianGroupExpr, factorize
from .homotopy import invert_primes, pi_JK


def zeta_special_value(field: AbelianField, s: int) -> CycElement:
    """zeta_K(s) at s = 1 - k as a product of norms of L-values, an element of Q(zeta_1) = Q.

    L(s, chi^j) = sigma_j(L(s, chi)), so a Galois orbit {chi^j : gcd(j, n = ord chi) = 1},
    whose exponents are j*e mod o, contributes N(L) = N(A)/den^phi(n) for L = A/den of its
    first character.  AssertionError unless the orbits cover X exactly.
    """
    k = 1 - s
    if k < 1:
        raise InputError("special values only at s = 1 - k with k >= 1")
    chis = field_characters(field)
    covered = set()
    num = den = 1
    for chi in chis:
        if chi.exponents in covered:
            continue
        n = chi.order()
        covered.update(tuple(j * e % o for e, o in zip(chi.exponents, chi.structure.orders))
                       for j in range(1, n + 1) if math.gcd(j, n) == 1)
        value = l_value(chi, s)
        num *= _norm_and_conjugates(value)[0]
        den *= value.den ** value.field.degree
    if covered != {chi.exponents for chi in chis}:
        raise AssertionError("the characters trivial on H_f are not a union of Galois orbits")
    return CycElement(get_field(1), [num], den)


def verify_jk(field: AbelianField, t: int) -> dict:
    """Compare pi_{4t-1}(J(K)[1/|H_f|]) with Z[1/|H_f|] / D_{K,2t}.

    Both sides are normalized as finite groups prime to |H_f|.  For K = Q
    (f = 1) the arithmetic side's 2-part is doubled, matching the
    classical B_{2t}/(4t) normalization of the image of J.  The arithmetic
    side is the reduced denominator of zeta_K(1-2t): a prime that cancels
    against the numerator drops out of it, so the comparison fails at
    f = 9, H_f = <8> for t = 3 (Z/27 vs Z/27 + Z/7) and t = 6, where pi_JK
    carries a 7 that the reduced denominator lacks.  The row names K by f and H_f.
    """
    f = field.conductor
    if len(factorize(f)) > 1:
        raise InputError("N must be 1 or a prime power")
    if not field.is_totally_real():
        raise InputError("K must be totally real (-1 in H)")
    if t < 1:
        raise InputError("t must be positive")
    zeta = zeta_special_value(field, 1 - 2 * t)
    if zeta == 0:
        raise AssertionError("zeta_K(1-2t) vanished for a totally real field")
    adjusted = 2 * zeta.den if f == 1 else zeta.den  # K = Q: Z/D_{2t} with D_{2t} = 2 * denominator
    arithmetic = invert_primes(AbelianGroupExpr.cyclic(adjusted), set(factorize(len(field.subgroup))))
    homotopy = pi_JK(field, 4 * t - 1, invert_G=True)
    return {
        "modulus": f,
        "subgroup": list(field.subgroup),
        "t": t,
        "zeta_value": render_cyc(zeta),
        "denominator": zeta.den,
        "arithmetic_side": arithmetic.render(),
        "homotopy_side": homotopy.render(),
        "ok": arithmetic == homotopy,
    }
