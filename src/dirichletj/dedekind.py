"""Dedekind zeta special values of abelian fields and the J(K) comparison.

An abelian field K is specified by a cyclotomic level N and generators of
H = Gal(Q(zeta_N)/K) inside (Z/N)^x.  Special values are exact products
of Dirichlet L-values over the characters trivial on H (each reduced to
its primitive representative): one L-value per Galois orbit, whose norm is
the orbit's product, and the orbits must cover those characters exactly.

``verify_jk`` compares the denominator of zeta_K(1-2t) against
pi_{4t-1}(J(K)[1/|H|]) as finite groups away from |H|.  For K = Q the
homotopy side is the classical image of J, whose order is the
denominator of B_{2t}/(4t) — exactly twice the denominator of
zeta(1-2t); the comparison normalizes by that factor of 2 at the prime 2
when |H| is odd (which forces K = Q, since -1 in H makes |H| even for
any N > 2).
"""

from __future__ import annotations

import math

from .bernoulli import l_value
from .characters import DirichletCharacter, InputError, enumerate_characters, _value_exponent, unit_subgroup
from .cyclotomic import CycElement, _norm_and_conjugates, get_field, render_cyc
from .exactalg import AbelianGroupExpr, Record, factorize
from .homotopy import invert_primes, pi_JK


class AbelianFieldSpec(Record):
    """Cyclotomic level N and unit generators of H = Gal(Q(zeta_N)/K)."""

    __slots__ = _fields = ("modulus", "subgroup_gens")

    def __init__(self, modulus: int, subgroup_gens: tuple[int, ...]):
        self._set(modulus, subgroup_gens)

    def subgroup(self) -> set[int]:
        return unit_subgroup(self.modulus, self.subgroup_gens)


def field_characters(spec: AbelianFieldSpec) -> list[DirichletCharacter]:
    """Characters mod N trivial on H; exactly [(Z/N)^x : H] of them."""
    H = spec.subgroup()
    out = []
    for chi in enumerate_characters(spec.modulus):
        if all(_value_exponent(chi, h) == 0 for h in H if h != 0):
            out.append(chi)
    return out


def is_totally_real(spec: AbelianFieldSpec) -> bool:
    """K is totally real iff complex conjugation -1 lies in H."""
    if spec.modulus <= 2:
        return True
    return (spec.modulus - 1) in spec.subgroup()


def zeta_special_value(spec: AbelianFieldSpec, s: int) -> CycElement:
    """zeta_K(s) at s = 1 - k as a product of norms of L-values, an element of Q(zeta_1) = Q.

    L(s, chi^j) = sigma_j(L(s, chi)), so a Galois orbit {chi^j : gcd(j, n = ord chi) = 1},
    whose exponents are j*e mod o, contributes N(L) = N(A)/den^phi(n) for L = A/den of its
    first character.  AssertionError unless the orbits cover the characters exactly.
    """
    k = 1 - s
    if k < 1:
        raise InputError("special values only at s = 1 - k with k >= 1")
    chis = field_characters(spec)
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
        raise AssertionError("the characters trivial on H are not a union of Galois orbits")
    return CycElement(get_field(1), [num], den)


def verify_jk(spec: AbelianFieldSpec, t: int) -> dict:
    """Compare pi_{4t-1}(J(K)[1/|H|]) with Z[1/|H|] / D_{K,2t}.

    Both sides are normalized as finite groups prime to |H|.  When |H|
    is odd (K = Q) the arithmetic side's 2-part is doubled, matching the
    classical B_{2t}/(4t) normalization of the image of J.  The arithmetic
    side is the reduced denominator of zeta_K(1-2t): a prime that cancels
    against the numerator drops out of it, so the comparison fails at
    N = 27, H = <8> for t = 3 (0 vs Z/7) and t = 6, where pi_JK carries a 7
    that the reduced denominator lacks.
    """
    N = spec.modulus
    if N > 1 and len(factorize(N)) != 1:
        raise InputError("N must be 1 or a prime power")
    if not is_totally_real(spec):
        raise InputError("K must be totally real (-1 in H)")
    if t < 1:
        raise InputError("t must be positive")
    H = spec.subgroup()
    hsize = len(H)
    zeta = zeta_special_value(spec, 1 - 2 * t)
    if zeta == 0:
        raise AssertionError("zeta_K(1-2t) vanished for a totally real field")
    denominator = zeta.den
    adjusted = denominator
    if hsize % 2 == 1:
        # K = Q: the homotopy side is Z/D_{2t} with D_{2t} = 2 * denominator.
        adjusted *= 2
    arithmetic = invert_primes(AbelianGroupExpr.cyclic(adjusted), set(factorize(hsize)))
    homotopy = pi_JK(N, spec.subgroup_gens, 4 * t - 1, invert_G=True)
    ok = arithmetic == homotopy
    return {
        "modulus": N,
        "subgroup": sorted(H),
        "t": t,
        "zeta_value": render_cyc(zeta),
        "denominator": denominator,
        "arithmetic_side": arithmetic.render(),
        "homotopy_side": homotopy.render(),
        "ok": ok,
    }
