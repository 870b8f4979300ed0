"""The Smith-normal-form cohomology oracle over Z_p, and the closed-form E2 pages.

The oracle computes finite quotients like Z_p[zeta_{p^(v-1)}] / (w(g) zeta - g^t)
directly as Smith normal forms of multiplication matrices over Z/p^M
(``exactalg.padic_invariant_exponents``), independently of any
closed-form answer.  The matrix of u = w*x - g^t modulo Phi is built as
sparse rows, two entries each but the last, which holds Phi's nonzero
coefficients, so the elimination costs its nonzeros, not d^2.  A matrix
over Z_p with elementary divisors p^(e_i) has Smith form
diag(p^min(e_i, M)) mod p^M, so one elimination at precision M is exact
once every exponent is below M.  The resultant Res(Phi, u), the
determinant up to sign, is computed from Phi and u alone mod p^15, on
every call, by Horner over Phi's nonzero coefficients: p terms for
Phi_(p^m), whose only nonzero coefficients are the p ones at the
multiples of p^(m-1).  Its valuation r = v_p(Res) is the sum of the
exponents, so one elimination mod p^(r+1) is exact, and its exponents
must sum to r.  Every accepted input has r <= 1: Res(Phi_(p^m), w x - c)
is w^d Phi_(p^m)(c/w) up to sign, w a unit, and Phi_(p^m)(x) has
valuation 1 at x = 1 mod p and 0 elsewhere.  A resultant that vanishes
mod p^15 raises ``ArithmeticError``.

Each distinct elimination, with its exponent check, runs once:
``_smith_quotient`` is an ``lru_cache(maxsize=1024)`` keyed on
(Phi, u0 mod p^(r+1), u1 mod p^(r+1), p, r).  The key is exact, since
the elimination reads each entry mod p^(r+1) and every entry is an
integer combination of u0 and u1.  Over a t-sweep, u mod p takes at
most p - 1 values where r = 0, and where r = 1, u mod p^2 repeats with
period p(p-1) in t.  An ``lru_cache`` stores no exception, so an input
whose check fails raises on every call.

``e2_page`` dispatches the closed-form E2 entries of the homotopy
eigen / fixed-point spectral sequences for pure prime-power conductors.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .cyclotomic import cyclotomic_poly
from .exactalg import (
    AbelianGroupExpr,
    InputError,
    Record,
    _vp,
    is_prime,
    padic_invariant_exponents,
    smallest_primitive_root,
    teichmuller,
)


# At most _TOPGENS primes, the oldest dropped first; a homotopy-sweep pass and
# `verify all` ask for at most 4.
_TOPGENS = 128
_TOPGEN_CACHE: dict[int, int] = {}


def topological_generator(p: int) -> int:
    """A topological generator of Z_p^x (p odd) or of 1 + 4 Z_2 (p = 2).

    For odd p this is the smallest positive primitive root mod p^2, which
    generates Z_p^x; for p = 2 the conventional choice is 5.
    """
    if p == 2:
        return 5
    if p in _TOPGEN_CACHE:
        return _TOPGEN_CACHE[p]
    if not is_prime(p):
        raise InputError("p must be prime")
    g = smallest_primitive_root(p * p)
    if len(_TOPGEN_CACHE) >= _TOPGENS:
        del _TOPGEN_CACHE[next(iter(_TOPGEN_CACHE))]
    _TOPGEN_CACHE[p] = g
    return g


@lru_cache(maxsize=128)
def _nonzero_terms(phi: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The (j, phi_j) with phi_j != 0, from the top: p of them for Phi_(p^m)."""
    return tuple((j, c) for j, c in reversed(tuple(enumerate(phi))) if c)


def _resultant_mod(phi: tuple[int, ...], u: list[int], pm: int) -> int:
    """Res(Phi, u) mod pm, up to sign, for monic ``phi`` and u = u0 + u1 x (ascending).

    With c = -u0 and w = u1 this is sum_j phi_j c^j w^(d-j), evaluated by
    Horner over the nonzero phi_j only, from the top: a step from j to the
    next j' < j multiplies by c^(j - j') and adds phi_j' w^(d - j'), and
    c^gap and w^gap are taken once per distinct gap.  For Phi_(p^m) that
    is p terms, all one gap p^(m-1) apart.  It equals the determinant of
    multiplication by u on Z[x]/(Phi) up to sign, from Phi and u alone.
    """
    c, w = -u[0], u[1]
    terms = _nonzero_terms(phi)
    (top, acc), wpow = terms[0], 1
    powers: dict[int, tuple[int, int]] = {}
    for j, coeff in terms[1:]:
        gap = top - j
        if gap not in powers:
            powers[gap] = pow(c, gap, pm), pow(w, gap, pm)
        cg, wg = powers[gap]
        wpow = wpow * wg % pm
        acc = (acc * cg + coeff * wpow) % pm
        top = j
    return acc * pow(c, top, pm) % pm


def _times_u_rows(phi: tuple[int, ...], u0: int, u1: int) -> list[dict[int, int]]:
    """Rows x^j * u modulo the monic ``phi`` for j < deg Phi, as {column: value}, for u = u0 + u1 x.

    Row j < d - 1 is u0 x^j + u1 x^(j+1).  The last row is
    u0 x^(d-1) - u1 (Phi - x^d): column d - 1 and the columns of the
    nonzero coefficients of Phi below x^d, at most p entries for
    Phi_(p^(v-1)).  The d x d matrix has about 2d + p nonzeros; a zero
    entry is left for the elimination to drop.
    """
    d = len(phi) - 1
    rows = [{j: u0, j + 1: u1} for j in range(d - 1)]
    last = {j: -u1 * c for j, c in enumerate(phi[:-1]) if c}
    last[d - 1] = last.get(d - 1, 0) + u0
    rows.append(last)
    return rows


# The precision of the resultant; every accepted oracle input has v_p(Res) <= 1.
_PRECISION = 15


@lru_cache(maxsize=1024)
def _smith_quotient(phi: tuple[int, ...], u0: int, u1: int, p: int, r: int) -> AbelianGroupExpr:
    """Z_p[x]/(Phi, u0 + u1 x) from one Smith elimination mod p^(r+1), given r = v_p(Res).

    The exponents must sum to r, or AssertionError.  Cached on exactly what
    the elimination reads, with u0 and u1 taken mod p^(r+1).
    """
    exps = padic_invariant_exponents(_times_u_rows(phi, u0, u1), p, r + 1)
    if sum(exps) != r:
        raise AssertionError(f"Smith exponents {exps} do not sum to v_{p}(Res) = {r}")
    return AbelianGroupExpr.from_invariants([p**e for e in exps])


def _stable_quotient(phi: tuple[int, ...], u: list[int], p: int) -> AbelianGroupExpr:
    """Z_p[x]/(Phi, u) from one Smith elimination at the precision the resultant fixes.

    ``u`` is u mod p^15 (``_PRECISION``).  Its resultant's valuation
    r = v_p(Res) is the sum of the exponents, so one elimination mod
    p^(r+1) of the sparse rows of u mod p^(r+1) (``_smith_quotient``) caps
    none of them and is exact; a sum other than r raises AssertionError.
    A resultant that vanishes mod p^15 raises ArithmeticError.
    """
    res = _resultant_mod(phi, u, p**_PRECISION)
    if not res:
        raise ArithmeticError(f"Res(Phi, u) vanishes mod {p}^{_PRECISION}")
    r = _vp(res, p)
    pr = p ** (r + 1)
    return _smith_quotient(phi, u[0] % pr, u[1] % pr, p, r)


def quotient_oracle(p: int, v: int, a: int, t: int) -> AbelianGroupExpr:
    """Z_p[zeta_{p^(v-1)}] / (omega^a(g) zeta - g^t) by Smith normal form.

    p odd, v >= 2, 0 <= a <= p-2.  g is the fixed topological generator.
    """
    if not is_prime(p) or p == 2:
        raise InputError("p must be an odd prime")
    if v < 2:
        raise InputError("v must be at least 2")
    if not 0 <= a <= p - 2:
        raise InputError("tame exponent out of range")
    pm = p**_PRECISION
    g = topological_generator(p)
    # u = w*x - g^t in the power basis.
    u = [-pow(g, t, pm) % pm, pow(teichmuller(p, g % p, _PRECISION), a, pm)]
    return _stable_quotient(cyclotomic_poly(p ** (v - 1)), u, p)


def quotient_oracle_2(v: int, t: int) -> AbelianGroupExpr:
    """Z_2[zeta_{2^(v-2)}] / (zeta - 5^t) by Smith normal form, v >= 3."""
    if v < 3:
        raise InputError("v must be at least 3")
    pm = 2**_PRECISION
    return _stable_quotient(cyclotomic_poly(2 ** (v - 2)), [-pow(5, t, pm) % pm, 1], 2)


# ---------------------------------------------------------------------------
# p-adic character data and closed-form E2 pages


class PAdicCharacterData(Record):
    """Everything the closed-form homotopy tables consume at one prime.

    ``tame`` is the Teichmuller exponent a in [0, p-2] for odd p, and the
    parity bit (1 = odd) for p = 2.  ``prime_to_p`` is None at a pure
    p-power conductor, and otherwise the n >= 1 with |image chi'| = p^n for
    chi' the factor of chi prime to p (any other summand is contractible,
    and ``homotopy.decompose_p`` builds none).  Data no primitive character
    has is rejected: n < 1, a nonzero tame datum at v = 0, and tame 0 at
    p = 2, v = 2, where the one character of conductor 4 is odd.  Odd p
    with v = 1 and tame 0 is accepted although no primitive character has
    it: ``e2_page`` reads it as the untwisted page, which ``dirichletj e2
    --prime 5 --level-exp 1 --tame 0`` prints with exit 0, while
    ``homotopy.pi_DK1`` raises ``InputError`` for it.
    """

    __slots__ = _fields = ("p", "v", "tame", "prime_to_p")

    def __init__(self, p: int, v: int, tame: int, prime_to_p: Optional[int] = None):
        if not is_prime(p):
            raise InputError("p must be prime")
        if v < 0:
            raise InputError("v must be nonnegative")
        if p == 2:
            if v == 1:
                raise InputError("conductor exponent 1 at p = 2 cannot occur for primitive characters")
            if tame not in (0, 1):
                raise InputError("2-adic tame datum is a parity bit")
            if v == 2 and tame == 0:
                raise InputError("the conductor-4 character is odd: its tame datum must be 1")
        else:
            if not 0 <= tame <= p - 2:
                raise InputError("tame exponent out of range")
        if v == 0 and tame:
            raise InputError("a trivial p-part (v = 0) must have tame datum 0")
        if prime_to_p is not None and prime_to_p < 1:
            raise InputError("p-power image must be nontrivial")
        self._set(p, v, tame, prime_to_p)


def e2_page(chi_data: PAdicCharacterData, s: int, t: int) -> AbelianGroupExpr:
    """Closed-form E2 entry of the relevant spectral sequence at (s, t).

    Only pure prime-power conductors are supported.  For odd p the pages
    are concentrated in even internal degree, so odd t is rejected; the
    2-adic KO-based pages do carry odd-degree entries and are returned
    as tabulated.
    """
    if chi_data.prime_to_p is not None:
        raise InputError("e2_page requires a pure p-power conductor")
    p, v, a = chi_data.p, chi_data.v, chi_data.tame
    zero = AbelianGroupExpr.zero()
    if s < 0:
        return zero
    if p != 2:
        if t % 2:
            raise InputError("pages are concentrated in even internal degree for odd p")
        k = t // 2
        if v <= 1:
            # Tame part omega^a; a = 0 is the untwisted K(1)-local page.
            if a == 0 and t == 0 and s in (0, 1):
                return AbelianGroupExpr.padic(p)
            if s == 1 and k != 0 and (k - a) % (p - 1) == 0:
                return AbelianGroupExpr.cyclic(p ** (_vp(k, p) + 1))
            return zero
        # v >= 2: one-line page, Z/p exactly on the matching tame stripe.
        if s == 1 and (k - a) % (p - 1) == 0:
            return AbelianGroupExpr.cyclic(p)
        return zero
    # p = 2.
    if v == 0:
        if t == 0 and s in (0, 1):
            return AbelianGroupExpr.padic(2)
        if s in (0, 1) and t % 8 in (1, 2):
            return AbelianGroupExpr.cyclic(2)
        if s == 1 and t % 4 == 0 and t != 0:
            return AbelianGroupExpr.cyclic(2 ** (_vp(t // 4, 2) + 3))
        return zero
    if v == 2:
        if t % 4 == 2:
            if s == 1:
                return AbelianGroupExpr.cyclic(4)
            if s >= 2:
                return AbelianGroupExpr.cyclic(2)
            return zero
        if t % 4 == 0 and s >= 1:
            return AbelianGroupExpr.cyclic(2)
        return zero
    # v >= 3: KO-based pages over 1 + 4 Z_2, split by parity.
    if chi_data.tame == 0:
        if s == 1 and t % 4 == 0:
            return AbelianGroupExpr.cyclic(2)
        if s in (0, 1) and t % 8 in (1, 2):
            return AbelianGroupExpr.cyclic(2)
        return zero
    if s == 1 and t % 4 == 2:
        return AbelianGroupExpr.cyclic(2)
    if s in (0, 1) and t % 8 in (3, 4):
        return AbelianGroupExpr.cyclic(2)
    return zero
