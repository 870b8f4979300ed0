"""Teichmuller residues mod p^M and the Smith-normal-form cohomology oracle.

The oracle computes finite quotients like Z_p[zeta_{p^(v-1)}] / (w(g) zeta - g^t)
directly as Smith normal forms of multiplication matrices over Z/p^M
(``exactalg.padic_invariant_exponents``), independently of any
closed-form answer.  The matrix of u = w*x - g^t modulo Phi is built as
sparse rows, two entries each but the last, which holds Phi's nonzero
coefficients, so the elimination costs its nonzeros, not d^2.  A matrix
over Z_p with elementary divisors p^(e_i) has Smith form
diag(p^min(e_i, M)) mod p^M, so one elimination at precision M is exact
once every exponent is below M.  The resultant
Res(Phi, u), the determinant up to sign, is computed from Phi and u alone
mod p^M, with M starting at 15 and escalating by 5 while it vanishes.
Its valuation r = v_p(Res) is the sum of the exponents, so one
elimination mod p^(r+1) is exact, and its exponents must sum to r;
correctness never depends on a guessed bound.

``e2_page`` dispatches the closed-form E2 entries of the homotopy
eigen / fixed-point spectral sequences for pure prime-power conductors.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .characters import InputError
from .cyclotomic import cyclotomic_poly
from .exactalg import (
    AbelianGroupExpr,
    Record,
    _vp,
    euler_phi,
    is_prime,
    padic_invariant_exponents,
    smallest_primitive_root,
)


@lru_cache(maxsize=128)
def teichmuller(p: int, a: int, M: int) -> int:
    """The unique (p-1)-st root of unity congruent to a mod p, as a residue mod p^M.

    Computed by iterating the p-th power map to its fixed point mod p^M.
    Cached: ``quotient_oracle`` asks for the same lift at every (a, t).
    """
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if a % p == 0:
        raise ValueError("a must be prime to p")
    modulus = p**M
    x = a % modulus
    for _ in range(M + 1):
        y = pow(x, p, modulus)
        if y == x:
            break
        x = y
    if pow(x, p - 1, modulus) != 1:
        raise AssertionError(f"Teichmuller iteration for {a} mod {p}^{M} did not reach a (p-1)-st root of unity")
    return x


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
        raise ValueError("p must be prime")
    g = smallest_primitive_root(p * p, euler_phi(p * p))
    if len(_TOPGEN_CACHE) >= _TOPGENS:
        del _TOPGEN_CACHE[next(iter(_TOPGEN_CACHE))]
    _TOPGEN_CACHE[p] = g
    return g


class PrecisionError(ArithmeticError):
    """Res(Phi, u) vanished mod p^M at every precision tried; retry with a larger M."""


def _resultant_mod(phi: tuple[int, ...], u: list[int], pm: int) -> int:
    """Res(Phi, u) mod pm, up to sign, for monic ``phi`` and u = u0 + u1 x (ascending).

    With c = -u0 and w = u1 this is sum_j phi_j c^j w^(d-j), evaluated by
    Horner.  It equals the determinant of multiplication by u on Z[x]/(Phi)
    up to sign, from Phi and u alone.
    """
    c, w = -u[0], u[1]
    acc, wpow = 0, 1
    for coeff in reversed(phi):
        acc = (acc * c + coeff * wpow) % pm
        wpow = wpow * w % pm
    return acc


def _times_u_rows(phi: tuple[int, ...], u: list[int]) -> list[dict[int, int]]:
    """Rows x^j * u modulo the monic ``phi`` for j < deg Phi, as {column: value}, for u = u0 + u1 x.

    Row j < d - 1 is u0 x^j + u1 x^(j+1).  The last row is
    u0 x^(d-1) - u1 (Phi - x^d): column d - 1 and the columns of the
    nonzero coefficients of Phi below x^d, at most p entries for
    Phi_(p^(v-1)).  The d x d matrix has about 2d + p nonzeros; a zero
    entry is left for the elimination to drop.
    """
    d = len(phi) - 1
    u0, u1 = u
    rows = [{j: u0, j + 1: u1} for j in range(d - 1)]
    last = {j: -u1 * c for j, c in enumerate(phi[:-1]) if c}
    last[d - 1] = last.get(d - 1, 0) + u0
    rows.append(last)
    return rows


def _stable_quotient(phi: tuple[int, ...], u_at, p: int, M: int) -> AbelianGroupExpr:
    """Z_p[x]/(Phi, u) from one Smith elimination at the precision the resultant fixes.

    ``u_at(precision)`` gives u mod p^precision.  Where Res(Phi, u) is
    nonzero mod p^M, its valuation r is v_p(Res), the exponents sum to r,
    so one elimination mod p^(r+1) of the sparse rows of u
    (``_times_u_rows``) caps none of them and is exact; a sum other than r
    raises AssertionError.  Where it vanishes, the precision escalates by 5
    with no elimination run.
    """
    precision = M
    for _ in range(8):
        u = u_at(precision)
        res = _resultant_mod(phi, u, p**precision)
        if res:
            r = _vp(res, p)
            exps = padic_invariant_exponents(_times_u_rows(phi, u), p, r + 1)
            if sum(exps) != r:
                raise AssertionError(f"Smith exponents {exps} do not sum to v_{p}(Res) = {r}")
            return AbelianGroupExpr.from_invariants([p**e for e in exps])
        precision += 5
    raise PrecisionError(f"quotient did not stabilize up to precision {precision}; retry with larger M")


def quotient_oracle(p: int, v: int, a: int, t: int, M: int = 15) -> AbelianGroupExpr:
    """Z_p[zeta_{p^(v-1)}] / (omega^a(g) zeta - g^t) by Smith normal form.

    p odd, v >= 2, 0 <= a <= p-2.  g is the fixed topological generator;
    g^t for negative t goes through the modular inverse.  M is the
    precision of the resultant, which escalates while Res(Phi, u) vanishes
    mod p^M; the one Smith elimination runs mod p^(v_p(Res)+1).
    """
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if v < 2:
        raise ValueError("v must be at least 2")
    if not 0 <= a <= p - 2:
        raise ValueError("tame exponent out of range")
    phi = cyclotomic_poly(p ** (v - 1))
    g = topological_generator(p)

    def u_at(precision: int) -> list[int]:
        pm = p**precision
        w = pow(teichmuller(p, g % p, precision), a, pm)
        gt = pow(g, t, pm) if t >= 0 else pow(pow(g, -1, pm), -t, pm)
        # u = w*x - g^t in the power basis.
        return [(-gt) % pm, w]

    return _stable_quotient(phi, u_at, p, M)


def quotient_oracle_2(v: int, t: int, M: int = 15) -> AbelianGroupExpr:
    """Z_2[zeta_{2^(v-2)}] / (zeta - 5^t) by Smith normal form, v >= 3."""
    if v < 3:
        raise ValueError("v must be at least 3")
    phi = cyclotomic_poly(2 ** (v - 2))

    def u_at(precision: int) -> list[int]:
        pm = 2**precision
        gt = pow(5, t, pm) if t >= 0 else pow(pow(5, -1, pm), -t, pm)
        return [(-gt) % pm, 1]

    return _stable_quotient(phi, u_at, 2, M)


# ---------------------------------------------------------------------------
# p-adic character data and closed-form E2 pages


class PrimeToPPart(Record):
    """Invariants of the prime-to-p factor chi' of a p-adic character."""

    # modulus is N' > 1, and wild_image_exp is v_p(|image chi'|).
    __slots__ = _fields = ("modulus", "wild_image_exp", "image_is_p_power")

    def __init__(self, modulus: int, wild_image_exp: int, image_is_p_power: bool):
        self._set(modulus, wild_image_exp, image_is_p_power)


class PAdicCharacterData(Record):
    """Everything the closed-form homotopy tables consume at one prime.

    ``tame`` is the Teichmuller exponent a in [0, p-2] for odd p, and the
    parity bit (1 = odd) for p = 2.  ``prime_to_p`` is present exactly
    when the conductor has a part N' > 1 prime to p.  Data no primitive
    character has is rejected: a nonzero tame datum at v = 0, and tame 0
    at p = 2, v = 2, where the one character of conductor 4 is odd.  Odd p
    with v = 1 and tame 0 is accepted although no primitive character has
    it: ``e2_page`` reads it as the untwisted page, which ``dirichletj e2
    --prime 5 --level-exp 1 --tame 0`` prints with exit 0, while
    ``homotopy.pi_DK1`` raises ``ValueError`` for it.
    """

    __slots__ = _fields = ("p", "v", "tame", "prime_to_p")

    def __init__(self, p: int, v: int, tame: int, prime_to_p: Optional[PrimeToPPart] = None):
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
        self._set(p, v, tame, prime_to_p)


def e2_page(chi_data: PAdicCharacterData, s: int, t: int) -> AbelianGroupExpr:
    """Closed-form E2 entry of the relevant spectral sequence at (s, t).

    Only pure prime-power conductors are supported.  For odd p the pages
    are concentrated in even internal degree, so odd t is rejected; the
    2-adic KO-based pages do carry odd-degree entries and are returned
    as tabulated.
    """
    if chi_data.prime_to_p is not None:
        raise ValueError("e2_page requires a pure p-power conductor")
    p, v, a = chi_data.p, chi_data.v, chi_data.tame
    zero = AbelianGroupExpr.zero()
    if s < 0:
        return zero
    if p != 2:
        if t % 2:
            raise ValueError("pages are concentrated in even internal degree for odd p")
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
