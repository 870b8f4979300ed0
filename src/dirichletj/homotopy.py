"""The closed-form homotopy-group tables and their localizations.

Homotopy groups of the J-spectra J(N) (J itself is J(1)), the K(1)-local
spheres, and their Dirichlet-twisted versions are all finite direct sums
drawn from a short list of atoms (Z, Z_p, Q/Z, Z/p^e), held as
``exactalg.AbelianGroupExpr``.

Twisted groups are computed two independent ways, each writing a table
once (an odd table of conductor 2^v, v >= 3, is the even one two degrees
up):

* the direct tables: one cached plan per character of suspended wedges
  (the local wedge at conductor p or 4, and the wedge at the character's
  qualifying prime), plus two stripes (2^v with v >= 3, p^v with v >= 2);
* assembly from the p-adic decomposition: one summand per Galois coset
  of the splitting of Z[chi] at p, each evaluated through the per-prime
  tables in the degrees where it can be nonzero.

``pi_jn_chi`` runs both and raises if they ever disagree.  They read no
``characters`` helper in common: the direct tables read the tame order
and the qualifying prime, the assembly the tame exponent and the
prime-to-p order.  Both sides of each duality row of
``check_duality_dirichlet`` are read through it; a primed 2-adic table
is the unprimed one four degrees down.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Optional

from .characters import (
    AbelianField,
    DirichletCharacter,
    InputError,
    char_inv,
    conductor,
    is_primitive,
    parity,
    prime_to_p_order,
    qualifying_prime,
    tame_exponent,
    tame_order,
)
from .cyclotomic import padic_splitting
from .exactalg import AbelianGroupExpr, _vp, d2k, euler_phi, factorize, is_prime, staudt_odd_primes
from .padic import PAdicCharacterData


# ---------------------------------------------------------------------------
# Localization


def invert_primes(g: AbelianGroupExpr, primes: Iterable[int]) -> AbelianGroupExpr:
    """Localize away from the given primes, each checked to be prime."""
    primes = set(primes)
    for p in primes:
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
    return g.away_from(primes)


# ---------------------------------------------------------------------------
# Untwisted tables


def d2k_level(k: int, N: int) -> int:
    """D_{2k,N} = N D_{2k} / (2 Pi) for 4 | N, N D_{2k} / Pi for odd N."""
    if k == 0:
        raise InputError("k must be nonzero")
    if N % 2 == 0 and N % 4 != 0:
        raise InputError("N = 2 mod 4 must be reduced first")
    d = d2k(abs(k))
    pi = 1
    for p in factorize(N):
        if (2 * abs(k)) % (p - 1) == 0:
            pi *= p
    num = N * d
    den = 2 * pi if N % 4 == 0 else pi
    if num % den:
        raise AssertionError(f"D_{{2k,N}} is not integral for k = {k}, N = {N}")
    return num // den


def pi_JN(N: int, i: int) -> AbelianGroupExpr:
    """Homotopy of the level-N J-spectrum; J(N) = J(2N) reduces even N = 2 mod 4, and J(1) is J."""
    if N < 1:
        raise InputError("N must be positive")
    if N % 4 == 2:
        N //= 2
    A = AbelianGroupExpr
    if i == -2:
        return A.q_mod_z()
    if i % 4 == 3 and i != -1:  # i = 4k - 1, k != 0
        return A.cyclic(d2k_level((i + 1) // 4, N))
    if N % 4 == 0:
        if i == 0:
            return A.free(1)
        return A.cyclic(N) if i % 4 == 1 else A.zero()
    if i == 0:
        return A.free(1) + A.cyclic(2)
    if i % 8 == 1:
        return A.cyclic(N) + A.cyclic(2) + A.cyclic(2)
    if i % 8 == 5:
        return A.cyclic(N)
    if i % 8 in (0, 2):
        return A.cyclic(2)
    return A.zero()


def pi_K1(p: int, i: int) -> AbelianGroupExpr:
    """Homotopy of the K(1)-local sphere at p."""
    if not is_prime(p):
        raise InputError(f"p must be prime, got {p}")
    # The untwisted eigen-piece of level p (level 4 at p = 2).
    return _tame_eigen_2(2, 0, i) if p == 2 else _tame_eigen_odd(p, 1, 0, i)


def pi_K1_pv(p: int, v: int, i: int) -> AbelianGroupExpr:
    """Homotopy of the level-p^v Galois extension of the K(1)-local sphere."""
    if not is_prime(p):
        raise InputError(f"p must be prime, got {p}")
    if v < 1 or (p == 2 and v < 2):
        raise InputError("unsupported level exponent")
    A = AbelianGroupExpr
    if i in (0, -1):
        return A.padic(p)
    if i % 2 != 0:
        k = (i + 1) // 2
        if k != 0:
            return A.cyclic(p ** (_vp(k, p) + v))
    return A.zero()


def pi_exotic(i: int) -> AbelianGroupExpr:
    """Homotopy of the exotic K(1)-local sphere at p = 2."""
    A = AbelianGroupExpr
    if i in (0, -1):
        return A.padic(2)
    if i % 4 == 3:
        return A.cyclic(2 ** (_vp((i + 1) // 4, 2) + 3))
    if i % 8 == 5:
        return A.cyclic(2) + A.cyclic(2)
    if i % 8 in (4, 6):
        return A.cyclic(2)
    return A.zero()


# ---------------------------------------------------------------------------
# Tame eigen-pieces of the level-p^w K(1)-local spheres

# These are the omega^a-eigenspaces for the tame subgroup only, leaving
# the wild Galois directions unfixed; they are the building blocks of the
# suspended wedge decompositions for mixed conductors and of J(K).


def _tame_eigen_odd(p: int, w: int, a: int, i: int) -> AbelianGroupExpr:
    A = AbelianGroupExpr
    a = a % (p - 1)
    if a == 0 and i in (0, -1):
        return A.padic(p)
    if i % 2 != 0:
        k = (i + 1) // 2
        if k != 0 and (k - a) % (p - 1) == 0:
            return A.cyclic(p ** (_vp(k, p) + w))
    return A.zero()


def _tame_eigen_2(w: int, eps: int, i: int) -> AbelianGroupExpr:
    A = AbelianGroupExpr
    if eps == 0:
        if i == 0:
            return A.padic(2) + A.cyclic(2)
        if i == -1:
            return A.padic(2)
        if i % 8 == 1:
            return A.cyclic(2) + A.cyclic(2)
        if i % 8 in (0, 2) and i != 0:
            return A.cyclic(2)
        if i % 4 == 3:
            return A.cyclic(2 ** (_vp((i + 1) // 4, 2) + w + 1))
        return A.zero()
    if i % 4 == 1:
        return A.cyclic(2**w)
    if i % 8 in (2, 4):
        return A.cyclic(2)
    if i % 8 == 3:
        return A.cyclic(2) + A.cyclic(2)
    return A.zero()


# ---------------------------------------------------------------------------
# Dirichlet K(1)-local spheres


def pi_DK1(data: PAdicCharacterData, i: int) -> AbelianGroupExpr:
    """Homotopy of the Dirichlet K(1)-local sphere attached to one p-adic summand.

    At a pure conductor 2^v, v >= 3, the odd table (tame 1) is the even one two
    degrees up; both are periodic in i mod 8, so one period checks it."""
    p, v, a = data.p, data.v, data.tame
    A = AbelianGroupExpr
    if data.prime_to_p is not None:
        w = max(2 if p == 2 else 1, v - data.prime_to_p)
        return (_tame_eigen_2(w, a, i - 1) if p == 2 else _tame_eigen_odd(p, w, a, i - 1)).times(p)
    # Pure p-power conductor.
    if v == 0:
        return pi_K1(p, i)
    if p == 2:
        if v == 2:
            return _tame_eigen_2(2, 1, i)
        i -= 2 * a
        if i % 8 in (0, 2, 3, 7):
            return A.cyclic(2)
        if i % 8 == 1:
            return A.cyclic(2) + A.cyclic(2)
        return A.zero()
    if v == 1:
        if a == 0:
            raise InputError("conductor-p characters have nontrivial tame part")
        return _tame_eigen_odd(p, 1, a, i)
    if i % 2 != 0:
        k = (i + 1) // 2
        if (k - a) % (p - 1) == 0:
            return A.cyclic(p)
    return A.zero()


# ---------------------------------------------------------------------------
# p-adic decomposition of a global character


def decompose_p(chi: DirichletCharacter, p: int) -> list[PAdicCharacterData]:
    """Summands of the p-completion, one per Galois coset of Z[chi] at p; none if every one is contractible.

    Each summand is the p-adic character data of the twist chi^b over the
    coset representatives b of the p-adic splitting of Q(zeta_ord(chi)).
    For odd p and conductor p^v the tame exponents sweep exactly
    {a : ker omega^a = ker chi restricted to (Z/p)^x}.  The order m of chi'
    is read off chi's exponent tuple (``prime_to_p_order``).  Unless m is a
    nontrivial p-power p^n, every summand is zero in every degree and the
    list is empty; otherwise each summand records n.  Summands with the
    same tame value are one shared record: at p = 2 every summand is.
    Each call builds a fresh list; ``_assembly_summands``, its one reader
    in this module, caches what it reads per character.
    """
    if not is_primitive(chi):
        raise InputError("chi must be primitive")
    if not is_prime(p):
        raise InputError("p must be prime")
    N = chi.modulus
    v = _vp(N, p)
    if p == 2 and v == 1:
        raise AssertionError("primitive characters never have conductor exponent 1 at 2")
    n = None
    if N > p**v:
        m = prime_to_p_order(chi, p)
        n = _vp(m, p)
        if m != p**n:  # |image chi'| has a prime other than p: every summand is contractible
            return []
    reps = padic_splitting(chi.order(), p)
    a0 = tame_exponent(chi, p)
    tames = [a0] * len(reps) if p == 2 else [b * a0 % (p - 1) for b in reps]
    records = {a: PAdicCharacterData(p=p, v=v, tame=a, prime_to_p=n) for a in set(tames)}
    return [records[a] for a in tames]


_Summands = tuple[PAdicCharacterData, ...]


@lru_cache(maxsize=1024)
def _assembly_summands(chi: DirichletCharacter) -> tuple[_Summands, tuple[tuple[int, dict[int, _Summands]], ...]]:
    """The p-completed summands of a primitive nontrivial chi that can be
    nonzero, over the primes dividing its conductor or its order, as
    (every-degree summands, eigen-piece index).

    ``decompose_p`` builds no contractible summand, and each one it builds
    falls in one of two kinds:

    * a pure odd-p eigen-piece: conductor p^v, tame exponent a, with
      a != 0 or v >= 2.  It is the omega^a eigen-piece (``_tame_eigen_odd``
      at v = 1, the Z/p stripe at v >= 2), nonzero only in degrees 2k - 1
      with k = a (mod p - 1).  The index holds one (p, {a: summands})
      pair per such prime; v is fixed by chi and p;
    * every other summand (p = 2, a p-power prime-to-p image, tame 0 at
      v = 1, where ``pi_DK1`` raises): read in every degree.
    """
    if not is_primitive(chi) or chi.is_trivial():
        raise InputError("chi must be primitive and nontrivial")
    every_degree, index = [], []
    for p in sorted(set(factorize(chi.modulus)) | set(factorize(chi.order()))):
        eigen: dict[int, list[PAdicCharacterData]] = {}
        for s in decompose_p(chi, p):
            if p != 2 and s.prime_to_p is None and (s.tame or s.v >= 2):
                eigen.setdefault(s.tame, []).append(s)
            else:
                every_degree.append(s)
        if eigen:
            index.append((p, {a: tuple(group) for a, group in eigen.items()}))
    return tuple(every_degree), tuple(index)


# ---------------------------------------------------------------------------
# Dirichlet J-spectra: direct tables and assembly


@lru_cache(maxsize=1024)
def _direct_plan(chi: DirichletCharacter) -> tuple[tuple[tuple[int, ...], ...], Optional[tuple[int, int]]]:
    """(wedges, stripe): what the direct tables read off a primitive nontrivial chi, independent of the degree.

    Each wedge (q, w, tame order, shift, copies) adds that many copies of
    ``_direct_wedge(q, w, tame order, i + shift)`` in degree i.  One rule
    holds at every conductor N: N = p or 4 has the local wedge
    (p, 2 if p = 2 else 1, ord chi, 1, 1), and wherever chi has a qualifying
    prime ell, its prime-to-ell part of image ell^n (``qualifying_prime``),
    there is the wedge (ell, max(2 if ell = 2 else 1, v_ell(N) - n), tame
    order at ell, 0, ell).  At N = p that is ell's part: v_ell(N) = 0 and
    the tame order at ell is 1.  The other prime powers p^v read the stripe
    (p, tame order at p) instead: Z/p in each degree 2k - 1 with
    ker omega^k = ker chi at odd p, and a period-8 table at 2^v, v >= 3.
    """
    N, fac = chi.modulus, factorize(chi.modulus)
    wedges = []
    if len(fac) == 1:
        (p,) = fac
        if N not in (p, 4):
            return (), (p, tame_order(chi, p))
        wedges.append((p, 2 if p == 2 else 1, chi.order(), 1, 1))
    found = qualifying_prime(chi)
    if found is not None:
        ell, n = found
        wedges.append((ell, max(2 if ell == 2 else 1, fac.get(ell, 0) - n), tame_order(chi, ell), 0, ell))
    return tuple(wedges), None


def _direct_wedge(q: int, w: int, t: int, i: int) -> AbelianGroupExpr:
    """One of the q summands of the once-suspended wedge at the prime q, with offset w and tame order t.
    At odd q: Z_q in degrees 0 and 1 at t = 1, and Z/q^(v_q(k) + w) in degree 2k
    when ker omega^k = ker chi, i.e. gcd(k, q - 1) t = q - 1.  At q = 2: the
    printed even (t = 1) or odd table, topped by Z/2^(v_2(i/4) + w + 1) at
    i = 0 mod 4 or Z/2^w at i = 2 mod 4."""
    A = AbelianGroupExpr
    if q == 2:
        if t == 1:
            if i in (0, 1):
                return (A.padic(2) + A.cyclic(2)) if i == 1 else A.padic(2)
            if i % 8 == 2:
                return A.cyclic(2) + A.cyclic(2)
            if i % 8 in (1, 3):
                return A.cyclic(2)
            if i % 4 == 0:
                return A.cyclic(2 ** (_vp(i // 4, 2) + w + 1))
            return A.zero()
        if i % 8 in (3, 5):
            return A.cyclic(2)
        if i % 8 == 4:
            return A.cyclic(2) + A.cyclic(2)
        return A.cyclic(2**w) if i % 4 == 2 else A.zero()
    if t == 1 and i in (0, 1):
        return A.padic(q)
    if i % 2 == 0 and i != 0 and math.gcd(i // 2, q - 1) * t == q - 1:
        return A.cyclic(q ** (_vp(i // 2, q) + w))
    return A.zero()


def _pi_jnchi_direct(chi: DirichletCharacter, i: int) -> AbelianGroupExpr:
    A = AbelianGroupExpr
    wedges, stripe = _direct_plan(chi)
    out = A.zero()
    for q, w, t, shift, copies in wedges:
        out = out + _direct_wedge(q, w, t, i + shift).times(copies)
    if stripe is None:
        return out
    p, t = stripe
    if p == 2:
        i -= 2 * (t - 1)  # an odd chi (tame order 2) reads the even table two degrees up
        if i % 8 in (0, 2, 3, 7):
            return A.cyclic(2)
        if i % 8 == 1:
            return A.cyclic(2) + A.cyclic(2)
        return A.zero()
    if i % 2 and math.gcd((i + 1) // 2, p - 1) * t == p - 1:
        return A.cyclic(p)
    return A.zero()


def _pi_jnchi_assembly(chi: DirichletCharacter, i: int) -> AbelianGroupExpr:
    """The p-completion assembly value in degree i; see ``pi_jn_chi_paths``."""
    every_degree, index = _assembly_summands(chi)
    summands = list(every_degree)
    if i % 2:
        k = (i + 1) // 2
        for p, eigen in index:
            summands += eigen.get(k % (p - 1), ())
    return AbelianGroupExpr.direct_sum(pi_DK1(summand, i) for summand in summands)


def pi_jn_chi_paths(chi: DirichletCharacter, i: int) -> tuple[AbelianGroupExpr, AbelianGroupExpr]:
    """(direct-table value, p-completion assembly value) before localization.

    The assembly sums ``pi_DK1`` over the summands of ``_assembly_summands``
    that can be nonzero in degree i: the every-degree summands, and at odd
    i = 2k - 1 the pure odd-p eigen-pieces indexed under k mod (p - 1).  A
    pure odd-p summand is an omega^a eigen-piece, zero outside the degrees
    2k - 1 with k = a (mod p - 1), so the sum equals the one over all
    summands of ``decompose_p``.
    """
    assembled = _pi_jnchi_assembly(chi, i)  # first: its plan rejects an imprimitive or trivial chi
    return _pi_jnchi_direct(chi, i), assembled


def pi_jn_chi(chi: DirichletCharacter, i: int, loc: Iterable[int] = ()) -> AbelianGroupExpr:
    """pi_i of the Dirichlet J-spectrum of chi, optionally localized.

    Computed through the direct case tables and through the p-completion
    assembly; the two must agree exactly, then the localization applies.
    """
    direct, assembled = pi_jn_chi_paths(chi, i)
    if direct != assembled:
        raise AssertionError(
            f"direct table and assembly disagree for chi = {chi.modulus}:{chi.index()}, "
            f"i = {i}: {direct.render()} vs {assembled.render()}"
        )
    return invert_primes(direct, loc)


# ---------------------------------------------------------------------------
# J-spectra of abelian fields


@lru_cache(maxsize=1024)
def _jk_setup(field: AbelianField) -> tuple[Optional[int], int, range, int, tuple[int, ...]]:
    """(p, v, pieces, |H_f|, the primes of |H_f|) for K of conductor f = p^v: what each degree of ``pi_JK`` reads.

    ``pieces`` are the tame eigen-pieces omega^a at p trivial on H_f; f = 1 has p = None and none."""
    fac = factorize(field.conductor)
    if len(fac) > 1:
        raise InputError("N must be 1 or a prime power in this release")
    H = field.subgroup
    (p, v), = fac.items() or [(None, 0)]
    q = 4 if p == 2 else p
    pieces = range(0, euler_phi(q), len({h % q for h in H})) if p else range(0)
    return p, v, pieces, len(H), tuple(factorize(len(H)))


def pi_JK(field: AbelianField, i: int, invert_G: bool = False) -> AbelianGroupExpr:
    """pi_i of J(K) for the abelian field K, read at its conductor f = 1 or p^v and H_f = Gal(Q(zeta_f)/K).

    The value is the sum of the tame eigen-pieces omega^a at p that are
    trivial on H_f, plus the untwisted K(1)-local contributions at primes
    not dividing |H_f|.  With q = p (q = 4 at p = 2) and m the order of
    H_f's image in (Z/q)^x, omega^a is trivial on H_f exactly when m
    divides a, so the pieces taken are the multiples of m in [0, |(Z/q)^x|);
    at p = 2 the odd piece is taken only when every h = 1 mod 4.  Without
    ``invert_G`` the K(1)-local part at each prime not dividing f but |H_f|
    is left out: (7, <2>) gives Z/8 at i = 3, while w_2(K) = 24.  Degrees
    0, -1 and -2 mix free and divisible parts across the fracture square
    (for K = Q, pi_-2 is Q/Z) and are not represented; the comparison
    degrees of the Dedekind theorem are 4t - 1.
    """
    if i in (0, -1, -2):
        raise InputError("degrees 0, -1 and -2 are not represented by the local assembly")
    level_p, v, pieces, order, order_primes = _jk_setup(field)
    out = AbelianGroupExpr.zero()
    for a in pieces:
        out = out + (_tame_eigen_2(v, a, i) if level_p == 2 else _tame_eigen_odd(level_p, v, a, i))
    for ell in [2] + (staudt_odd_primes(abs(i + 1) // 2) if i % 2 else []):
        if ell != level_p and order % ell:
            out = out + pi_K1(ell, i)
    return invert_primes(out, order_primes) if invert_G else out


# ---------------------------------------------------------------------------
# Duality checkers


@lru_cache(maxsize=1024)
def _duality_setup(chi: DirichletCharacter) -> tuple[int, int, DirichletCharacter, tuple[int, ...], int]:
    """(p, v, chi^{-1}, loc, shift) for chi of conductor p^v: what each of its duality rows reads.

    ``loc`` holds ell(chi), chi's qualifying prime, when it has one (never
    at p = 2, where the order of chi is a power of 2) and is empty otherwise.
    """
    fac = factorize(conductor(chi))
    if len(fac) != 1:
        raise InputError("conductor must be a prime power")
    (p, v), = fac.items()
    found = qualifying_prime(chi)
    shift = -6 if p == 2 and parity(chi) == 1 else -2
    return p, v, char_inv(chi), () if found is None else (found[0],), shift


def check_duality_dirichlet(chi: DirichletCharacter, v: int, t_range: Iterable[int]) -> list[dict]:
    """Brown-Comenetz symmetry pi_t(chi side) = pi_(shift-t)(chi^{-1} side).

    Both sides are ``pi_jn_chi`` tables localized at ell(chi) when
    ell(chi) > 1, so each row also passes its direct-vs-assembly check.
    The shift is -2, except for an even chi of conductor 2^v: it pairs
    with the primed (exotic Moore-model) table of chi^{-1}, which is the
    unprimed one four degrees down, so its shift is -6.
    """
    p, v_actual, chi_inv, loc, shift = _duality_setup(chi)
    if v_actual != v:
        raise InputError(f"conductor is {p}^{v_actual}, not {p}^{v}")
    rows = []
    for t in t_range:
        lhs = pi_jn_chi(chi, t, loc)
        rhs = pi_jn_chi(chi_inv, shift - t, loc)
        rows.append({"t": t, "lhs": lhs.render(), "rhs": rhs.render(), "ok": lhs == rhs})
    return rows


def check_duality_JN(N: int, t_range: Iterable[int]) -> list[dict]:
    """Profinite duality pi_t(J(N)) vs pi_(-2-t)(J(N)).

    Strict for 4 | N; for odd N the match is required only up to Z/2
    summands, and a row that matches only so is noted ``z2-slack``.  Degrees
    0 and -2 pair the free and divisible parts by an explicit convention: up
    to the same slack, (lhs, rhs) is (Z, Q/Z) at t = 0 and (Q/Z, Z) at
    t = -2.  Those rows are noted ``degenerate-convention``.
    """
    A = AbelianGroupExpr
    slack = A.zero() if N % 4 == 0 else A.cyclic(2)
    degenerate = {0: (A.free(1), A.q_mod_z()), -2: (A.q_mod_z(), A.free(1))}
    rows = []
    for t in t_range:
        lhs, rhs = pi_JN(N, t), pi_JN(N, -2 - t)
        row = {"t": t, "lhs": lhs.render(), "rhs": rhs.render()}
        bare = lhs.without(slack), rhs.without(slack)
        if t in degenerate:
            row["ok"] = bare == degenerate[t]
            row["note"] = "degenerate-convention"
        else:
            row["ok"] = bare[0] == bare[1]
            if row["ok"] and lhs != rhs:
                row["note"] = "z2-slack"
        rows.append(row)
    return rows
