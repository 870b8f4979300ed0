"""The closed-form homotopy-group tables and their localizations.

Homotopy groups of the J-spectrum, its level variants, the K(1)-local
spheres, and their Dirichlet-twisted versions are all finite direct sums
drawn from a short list of atoms (Z, Z_p, Q/Z, Z/p^e), held as
``exactalg.AbelianGroupExpr``.

Twisted groups are computed two independent ways:

* the direct case tables (prime-power conductor and mixed-conductor
  cases, including the suspended wedge shapes);
* assembly from the p-adic decomposition: one summand per Galois coset
  of the splitting of Z[chi] at p, each evaluated through the per-prime
  tables in the degrees where it can be nonzero.

``pi_jn_chi`` runs both and raises if they ever disagree.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

from . import characters as chmod
from .bernoulli import d2k
from .characters import (
    DirichletCharacter,
    InputError,
    char_inv,
    conductor,
    is_primitive,
    parity,
    prime_to_p_part,
    tame_exponent,
    unit_subgroup,
)
from .cyclotomic import padic_splitting
from .exactalg import AbelianGroupExpr, _vp, factorize, is_prime, staudt_odd_primes
from .padic import PAdicCharacterData, PrimeToPPart


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


def pi_J(i: int) -> AbelianGroupExpr:
    """Homotopy of the KU-local sphere (the J-spectrum)."""
    A = AbelianGroupExpr
    if i == 0:
        return A.free(1) + A.cyclic(2)
    if i == -2:
        return A.q_mod_z()
    if i % 4 == 3 and i != -1:  # i = 4k - 1, k != 0
        k = (i + 1) // 4
        return A.cyclic(d2k(abs(k)))
    if i % 8 == 1:
        return A.cyclic(2) + A.cyclic(2)
    if i % 8 in (0, 2) and i != 0:
        return A.cyclic(2)
    return A.zero()


def d2k_level(k: int, N: int) -> int:
    """D_{2k,N} = N D_{2k} / (2 Pi) for 4 | N, N D_{2k} / Pi for odd N."""
    if k == 0:
        raise ValueError("k must be nonzero")
    if N % 2 == 0 and N % 4 != 0:
        raise ValueError("N = 2 mod 4 must be reduced first")
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
    """Homotopy of the level-N J-spectrum; J(N) = J(2N) reduces even N = 2 mod 4."""
    if N < 1:
        raise InputError("N must be positive")
    if N % 4 == 2:
        N //= 2
    A = AbelianGroupExpr
    if N % 4 == 0:
        if i == 0:
            return A.free(1)
        if i == -2:
            return A.q_mod_z()
        if i % 4 == 3 and i != -1:
            return A.cyclic(d2k_level((i + 1) // 4, N))
        if i % 4 == 1:
            return A.cyclic(N)
        return A.zero()
    # N odd (including N = 1, which reproduces pi_J).
    if i == 0:
        return A.free(1) + A.cyclic(2)
    if i == -2:
        return A.q_mod_z()
    if i % 4 == 3 and i != -1:
        return A.cyclic(d2k_level((i + 1) // 4, N))
    if i % 8 == 1:
        return A.cyclic(N) + A.cyclic(2) + A.cyclic(2)
    if i % 8 == 5:
        return A.cyclic(N)
    if i % 8 in (0, 2) and i != 0:
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
    """Homotopy of the Dirichlet K(1)-local sphere attached to one p-adic summand."""
    p, v, a = data.p, data.v, data.tame
    A = AbelianGroupExpr
    if data.prime_to_p is not None:
        part = data.prime_to_p
        if not part.image_is_p_power:
            return A.zero()
        n = part.wild_image_exp
        if n < 1:
            raise ValueError("p-power image must be nontrivial")
        if p == 2:
            w = max(2, v - n)
            return _tame_eigen_2(w, a, i - 1).times(2)
        w = max(1, v - n)
        return _tame_eigen_odd(p, w, a, i - 1).times(p)
    # Pure p-power conductor.
    if v == 0:
        return pi_K1(p, i)
    if p == 2:
        if v == 2:
            return _tame_eigen_2(2, 1, i)
        if a == 0:
            if i % 8 in (0, 2, 3, 7):
                return A.cyclic(2)
            if i % 8 == 1:
                return A.cyclic(2) + A.cyclic(2)
            return A.zero()
        if i % 8 in (1, 2, 4, 5):
            return A.cyclic(2)
        if i % 8 == 3:
            return A.cyclic(2) + A.cyclic(2)
        return A.zero()
    if v == 1:
        if a == 0:
            raise ValueError("conductor-p characters have nontrivial tame part")
        return _tame_eigen_odd(p, 1, a, i)
    if i % 2 != 0:
        k = (i + 1) // 2
        if (k - a) % (p - 1) == 0:
            return A.cyclic(p)
    return A.zero()


def pi_DK1_primed(data: PAdicCharacterData, i: int) -> AbelianGroupExpr:
    """The alternate-Moore-model tables at p = 2 (exotic-twisted side)."""
    if data.p != 2 or data.prime_to_p is not None:
        raise ValueError("primed tables exist only for pure 2-power conductors")
    A = AbelianGroupExpr
    v = data.v
    if v == 2:
        if i % 4 == 1:
            return A.cyclic(4)
        if i % 8 in (0, 6):
            return A.cyclic(2)
        if i % 8 == 7:
            return A.cyclic(2) + A.cyclic(2)
        return A.zero()
    if v >= 3:
        if data.tame == 0:
            if i % 8 in (3, 4, 6, 7):
                return A.cyclic(2)
            if i % 8 == 5:
                return A.cyclic(2) + A.cyclic(2)
            return A.zero()
        if i % 8 in (0, 1, 5, 6):
            return A.cyclic(2)
        if i % 8 == 7:
            return A.cyclic(2) + A.cyclic(2)
        return A.zero()
    raise ValueError("no primed table for this conductor")


# ---------------------------------------------------------------------------
# p-adic decomposition of a global character


def decompose_p(chi: DirichletCharacter, p: int) -> list[PAdicCharacterData]:
    """Summands of the p-completion, one per Galois coset of Z[chi] at p.

    Each summand is the p-adic character data of the twist chi^b over the
    coset representatives b of the p-adic splitting of Q(zeta_ord(chi)).
    For odd p and conductor p^v the tame exponents sweep exactly
    {a : ker omega^a = ker chi restricted to (Z/p)^x}.  Each call builds
    a fresh list; the callers that read it per character cache what they
    read (``_assembly_summands``, ``_duality_setup``).
    """
    if not is_primitive(chi):
        raise ValueError("chi must be primitive")
    if not is_prime(p):
        raise ValueError("p must be prime")
    N = chi.modulus
    v = _vp(N, p)
    if p == 2 and v == 1:
        raise ValueError("primitive characters never have conductor exponent 1 at 2")
    reps = padic_splitting(chi.order(), p)
    payload: Optional[PrimeToPPart] = None
    if N > p**v:
        m = prime_to_p_part(chi, p).order()
        e = _vp(m, p)
        payload = PrimeToPPart(modulus=N // p**v, wild_image_exp=e, image_is_p_power=(e >= 1 and m == p**e))
    a0 = tame_exponent(chi, p)
    if p == 2:
        return [PAdicCharacterData(p=2, v=v, tame=a0, prime_to_p=payload) for _ in reps]
    return [PAdicCharacterData(p=p, v=v, tame=(b * a0) % (p - 1), prime_to_p=payload) for b in reps]


_Summands = tuple[PAdicCharacterData, ...]


@lru_cache(maxsize=1024)
def _assembly_summands(chi: DirichletCharacter) -> tuple[_Summands, tuple[tuple[int, dict[int, _Summands]], ...]]:
    """The p-completed summands of a primitive nontrivial chi that can be
    nonzero, over the primes dividing its conductor or its order, as
    (every-degree summands, eigen-piece index).

    Each summand of ``decompose_p`` falls in one of three kinds:

    * contractible: the prime-to-p image is not a p-power, so ``pi_DK1``
      is zero in every degree; dropped;
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
            part = s.prime_to_p
            if part is not None and not part.image_is_p_power:
                continue
            if p != 2 and part is None and (s.tame or s.v >= 2):
                eigen.setdefault(s.tame, []).append(s)
            else:
                every_degree.append(s)
        if eigen:
            index.append((p, {a: tuple(group) for a, group in eigen.items()}))
    return tuple(every_degree), tuple(index)


# ---------------------------------------------------------------------------
# Dirichlet J-spectra: direct tables and assembly


def _qualifying_prime(chi: DirichletCharacter) -> Optional[tuple[int, int]]:
    """The prime p with |image(chi')| = p^n (n >= 1), if one exists, with n.

    chi' is the prime-to-p local product; at most one prime qualifies.
    """
    N = chi.modulus
    candidates = set(factorize(N))
    n_ord = chi.order()
    ord_fac = factorize(n_ord)
    if len(ord_fac) == 1:
        candidates.add(next(iter(ord_fac)))
    found = []
    for p in sorted(candidates):
        m = prime_to_p_part(chi, p).order()
        if m == 1:
            continue
        fac = factorize(m)
        if len(fac) == 1 and next(iter(fac)) == p:
            found.append((p, fac[p]))
    if not found:
        return None
    if len(found) != 1:
        raise AssertionError(f"primes {found} all carry a p-power prime-to-p image; at most one can")
    return found[0]


@lru_cache(maxsize=1024)
def _direct_data(chi: DirichletCharacter) -> tuple[bool, Optional[int], int, int, int, Optional[int], int, int]:
    """What the direct tables read off a primitive nontrivial chi; none of it depends on the degree.

    The tuple is (mixed, p, v, n, order, ell, parity, tame order).  For a
    conductor with several primes ``mixed`` is true and p is the one prime
    carrying a p-power prime-to-p image p^n (None when no prime does);
    otherwise p is the conductor's prime and n is 0.  v = v_p(conductor),
    ell is the prime whose power the order is (None when there is none),
    and the tame order is that of chi on the tame part of (Z/p^v)^x.
    """
    fac = factorize(chi.modulus)
    order_fac = factorize(chi.order())
    mixed = len(fac) > 1
    if mixed:
        p, n = _qualifying_prime(chi) or (None, 0)
    else:
        (p,), n = fac, 0
    ell = next(iter(order_fac)) if len(order_fac) == 1 else None
    tame_order = 1 if p is None else chmod.tame_order(chi, p)
    return mixed, p, fac.get(p, 0), n, chi.order(), ell, parity(chi), tame_order


def _direct_case1(p: int, n: int, ell: Optional[int], i: int) -> AbelianGroupExpr:
    """Conductor p > 2, chi of order n (a power of ell, or None): the three printed tables, by image type."""
    A = AbelianGroupExpr

    def p_part(i: int) -> AbelianGroupExpr:
        if i % 2 != 0:
            k = (i + 1) // 2
            if k != 0 and chmod.kernel_order_match(k, p, n):
                return A.cyclic(p ** (_vp(k, p) + 1))
        return A.zero()

    if ell is None:
        return p_part(i)
    injective = n == p - 1
    if ell != 2:
        out = A.zero()
        if i == 0:
            out = out + A.padic(ell, ell)
        if i == 1:
            out = out + A.padic(ell, ell)
            if injective:
                out = out + A.cyclic(p)
        if i % 2 != 0 and i != 1:
            out = out + p_part(i)
        if i % 2 == 0 and i != 0:
            k = i // 2
            if k % (ell - 1) == 0:
                out = out + A.cyclic(ell ** (_vp(k, ell) + 1)).times(ell)
        return out
    # ell = 2 (Fermat-type): the 2-adic wedge contributes at every degree.
    out = A.zero()
    if i == 0:
        out = out + A.padic(2, 2)
    elif i == 1:
        out = out + (A.padic(2) + A.cyclic(2)).times(2)
        if injective:
            out = out + A.cyclic(p)
    elif i % 8 == 2:
        out = out + (A.cyclic(2) + A.cyclic(2)).times(2)
    elif i % 4 == 0 and i != 0:
        out = out + A.cyclic(2 ** (_vp(i // 4, 2) + 3)).times(2)
    if i % 2 != 0 and i != 1:
        if i % 8 in (1, 3):
            out = out + A.cyclic(2).times(2)
        out = out + p_part(i)
    return out


def _direct_case5(p: Optional[int], v: int, n: int, tame_order: int, i: int) -> AbelianGroupExpr:
    """Conductor with several prime factors: contractible unless one prime
    carries a p-power prime-to-p image; then the printed suspended tables."""
    A = AbelianGroupExpr
    if p is None:
        return A.zero()
    if p == 2:
        if tame_order == 1:  # chi is even on the tame part at 2
            if i == 0:
                return A.padic(2, 2)
            if i == 1:
                return (A.padic(2) + A.cyclic(2)).times(2)
            if i % 8 == 2:
                return (A.cyclic(2) + A.cyclic(2)).times(2)
            if i % 8 in (1, 3):
                return A.cyclic(2).times(2)
            if i % 4 == 0 and i != 0:
                k = i // 4
                exp = _vp(k, 2) + (3 if n >= v - 2 else v - n + 1)
                return A.cyclic(2**exp).times(2)
            return A.zero()
        if i % 8 in (3, 5):
            return A.cyclic(2).times(2)
        if i % 8 == 4:
            return (A.cyclic(2) + A.cyclic(2)).times(2)
        if i % 4 == 2:
            exp = 2 if n >= v - 2 else v - n
            return A.cyclic(2**exp).times(2)
        return A.zero()
    if tame_order == 1:
        if i in (0, 1):
            return A.padic(p, p)
    if i % 2 == 0 and i != 0:
        k = i // 2
        if chmod.kernel_order_match(k, p, tame_order):
            exp = _vp(k, p) + (1 if n >= v - 1 else v - n)
            return A.cyclic(p**exp).times(p)
    return A.zero()


def _pi_jnchi_direct(chi: DirichletCharacter, i: int) -> AbelianGroupExpr:
    A = AbelianGroupExpr
    mixed, p, v, n, order, ell, chi_parity, tame_order = _direct_data(chi)
    if mixed:
        return _direct_case5(p, v, n, tame_order, i)
    if p == 2:
        if v == 2:
            if i % 4 == 1:
                return A.cyclic(4)
            if i % 8 in (2, 4):
                return A.cyclic(2)
            if i % 8 == 3:
                return A.cyclic(2) + A.cyclic(2)
            return A.zero()
        # N = 2^v > 4.
        if chi_parity == 1:
            if i % 8 in (0, 2, 3, 7):
                return A.cyclic(2)
            if i % 8 == 1:
                return A.cyclic(2) + A.cyclic(2)
            return A.zero()
        if i % 8 in (1, 2, 4, 5):
            return A.cyclic(2)
        if i % 8 == 3:
            return A.cyclic(2) + A.cyclic(2)
        return A.zero()
    if v == 1:
        return _direct_case1(p, order, ell, i)
    # N = p^v, v > 1, p > 2.
    if i % 2 != 0:
        k = (i + 1) // 2
        if chmod.kernel_order_match(k, p, tame_order):
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
    2k - 1 with k = a (mod p - 1), and a contractible summand is zero in
    every degree, so the sum equals the one over all summands.
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


def pi_JK(N: int, subgroup_gens: Sequence[int], i: int, invert_G: bool = False) -> AbelianGroupExpr:
    """pi_i of J(K) for K the fixed field of H = <subgroup_gens> inside Q(zeta_N).

    N must be 1 or a prime power.  The value is assembled from the tame
    eigen-pieces at the level prime (over the characters of the tame
    quotient trivial on H) plus the untwisted K(1)-local contributions at
    primes not dividing |H|.  Degrees 0 and -1 mix free and divisible
    parts across the fracture square and are not represented; the
    comparison degrees of the Dedekind theorem are 4t - 1.
    """
    if N < 1:
        raise InputError("N must be positive")
    if i in (0, -1):
        raise InputError("degrees 0 and -1 are not represented by the local assembly")
    if N == 2:
        N = 1
    fac = factorize(N) if N > 1 else {}
    if len(fac) > 1:
        raise InputError("N must be 1 or a prime power in this release")
    H = unit_subgroup(N, subgroup_gens)
    hsize = len(H)
    out = AbelianGroupExpr.zero()
    level_p = None
    if fac:
        (level_p, v), = fac.items()
        if level_p == 2:
            tame_trivial = all(h % 4 == 1 for h in H)
            for eps in (0, 1):
                if eps == 1 and not tame_trivial:
                    continue
                out = out + _tame_eigen_2(max(v, 2), eps, i)
        else:
            dlogs = chmod._dlog_table(level_p)
            for a in range(level_p - 1):
                ok = True
                for h in H:
                    e = dlogs[h % level_p][0]
                    if (a * e) % (level_p - 1):
                        ok = False
                        break
                if ok:
                    out = out + _tame_eigen_odd(level_p, v, a, i)
    for ell in [2] + (staudt_odd_primes(abs(i + 1) // 2) if i % 2 else []):
        if ell == level_p or hsize % ell == 0:
            continue
        out = out + pi_K1(ell, i)
    if invert_G:
        out = invert_primes(out, set(factorize(hsize)))
    return out


# ---------------------------------------------------------------------------
# Duality checkers


def _diff_is_z2_only(a: AbelianGroupExpr, b: AbelianGroupExpr) -> bool:
    """Whether a and b agree up to Z/2 summands (both directions)."""
    z2 = AbelianGroupExpr.cyclic(2)
    return a.without(z2) == b.without(z2)


@lru_cache(maxsize=1024)
def _duality_setup(chi: DirichletCharacter) -> tuple[int, int, DirichletCharacter, tuple[int, ...], _Summands]:
    """(p, v, chi^{-1}, loc, summands) for chi of conductor p^v: what each of its duality rows reads.

    ``loc`` holds ell(chi) for odd p when ell(chi) > 1, ``summands`` one
    2-adic summand of chi and one of chi^{-1} for p = 2 (a character's
    2-adic summands are all equal); each is empty otherwise.
    """
    fac = factorize(conductor(chi))
    if len(fac) != 1:
        raise ValueError("conductor must be a prime power")
    (p, v), = fac.items()
    chi_inv = char_inv(chi)
    if p == 2:
        return p, v, chi_inv, (), (decompose_p(chi, 2)[0], decompose_p(chi_inv, 2)[0])
    ell = chmod.ell_of_chi(chi)
    return p, v, chi_inv, () if ell == 1 else (ell,), ()


def check_duality_dirichlet(chi: DirichletCharacter, v: int, t_range: Iterable[int]) -> list[dict]:
    """Brown-Comenetz symmetry pi_t(chi side) = pi_(-2-t)(chi^{-1} side).

    For odd conductor primes both sides are the ell(chi)-localized
    Dirichlet tables.  At p = 2, odd characters pair with the unprimed
    tables of chi^{-1} and even characters with the primed (exotic
    Moore-model) tables.
    """
    p, v_actual, chi_inv, loc, summands = _duality_setup(chi)
    if v_actual != v:
        raise ValueError(f"conductor is {p}^{v_actual}, not {p}^{v}")
    rows = []
    if p != 2:
        for t in t_range:
            lhs = pi_jn_chi(chi, t, loc)
            rhs = pi_jn_chi(chi_inv, -2 - t, loc)
            rows.append({"t": t, "lhs": lhs.render(), "rhs": rhs.render(), "ok": lhs == rhs})
        return rows
    data, data_inv = summands
    even = parity(chi) == 1
    for t in t_range:
        lhs = pi_DK1(data, t)
        rhs = pi_DK1_primed(data_inv, -2 - t) if even else pi_DK1(data_inv, -2 - t)
        rows.append({"t": t, "lhs": lhs.render(), "rhs": rhs.render(), "ok": lhs == rhs})
    return rows


def check_duality_JN(N: int, t_range: Iterable[int]) -> list[dict]:
    """Profinite duality pi_t(J(N)) vs pi_(-2-t)(J(N)).

    Strict for 4 | N; for odd N the match is required only up to Z/2
    summands.  Degrees 0 and -2 pair the free and divisible parts by an
    explicit convention (Z at 0 against Q/Z at -2) and are flagged.
    """
    strict = N % 4 == 0
    rows = []
    for t in t_range:
        lhs = pi_JN(N, t)
        rhs = pi_JN(N, -2 - t)
        if t in (0, -2):
            finite = lhs.finite_part() + rhs.finite_part()
            free_side, div_side = (lhs, rhs) if t == 0 else (rhs, lhs)
            pairing_ok = free_side.free_rank() == 1 and div_side.q_mod_z_count() == 1
            if not strict:
                finite = finite.without(AbelianGroupExpr.cyclic(2))
            ok = pairing_ok and finite.is_zero()
            rows.append(
                {"t": t, "lhs": lhs.render(), "rhs": rhs.render(), "ok": ok, "note": "degenerate-convention"}
            )
            continue
        if strict:
            ok = lhs == rhs
            note = None
        else:
            ok = _diff_is_z2_only(lhs, rhs)
            note = None if lhs == rhs else ("z2-slack" if ok else None)
        row = {"t": t, "lhs": lhs.render(), "rhs": rhs.render(), "ok": ok}
        if note:
            row["note"] = note
        rows.append(row)
    return rows
