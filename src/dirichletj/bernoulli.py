"""Ordinary and generalized Bernoulli numbers, L-values, and B_{k,chi}/2k for denominator ideals.

Sign convention: ordinary Bernoulli numbers come from
``F(t) = t e^t / (e^t - 1)``, so B_1 = +1/2.  This differs from the
common B_1 = -1/2 convention and is used consistently everywhere,
including the Bernoulli-polynomial oracle (B_k here equals B_k(1) of
the classical Bernoulli polynomial).  The table of ordinary B_k comes
from the integer tangent-number recurrence, with one ``Fraction`` per
entry built at the end; it shares no code with the generalized series
below.  Tables are built at sizes rounded up to a power of two (at least
32) and sliced, so one table serves every k of a pass.

Generalized Bernoulli numbers B_{k,chi} are computed two independent
ways and cross-asserted on every (chi, k):

* generating function: k! times the t^k coefficient of
  ``sum_a chi(a) t e^{at} / (e^{Nt} - 1)``.  Each primitive character's
  quotient series is grown once, one coefficient per k, and reused
  across k (the ``lru_cache`` ``_series_state``); it is extended only as
  far as the largest k asked for, in integer arithmetic over the power
  basis of Q(zeta_ord(chi)), and its integer vector and denominator
  become the ``CycElement`` as they are.  Each step takes its binomials
  from a Pascal row grown from the previous step's, its powers of N from
  a kept list, and sums only over the earlier B_i that are nonzero;
* Bernoulli-polynomial sum: ``N^(k-1) sum_a chi(a) B_k(a/N)``.  Each
  primitive character keeps, per class of equal chi(a), the integer power
  sums of its residues (the ``lru_cache`` ``_polysum_state``), grown only
  as far as the largest k asked for; B_{k,chi} is read off them and the
  nonzero coefficients of B_k(x), kept as integer numerators over one
  denominator.

Both sum over the classes of residues a with equal chi(a), use the
primitive representative of chi (the defining sum runs over the
conductor) and share nothing beyond ``evaluate``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from .characters import (
    DirichletCharacter,
    InputError,
    _value_exponent,
    evaluate,
    is_primitive,
    kernel_order_match,
    parity,
    primitivize,
)
from .cyclotomic import CycElement, get_field
from .exactalg import (
    _vp,
    factorize,
    padic_invariant_exponents,
    smallest_primitive_root,
    staudt_odd_primes,
    times_x_rows,
)


@lru_cache(maxsize=16)
def _bernoulli_list(k_max: int) -> tuple[Fraction, ...]:
    # Tangent numbers T_1..T_H by the integer recurrence of Knuth and
    # Buckholtz (1967); then B_2h = (-1)^(h-1) 2h T_h / (4^h (4^h - 1)).
    h_max = k_max // 2
    tangent = [0, 1] + [0] * (h_max - 1)
    for k in range(2, h_max + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, h_max + 1):
        for j in range(k, h_max + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    out = [Fraction(1), Fraction(1, 2)] + [Fraction(0)] * (k_max - 1)
    for h in range(1, h_max + 1):
        out[2 * h] = Fraction((-1) ** (h - 1) * 2 * h * tangent[h], 4**h * (4**h - 1))
    return tuple(out[: k_max + 1])


def _bernoulli_table(k: int) -> tuple[Fraction, ...]:
    """B_0, ..., B_k, sliced from the table of the next power of two (at least 32).

    Rounding the size up lets one table serve every k of a pass, where a
    table per k would rebuild the tangent numbers each time.
    """
    return _bernoulli_list(max(32, 1 << k.bit_length()))[: k + 1]


def bernoulli_number(k: int) -> Fraction:
    """B_k with B_1 = +1/2; zero for odd k >= 3."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _bernoulli_table(k)[k]


@lru_cache(maxsize=64)
def _bernoulli_poly_coeffs(k: int) -> tuple[tuple[int, ...], int]:
    """B_k(x) = sum_j c_j x^(k-j) as the integer numerators of c_0..c_k over one denominator.

    The classical polynomial, c_j = C(k, j) B_j^-: the only place the minus
    convention (B_1^- = -1/2) enters.
    """
    bs = _bernoulli_table(k)
    den = math.lcm(*(b.denominator for b in bs))
    nums, binom = [], 1
    for j, b in enumerate(bs):
        nums.append(binom * (-1 if j == 1 else 1) * b.numerator * (den // b.denominator))
        binom = binom * (k - j) // (j + 1)
    return tuple(nums), den


class _SeriesState:
    """B_{j,chi} for j <= K of one primitive chi, read off one growing series.

    With n_j = sum_a chi(a) a^j / j! and q_j the quotient coefficients of
    ``sum_n n_j t^j / ((e^{Nt} - 1)/t)``, B_{j,chi} = j! q_j.  Multiplying
    ``N q_j = n_j - sum_{i<j} q_i N^(j-i+1)/(j-i+1)!`` through by (j+1)!
    gives the step

        N (j+1) B_j = (j+1) m_j - sum_{i<j} C(j+1, i) N^(j-i+1) B_i,

    with m_j = j! n_j = sum_e zeta^e (sum of a^j over the residues a with
    chi(a) = zeta^e), an integer vector over the power basis.  Each B_i is
    kept as an integer vector over one positive denominator in lowest
    terms, the form of ``CycElement``.  The step's binomials are the
    Pascal row C(j+1, .), built from the previous row.  The sum runs only
    over the i with B_i != 0 (half of them vanish by parity), listed in
    ``nonzero``, by Horner's rule in N: each B_i is multiplied by its
    binomial, and the running sum by the power of N that spans the gap to
    the next such i.  Those powers are kept as a list, as far as the
    largest gap.
    """

    __slots__ = ("N", "degree", "classes", "nums", "dens", "lcm", "nonzero", "binom", "npow")

    def __init__(self, chi: DirichletCharacter):
        self.N = chi.modulus
        by_value: dict[tuple, list[int]] = {}
        for a in range(1, self.N + 1):
            val = evaluate(chi, a)
            if val is not None:
                by_value.setdefault(val.nums, []).append(a)
        self.degree = len(next(iter(by_value)))
        # (zeta^e as the field's own integer vector, residues a with chi(a) = zeta^e, a^j for
        # the next j).  Nonzero (coordinate, coefficient) pairs would be a copy per character,
        # about 0.06 MB more peak memory over a perfbench arith-sweep pass.
        self.classes = [(vec, residues, [1] * len(residues)) for vec, residues in by_value.items()]
        self.nums: list[list[int]] = []
        self.dens: list[int] = []
        self.lcm = 1  # of dens
        self.nonzero: list[int] = []  # the i with B_i != 0
        self.binom = [1]  # C(j, .) for the next j
        self.npow = [1]  # N^0, N^1, ... up to the largest gap

    def extend(self, k: int) -> None:
        N, npow, nums, dens = self.N, self.npow, self.nums, self.dens
        while len(nums) <= k:
            j = len(nums)
            row = self.binom
            self.binom = row = [1] + list(map(operator.add, row, row[1:])) + [1]  # C(j+1, .)
            # The largest power this step reads; it bounds every later gap between nonzero B_i.
            e = j + 1 - (self.nonzero[-1] if self.nonzero else 0)
            while len(npow) <= e:
                npow.append(npow[-1] * N)
            m = [0] * self.degree
            for vec, residues, pows in self.classes:
                s = sum(pows)
                for t, c in enumerate(vec):
                    if c:
                        m[t] += c * s
                pows[:] = map(operator.mul, pows, residues)
            L = self.lcm
            # After i, S = sum of C(j+1, i') N^(i-i') L B_i' over the nonzero i' <= i.
            S, prev = [0] * self.degree, 0
            for i in self.nonzero:
                c, f, prev = row[i] * (L // dens[i]), npow[i - prev], i
                for t, x in enumerate(nums[i]):
                    S[t] = S[t] * f + c * x
            f = npow[j + 1 - prev]
            acc = [(j + 1) * L * x - f * s for x, s in zip(m, S)]
            den = N * (j + 1) * L
            g = math.gcd(den, *acc)
            if g != 1:
                acc = [x // g for x in acc]
                den //= g
            nums.append(acc)
            dens.append(den)
            if any(acc):
                self.nonzero.append(j)
            self.lcm = L * den // math.gcd(L, den)


# Growing series state per primitive character, the least recently used dropped
# first: a perfbench pass over every arith-sweep candidate holds 105, `verify all` 73.
@lru_cache(maxsize=512)
def _series_state(chi: DirichletCharacter) -> _SeriesState:
    return _SeriesState(chi)


def _gbn_series(chi: DirichletCharacter, k: int) -> CycElement:
    """k! [t^k] of sum_a chi(a) e^{at} / ((e^{Nt} - 1)/t) over Q(zeta_ord)."""
    state = _series_state(chi)
    state.extend(k)
    return CycElement(get_field(chi.order()), state.nums[k], state.dens[k])


class _PolysumState:
    """Per-class power sums of one primitive chi, for the Bernoulli-polynomial oracle.

    Expanding B_k(x) = sum_j c_j x^(k-j) in ``N^(k-1) sum_a chi(a) B_k(a/N)``
    gives

        N B_{k,chi} = sum_e zeta^e sum_j c_j N^j P_{k-j}(e),

    with P_i(e) the sum of a^i over the residues a with chi(a) = zeta^e.
    ``sums[e]`` holds P_0, P_1, ... of class e; it is grown only as far as
    the largest k asked for.  The c_j are integer numerators over one
    denominator (``_bernoulli_poly_coeffs``), the powers of N are kept in
    ``npow``, and the zero c_j (odd j >= 3) are skipped.
    """

    __slots__ = ("N", "degree", "terms", "residues", "pows", "sums", "npow")

    def __init__(self, chi: DirichletCharacter):
        self.N = chi.modulus
        classes: dict[tuple, list[int]] = {}
        for a in range(1, self.N + 1):
            val = evaluate(chi, a)
            if val is not None:
                classes.setdefault(val.nums, []).append(a)
        self.degree = len(next(iter(classes)))
        # zeta^e of each class as its nonzero (coordinate, coefficient) pairs
        self.terms = [[(t, x) for t, x in enumerate(vec) if x] for vec in classes]
        self.residues = list(classes.values())
        self.pows = [[1] * len(r) for r in self.residues]  # a^i for the next i
        self.sums: list[list[int]] = [[] for _ in self.terms]
        self.npow = [1]  # N^0, N^1, ...

    def value(self, k: int) -> tuple[list[int], int]:
        """Integer vector and denominator of B_{k,chi}."""
        while len(self.sums[0]) <= k:
            for P, pows in zip(self.sums, self.pows):
                P.append(sum(pows))
            self.pows = [list(map(operator.mul, p, r)) for p, r in zip(self.pows, self.residues)]
        npow = self.npow
        while len(npow) <= k:
            npow.append(npow[-1] * self.N)
        cs, den = _bernoulli_poly_coeffs(k)
        # c_j N^j, and the index k - j of its power sum, for the c_j != 0
        scaled = [c * npow[j] for j, c in enumerate(cs) if c]
        index = [k - j for j, c in enumerate(cs) if c]
        nums = [0] * self.degree
        for terms, P in zip(self.terms, self.sums):
            s = sum(map(operator.mul, scaled, map(P.__getitem__, index)))  # sum_j c_j N^j P_{k-j}
            for t, x in terms:
                nums[t] += x * s
        return nums, self.N * den


# Power-sum state of the oracle per primitive character, bounded as the series is.
@lru_cache(maxsize=512)
def _polysum_state(chi: DirichletCharacter) -> _PolysumState:
    return _PolysumState(chi)


def _gbn_polysum(chi: DirichletCharacter, k: int) -> CycElement:
    """Oracle: N^(k-1) sum_e zeta^e sum_{chi(a) = zeta^e} B_k(a/N)."""
    nums, den = _polysum_state(chi).value(k)
    return CycElement(get_field(chi.order()), nums, den)


@lru_cache(maxsize=4096)
def _gbn_primitive(chi: DirichletCharacter, k: int) -> CycElement:
    by_series = _gbn_series(chi, k)
    by_polysum = _gbn_polysum(chi, k)
    if by_series != by_polysum:
        raise AssertionError(
            f"generating-function and polynomial-sum pipelines disagree for "
            f"chi = {chi.modulus}:{chi.index()}, k = {k}"
        )
    return by_series


def gbn(chi: DirichletCharacter, k: int) -> CycElement:
    """Generalized Bernoulli number B_{k,chi} in Q(zeta_ord(chi)).

    Imprimitive characters are reduced to their primitive representative
    first; the two computation pipelines are asserted equal on every call.
    """
    if k < 0:
        raise InputError("k must be nonnegative")
    return _gbn_primitive(primitivize(chi), k)


def l_value(chi: DirichletCharacter, s: int) -> CycElement:
    """L(s; chi) = -B_{k,chi}/k at s = 1 - k, k >= 1."""
    k = 1 - s
    if k < 1:
        raise InputError("special values only at s = 1 - k with k >= 1")
    return gbn(chi, k) * Fraction(-1, k)


def d2k(k: int) -> int:
    """Denominator of B_{2k}/(4k) in lowest terms (the image-of-J order), in closed form.

    It is 2^(2 + v_2(2k)) times p^(1 + v_p(2k)) over the odd primes p with
    (p - 1) | 2k, and no other prime divides it: von Staudt-Clausen, and
    B_{2k}/2k is p-integral when (p - 1) does not divide 2k (Adams, "On the
    groups J(X) IV", 1966).  No Bernoulli number is computed.
    """
    if k < 1:
        raise ValueError("k must be positive")
    out = 2 ** (2 + _vp(2 * k, 2))
    for p in staudt_odd_primes(2 * k):
        out *= p ** (1 + _vp(2 * k, p))
    return out


def denom_ideal(chi: DirichletCharacter, k: int) -> CycElement:
    """B_{k,chi}/(2k), the element that stands for its denominator ideal D of Z[chi].

    D = {y : y B_{k,chi}/2k integral}; ``cyclotomic.denominator_invariants``
    gives Z[chi]/D.  Returns the field's zero, so that D is the full ring, when
    (-1)^k != chi(-1): the paper's convention for the vanishing case.  That
    includes B_{1,chi_0} = 1/2, which is not divided by 2k.
    """
    if not is_primitive(chi):
        raise InputError("chi must be primitive")
    if k < 1:
        raise InputError("k must be positive")
    if (-1) ** k != parity(chi):
        return get_field(chi.order()).zero()
    b = gbn(chi, k) / (2 * k)
    if b.is_zero():
        raise ArithmeticError("B_{k,chi} vanished despite matching parity")
    return b


# ---------------------------------------------------------------------------
# Classical congruence checks


def verify_von_staudt(k_max: int) -> list[dict]:
    """Clausen-von Staudt sweep for B_{2k}, 1 <= k <= k_max.

    Checks (1) denominator of B_{2k} equals the product of all primes p
    with (p-1) | 2k, and (2) the primes dividing the denominator of
    B_{2k}/(4k) are exactly those dividing the denominator of B_{2k}.
    """
    rows = []
    for k in range(1, k_max + 1):
        b = bernoulli_number(2 * k)
        expected = 2 * math.prod(staudt_odd_primes(2 * k))
        denom_ok = b.denominator == expected
        primes_b = set(factorize(b.denominator))
        primes_b4k = set(factorize((b / (4 * k)).denominator))
        prime_ok = primes_b == primes_b4k
        rows.append(
            {
                "k": k,
                "denominator": b.denominator,
                "expected": expected,
                "von_staudt_ok": denom_ok,
                "prime_support_ok": prime_ok,
                "ok": denom_ok and prime_ok,
            }
        )
    return rows


def verify_carlitz(chi: DirichletCharacter, k: int) -> dict:
    """Carlitz's integrality and congruence theorems for B_{k,chi}/k.

    Dispatch: conductor with two or more prime factors -> integrality;
    N = p^v odd -> the mod-p^(v_p(k)+1) congruence (v = 1) or the
    uniformizer congruence (v > 1) for the ideal (p, 1 - chi(g) g^k) of
    Z[zeta_n], n = ord chi, g the smallest primitive root mod p;
    N = 4 -> B/k - k/2 integral; N = 2^v > 4 -> integrality.

    The ideal contains p, so three residue tests decide it, none of which
    builds a lattice (Washington, Introduction to Cyclotomic Fields, ch. 2):

    * unit: modulo a prime P above p the p-power roots of unity are 1, and
      the tame part of chi(g) has order m = n / p^(v_p(n)); the m-th roots
      of unity mod p are all conjugate, so some P contains 1 - chi(g) g^k
      exactly when g^(-k) mod p has order m (``kernel_order_match``);
    * v = 1: n | p - 1, so p splits completely and the proper ideal is one
      degree-1 prime P with Z[zeta]/P^e = Z/p^e.  With chi(g) = zeta^c it
      sends zeta to R, the Teichmuller lift of g^(-k/c) mod p^e, so x lies
      in P^e exactly when x is integral and x(R) = 0 mod p^e;
    * v > 1: (p, y) is pZ[zeta] + yZ[zeta], whose image mod p is the row
      space of multiplication by y, so x lies in it exactly when x is
      integral and its row mod p leaves the rank of those rows unchanged.
    """
    if not is_primitive(chi):
        raise InputError("chi must be primitive")
    if k < 1:
        raise ValueError("k must be positive")
    if (-1) ** k != parity(chi):
        raise ValueError("parity mismatch: B_{k,chi} = 0, nothing to verify")
    N = chi.modulus
    b_over_k = gbn(chi, k) / k
    fac = factorize(N)
    row: dict = {"modulus": N, "index": chi.index(), "k": k}
    if len(fac) > 1:
        row["case"] = "composite"
        row["ok"] = b_over_k.is_integral()
        return row
    (p, v), = fac.items()
    if p == 2:
        if v == 2:
            diff = b_over_k - Fraction(k, 2)
            row["case"] = "mod4"
            row["ok"] = diff.is_integral()
        else:
            row["case"] = "2-power"
            row["ok"] = b_over_k.is_integral()
        return row
    n = chi.order()
    if not kernel_order_match(k, p, n // p ** _vp(n, p)):
        row["case"] = f"p^{v}-unit"
        row["ok"] = b_over_k.is_integral()
        return row
    g = smallest_primitive_root(p, p - 1)
    c = _value_exponent(chi, g)
    if v == 1:
        e = _vp(k, p) + 1
        pe = p**e
        root = pow(pow(g, p ** (e - 1), pe), -k * pow(c, -1, n) % (p - 1), pe)
        x = gbn(chi, k) * p - (p - 1)
        row["case"] = "p-congruence"
        row["modulus_power"] = e
        row["ok"] = x.is_integral() and sum(xj * pow(root, j, pe) for j, xj in enumerate(x.nums)) % pe == 0
        return row
    field = get_field(n)
    chi_1p = evaluate(chi, 1 + p)
    if chi_1p is None:
        raise AssertionError(f"chi = {chi.modulus}:{chi.index()} vanishes at the unit {1 + p}")
    x = (field.one() - chi_1p) * b_over_k - 1
    row["case"] = "p^v-congruence"
    row["ok"] = x.is_integral()
    if row["ok"]:
        gk = pow(g, k, p)
        u = [int(j == 0) - gk * z for j, z in enumerate(field.zeta_power(c).nums)]
        mult = [dict(enumerate(r)) for r in times_x_rows(field.phi_n, u)]
        rank = padic_invariant_exponents(mult, p, 1).count(0)
        row["ok"] = padic_invariant_exponents(mult + [dict(enumerate(x.nums))], p, 1).count(0) == rank
    return row


__all__ = [
    "bernoulli_number",
    "gbn",
    "l_value",
    "d2k",
    "denom_ideal",
    "verify_von_staudt",
    "verify_carlitz",
]
