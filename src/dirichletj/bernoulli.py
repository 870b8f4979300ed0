"""Ordinary and generalized Bernoulli numbers, L-values, and B_{k,chi}/2k for denominator ideals.

Sign convention: ordinary Bernoulli numbers come from
``F(t) = t e^t / (e^t - 1)``, so B_1 = +1/2.  This differs from the
common B_1 = -1/2 convention and is used consistently everywhere,
including the Bernoulli-polynomial oracle (B_k here equals B_k(1) of
the classical Bernoulli polynomial).  The table of ordinary B_k comes
from the integer tangent-number recurrence as reduced (numerator,
denominator) pairs, and ``bernoulli_number`` returns B_k in Q(zeta_1) = Q;
it shares no code with the generalized series below.  Tables are built at
sizes rounded up to a power of two (at least 32) and sliced, so one table
serves every k of a pass.

Generalized Bernoulli numbers B_{k,chi} are computed two independent
ways and cross-asserted on every (chi, k):

* generating function: k! times the t^k coefficient of
  ``sum_a chi(a) t e^{at} / (e^{Nt} - 1)``.  Each primitive character's
  quotient series is grown once, one coefficient per k, and reused
  across k (``_SeriesState``); it is extended only as
  far as the largest k asked for, in integer arithmetic over the power
  basis of Q(zeta_ord(chi)), and its integer vector and denominator
  become the ``CycElement`` as they are.  Each step takes its binomials
  from a Pascal row grown from the previous step's, its powers of N from
  a kept list, and sums only over the earlier B_i that are nonzero.  The
  B_j that parity makes 0 (chi(-1) != (-1)^j, save B_1 = +1/2 of the
  trivial character; Washington, Introduction to Cyclotomic Fields, ch. 4)
  are taken from the theorem: their steps only advance the Pascal row and
  the powers of the residues, and such a k is answered 0 without growing
  the series;
* Bernoulli-polynomial sum: ``N^(k-1) sum_a chi(a) B_k(a/N)``.  Each
  primitive character keeps, for each i and each class of equal chi(a),
  the integer power sum of its residues (``_PolysumState``), grown only
  as far as the largest k asked for; B_{k,chi} is read off them and the
  nonzero coefficients of B_k(x), kept as integer numerators over one
  denominator.  It computes every value, the parity zeros included, so
  the cross-check tests the parity theorem on each of them.

Both sum over the classes of residues a with equal chi(a), use the
primitive representative of chi (the defining sum runs over the
conductor) and share only the character's table of values and its
parity, which only the series reads.  One ``lru_cache``, ``_states``,
holds both states of a character, built from one read of the table
(``value_classes``), a flat ``ValueTable`` that both hold and neither
changes or copies.  Each state keeps one flat list of the powers a^j of
the units, in the table's order, and steps it with one ``map`` when the
next j is asked for; the class sums are sums of its slices at the class
bounds (the powers themselves when each class holds one unit), and a
vector over the power basis is one dot product of per-class sums with
each column of the table.  Neither loops over classes or units in Python
to grow, and neither evaluates chi residue by residue.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

from .characters import (
    DirichletCharacter,
    InputError,
    ValueTable,
    _value_exponent,
    is_primitive,
    kernel_order_match,
    parity,
    primitive_root,
    primitivize,
    value_classes,
)
from .cyclotomic import CycElement, get_field
from .exactalg import (
    _vp,
    factorize,
    poly_gcd_mod_p,
    poly_rem_mod_p,
    teichmuller,
)


@lru_cache(maxsize=16)
def _bernoulli_list(k_max: int) -> tuple[tuple[int, int], ...]:
    # Tangent numbers T_1..T_H by the integer recurrence of Knuth and
    # Buckholtz (1967); then B_2h = (-1)^(h-1) 2h T_h / (4^h (4^h - 1)).
    h_max = k_max // 2
    tangent = [0, 1] + [0] * (h_max - 1)
    for k in range(2, h_max + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, h_max + 1):
        for j in range(k, h_max + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    out = [(1, 1), (1, 2)] + [(0, 1)] * (k_max - 1)
    for h in range(1, h_max + 1):
        num, den = (-1) ** (h - 1) * 2 * h * tangent[h], 4**h * (4**h - 1)
        g = math.gcd(num, den)
        out[2 * h] = (num // g, den // g)
    return tuple(out[: k_max + 1])


def _bernoulli_table(k: int) -> tuple[tuple[int, int], ...]:
    """B_0, ..., B_k as pairs, sliced from the table of the next power of two (at least 32).

    Rounding the size up lets one table serve every k of a pass, where a
    table per k would rebuild the tangent numbers each time.
    """
    return _bernoulli_list(max(32, 1 << k.bit_length()))[: k + 1]


def bernoulli_number(k: int) -> CycElement:
    """B_k with B_1 = +1/2, as an element of Q(zeta_1) = Q; zero for odd k >= 3."""
    if k < 0:
        raise InputError("k must be nonnegative")
    num, den = _bernoulli_table(k)[k]
    return CycElement(get_field(1), [num], den)


@lru_cache(maxsize=64)
def _bernoulli_poly_coeffs(k: int) -> tuple[tuple[int, ...], int]:
    """B_k(x) = sum_j c_j x^(k-j) as the integer numerators of c_0..c_k over one denominator.

    The classical polynomial, c_j = C(k, j) B_j^-: the only place the minus
    convention (B_1^- = -1/2) enters.
    """
    bs = _bernoulli_table(k)
    den = math.lcm(*(d for _, d in bs))
    nums, binom = [], 1
    for j, (n, d) in enumerate(bs):
        nums.append(binom * (-1 if j == 1 else 1) * n * (den // d))
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
    chi(a) = zeta^e), an integer vector over the power basis.  The state
    holds chi's ``ValueTable`` as read and one flat list ``pows`` of the a^j,
    unit by unit in the table's order.  A step takes ``pows`` from the last
    step's by one ``map``, the class sums as sums of its slices at the class
    bounds (``pows`` itself when each class holds one unit), and m_j as one
    dot product of those sums with each column of the table; no Python loop
    runs over classes or units.  Each B_i is kept as an integer vector over
    one positive denominator in lowest terms, the form of ``CycElement``.
    The step's binomials are the Pascal row C(j+1, .), built from the
    previous row.  The sum runs only over the i with B_i != 0, listed in
    ``nonzero``, by Horner's rule in N: each B_i is multiplied by its
    binomial, and the running sum by the power of N that spans the gap to
    the next such i.  Those powers are kept as a list, as far as the
    largest gap.

    Half the B_j vanish by parity (``vanishes``), read once from
    ``characters.parity`` into ``zero_parity``.  Their step computes no
    m_j and no sum: it advances the Pascal row and the powers a^j, and
    keeps B_j as the zero vector over 1.  The polynomial-sum oracle
    computes those zeros, so the theorem is checked wherever it is used.
    """

    __slots__ = ("N", "degree", "table", "pows", "nums", "dens", "lcm", "nonzero", "binom", "npow", "zero_parity")

    def __init__(self, chi: DirichletCharacter, table: ValueTable):
        self.N = chi.modulus
        self.table = table  # read, never changed or copied: the oracle holds the same table
        self.pows = [1] * len(table.units)  # a^j of the last step, a^0 before the first
        self.degree = len(table.columns)
        self.nums: list[list[int]] = []
        self.dens: list[int] = []
        self.lcm = 1  # of dens
        self.nonzero: list[int] = []  # the i with B_i != 0
        self.binom = [1]  # C(j, .) for the next j
        self.npow = [1]  # N^0, N^1, ... up to the largest gap
        self.zero_parity = (1 + parity(chi)) // 2  # j % 2 of the B_j that parity makes 0

    def vanishes(self, j: int) -> bool:
        """B_j = 0 by parity: chi(-1) != (-1)^j, save B_1 = +1/2 of the trivial character."""
        return j % 2 == self.zero_parity and (j > 1 or self.N > 1)

    def extend(self, k: int) -> None:
        N, npow, nums, dens = self.N, self.npow, self.nums, self.dens
        units, bounds, columns = self.table.units, self.table.bounds, self.table.columns
        while len(nums) <= k:
            j = len(nums)
            row = self.binom
            self.binom = row = [1] + list(map(operator.add, row, row[1:])) + [1]  # C(j+1, .)
            if j:
                self.pows = list(map(operator.mul, self.pows, units))
            pows = self.pows
            if self.vanishes(j):
                nums.append([0] * self.degree)
                dens.append(1)
                continue
            # The largest power this step reads; it bounds every later gap between nonzero B_i.
            e = j + 1 - (self.nonzero[-1] if self.nonzero else 0)
            while len(npow) <= e:
                npow.append(npow[-1] * N)
            # Each class's sum of a^j is the sum of its slice of the powers, or its one power
            # when every class holds one unit.
            if len(bounds) > len(units):
                sums = pows
            else:
                slices = map(slice, bounds, itertools.islice(bounds, 1, None))
                sums = list(map(sum, map(pows.__getitem__, slices)))
            m = [sum(map(operator.mul, column, sums)) for column in columns]
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


class _PolysumState:
    """Per-class power sums of one primitive chi, for the Bernoulli-polynomial oracle.

    Expanding B_k(x) = sum_j c_j x^(k-j) in ``N^(k-1) sum_a chi(a) B_k(a/N)``
    gives

        N B_{k,chi} = sum_e zeta^e sum_j c_j N^j P_{k-j}(e),

    with P_i(e) the sum of a^i over the residues a with chi(a) = zeta^e.
    The state holds chi's ``ValueTable`` as read and one flat list ``pows``
    of the a^i.  ``sums[i]`` lists P_i of every class, the sums of the
    slices of ``pows`` at the class bounds (``pows`` itself when each class
    holds one unit), and each next ``pows`` is one ``map``; ``sums`` is
    grown only as far as the largest k asked for, with no Python loop over
    classes or units.  A value combines the P_(k-j) of each class with the
    c_j N^j only when it is asked for, then takes one dot product of those
    per-class sums with each column of the table.  The c_j are integer
    numerators over one denominator (``_bernoulli_poly_coeffs``), the
    powers of N are kept in ``npow``, and the zero c_j (odd j >= 3) are
    skipped.
    """

    __slots__ = ("N", "table", "pows", "sums", "npow")

    def __init__(self, chi: DirichletCharacter, table: ValueTable):
        self.N = chi.modulus
        self.table = table  # read, never changed or copied: the series holds the same table
        self.pows = [1] * len(table.units)  # a^i of the last i in sums, a^0 before the first
        self.sums: list[list[int]] = []  # P_0, P_1, ... of every class
        self.npow = [1]  # N^0, N^1, ...

    def value(self, k: int) -> tuple[list[int], int]:
        """Integer vector and denominator of B_{k,chi}."""
        units, bounds = self.table.units, self.table.bounds
        sums = self.sums
        while len(sums) <= k:
            if sums:
                self.pows = list(map(operator.mul, self.pows, units))
            if len(bounds) > len(units):  # one unit per class
                sums.append(self.pows)
            else:
                slices = map(slice, bounds, itertools.islice(bounds, 1, None))
                sums.append(list(map(sum, map(self.pows.__getitem__, slices))))
        npow = self.npow
        while len(npow) <= k:
            npow.append(npow[-1] * self.N)
        cs, den = _bernoulli_poly_coeffs(k)
        # c_j N^j, and the power sums P_(k-j) of every class, for the c_j != 0
        scaled = list(map(operator.mul, itertools.compress(cs, cs), itertools.compress(npow, cs)))
        rows = itertools.compress(sums[k::-1], cs)
        combined = [sum(map(operator.mul, scaled, P)) for P in zip(*rows)]  # sum_j c_j N^j P_{k-j}, per class
        return [sum(map(operator.mul, column, combined)) for column in self.table.columns], self.N * den


# Both growing states per primitive character, the least recently used dropped first:
# a perfbench pass over every arith-sweep candidate holds 105, `verify all` 73.
@lru_cache(maxsize=512)
def _states(chi: DirichletCharacter) -> tuple[_SeriesState, _PolysumState]:
    table = value_classes(chi)
    return _SeriesState(chi, table), _PolysumState(chi, table)


def _gbn_series(chi: DirichletCharacter, k: int) -> CycElement:
    """k! [t^k] of sum_a chi(a) e^{at} / ((e^{Nt} - 1)/t) over Q(zeta_ord)."""
    state = _states(chi)[0]
    if state.vanishes(k):
        return get_field(chi.order()).zero()
    state.extend(k)
    return CycElement(get_field(chi.order()), state.nums[k], state.dens[k])


def _gbn_polysum(chi: DirichletCharacter, k: int) -> CycElement:
    """Oracle: N^(k-1) sum_e zeta^e sum_{chi(a) = zeta^e} B_k(a/N)."""
    nums, den = _states(chi)[1].value(k)
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
    return gbn(chi, k) / -k


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
    * v > 1: Z[zeta]/(p, y) = F_p[x]/(Phi_n, y) = F_p[x]/(h) with
      h = gcd(Phi_n mod p, y mod p), as F_p[x] is a principal ideal domain,
      so x lies in (p, y) exactly when x is integral and h divides x mod p.
      The ideal is proper there, so deg h >= 1 checks ``kernel_order_match``.
    """
    if not is_primitive(chi):
        raise InputError("chi must be primitive")
    if chi.modulus == 1:
        raise InputError("conductor 1: Carlitz's theorems take chi != 1; the von-staudt suite checks B_k of chi = 1")
    if k < 1:
        raise InputError("k must be positive")
    if (-1) ** k != parity(chi):
        raise InputError("parity mismatch: B_{k,chi} = 0, nothing to verify")
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
            row["case"] = "mod4"
            row["ok"] = ((2 * b_over_k - k) / 2).is_integral()
        else:
            row["case"] = "2-power"
            row["ok"] = b_over_k.is_integral()
        return row
    n = chi.order()
    if not kernel_order_match(k, p, n // p ** _vp(n, p)):
        row["case"] = f"p^{v}-unit"
        row["ok"] = b_over_k.is_integral()
        return row
    g = primitive_root(p)
    c = _value_exponent(chi, g)
    if v == 1:
        e = _vp(k, p) + 1
        pe = p**e
        root = pow(teichmuller(p, g, e), -k * pow(c, -1, n) % (p - 1), pe)
        x = gbn(chi, k) * p - (p - 1)
        row["case"] = "p-congruence"
        row["modulus_power"] = e
        row["ok"] = x.is_integral() and sum(xj * pow(root, j, pe) for j, xj in enumerate(x.nums)) % pe == 0
        return row
    field = get_field(n)
    gk = pow(g, k, p)
    h = poly_gcd_mod_p(field.phi_n, [int(j == 0) - gk * z for j, z in enumerate(field.zeta_power(c).nums)], p)
    if len(h) < 2:
        raise AssertionError(f"Carlitz check at {N}:{chi.index()}, k = {k}: kernel_order_match finds the ideal "
                             f"(p, 1 - chi(g) g^k) proper, but its gcd over F_{p}[x] with Phi_{n} is 1")
    x = (field.one() - field.zeta_power(_value_exponent(chi, 1 + p))) * b_over_k - 1
    row["case"] = "p^v-congruence"
    row["ok"] = x.is_integral() and not any(poly_rem_mod_p(x.nums, h, p))
    return row
