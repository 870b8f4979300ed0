"""Ideals of Z[zeta_n] as lattices in row HNF: the oracle of the library's element-only ideal code.

The library keeps a denominator ideal as its element and reads every
quotient off local elementary divisors; it computes a lattice only for
the basis diagonal ``bern`` prints, and decides Carlitz's ideal by residues
mod p.  ``IdealLattice`` is the lattice class it used to build every
ideal with: one HNF of generator rows modulo a known multiple of the
index, checked closed under multiplication by z.  Here it builds ideals
from generators, their products, sums and powers, the denominator ideal
the way the library once did (``denominator_lattice``) and Carlitz's test
by those lattices.  ``smith_diagonal`` is a textbook Smith form by row and
column steps over Z, so ``quotient`` shares no elimination with the
library.
"""

import math
from fractions import Fraction
from typing import Sequence

from dirichletj.cyclotomic import CycElement, _norm_and_conjugates, get_field
from dirichletj.exactalg import (
    AbelianGroupExpr,
    _vp,
    factorize,
    hermite_normal_form,
    smallest_primitive_root,
    times_x_rows,
)

from exponent_tuples import evaluate


class IdealLattice:
    """Full-rank sublattice of Z[zeta_n] in row HNF, closed under z-multiplication.

    ``basis`` is the HNF as phi(n) integer rows and ``diagonal()`` its
    pivots.  The constructor takes any integer generator rows and a
    positive ``modulus`` D with D*Z[zeta_n] inside the lattice, computes
    the HNF modulo D, and rejects lattices that are not closed under
    multiplication by ``z``.  The rows may be w > phi(n) wide: the lattice
    is then the set of v with (0, ..., 0, v) in span(rows) + D*Z^w, the
    trailing block of that HNF (a kernel, as ``denominator_lattice`` uses it).
    """

    __slots__ = ("field", "basis")

    def __init__(self, field, rows: Sequence[Sequence[int]], modulus: int):
        d = field.degree
        lead = len(rows[0]) - d if rows else -1
        if lead < 0 or any(len(row) != d + lead for row in rows):
            raise ValueError("generator rows must be nonempty and at least phi(n) wide")
        self.basis = [row[lead:] for row in hermite_normal_form(rows, modulus)[lead:]]
        self.field = field
        if not all(self._contains_vector(times_x_rows(field.phi_n, row, 2)[1]) for row in self.basis):
            raise ValueError("lattice is not closed under multiplication by zeta")

    def _contains_vector(self, vec: Sequence[int]) -> bool:
        h = self.basis
        x = list(vec)
        for i in range(self.field.degree):
            p = h[i][i]
            if x[i] % p:
                return False
            q = x[i] // p
            if q:
                for k in range(i, self.field.degree):
                    x[k] -= q * h[i][k]
        return all(c == 0 for c in x)

    @classmethod
    def full_ring(cls, field) -> "IdealLattice":
        return cls(field, [[int(i == j) for j in range(field.degree)] for i in range(field.degree)], 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, IdealLattice) and self.field.n == other.field.n and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.field.n, tuple(tuple(r) for r in self.basis)))

    def __repr__(self) -> str:
        return f"IdealLattice(n={self.field.n}, diag={self.diagonal()})"

    def diagonal(self) -> list[int]:
        """The HNF pivots, one per coordinate."""
        return [row[i] for i, row in enumerate(self.basis)]

    def index(self) -> int:
        """Index [Z[zeta] : I] = product of HNF pivots."""
        return math.prod(self.diagonal())

    def is_full_ring(self) -> bool:
        return self.index() == 1

    def contains(self, x: CycElement) -> bool:
        if x.field.n != self.field.n:
            raise ValueError("ideal field mismatch")
        return x.den == 1 and self._contains_vector(x.nums)


def smith_diagonal(rows: Sequence[Sequence[int]]) -> list[int]:
    """The Smith diagonal of a nonsingular square integer matrix, positive with d[i] | d[i+1].

    Textbook row and column steps over Z: move an entry of least absolute
    value in the trailing block to the pivot, reduce its row and column by
    it, and repeat until both are clear; then fold in any row whose entries
    the pivot does not divide.
    """
    a = [list(row) for row in rows]
    n = len(a)
    for t in range(n):
        while True:
            i, j = min(((i, j) for i in range(t, n) for j in range(t, n) if a[i][j]),
                       key=lambda ij: abs(a[ij[0]][ij[1]]))
            a[t], a[i] = a[i], a[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for i in range(t + 1, n):
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):
                q = a[t][j] // p
                for row in a:
                    row[j] -= q * row[t]
            if any(a[i][t] for i in range(t + 1, n)) or any(a[t][t + 1:]):
                continue
            bad = next((i for i in range(t + 1, n) if any(x % p for x in a[i][t + 1:])), None)
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
    return [abs(a[i][i]) for i in range(n)]


def quotient(ideal: IdealLattice) -> AbelianGroupExpr:
    """Z[zeta_n]/ideal from the textbook Smith form of its HNF basis."""
    return AbelianGroupExpr.from_invariants(smith_diagonal(ideal.basis))


def denominator_lattice(a: CycElement) -> IdealLattice:
    """D(a) = {x : x*a integral} as the library once built it: the kernel of v -> v*A mod c, A/c = a.

    The trailing block of the HNF modulo c of the rows [A | I], with A
    the multiplication-by-``a.nums`` matrix; the full ring for integral ``a``.
    """
    field, d = a.field, a.field.degree
    if a.den == 1:
        return IdealLattice.full_ring(field)
    rows = [arow + [int(i == j) for j in range(d)] for i, arow in enumerate(times_x_rows(field.phi_n, a.nums))]
    return IdealLattice(field, rows, a.den)


def from_generators(field, gens) -> IdealLattice:
    """Z-lattice spanned by g * z^j over all generators g.

    A rational integer generator m puts m*Z[zeta_n] inside the lattice, so
    the gcd of those is the HNF modulus; with none, the gcd of the norms
    |N(g)| is.
    """
    gens = [field.from_rational(g) if isinstance(g, (int, Fraction)) else g for g in gens]
    assert all(g.is_integral() for g in gens), "ideal generators must be integral"
    rows = [row for g in gens for row in times_x_rows(field.phi_n, g.nums)]
    modulus = math.gcd(*(g.nums[0] for g in gens if g.is_rational()))
    if not modulus:
        modulus = math.gcd(*(_norm_and_conjugates(g)[0] for g in gens))
    return IdealLattice(field, rows, modulus)


def principal(field, g) -> IdealLattice:
    return from_generators(field, [g])


def basis_elements(ideal: IdealLattice) -> list[CycElement]:
    return [CycElement(ideal.field, row) for row in ideal.basis]


def ideal_product(a: IdealLattice, b: IdealLattice) -> IdealLattice:
    """The d^2 products of basis elements span ab, since a and b are z-closed.

    index(a)*index(b) kills Z[zeta]/a and Z[zeta]/b, so it lies in ab.
    """
    assert a.field.n == b.field.n
    rows = [(x * y).nums for x in basis_elements(a) for y in basis_elements(b)]
    return IdealLattice(a.field, rows, a.index() * b.index())


def ideal_sum(a: IdealLattice, b: IdealLattice) -> IdealLattice:
    assert a.field.n == b.field.n
    return IdealLattice(a.field, a.basis + b.basis, math.gcd(a.index(), b.index()))


def ideal_power(a: IdealLattice, e: int) -> IdealLattice:
    out = a if e else IdealLattice.full_ring(a.field)
    for _ in range(e - 1):
        out = ideal_product(out, a)
    return out


def carlitz_p_ideal(chi, k: int) -> IdealLattice:
    """The ideal (p, 1 - chi(g) g^k) of Z[chi] for conductor p^v, p odd, g the smallest primitive root mod p."""
    (p, _v), = factorize(chi.modulus).items()
    field = get_field(chi.order())
    g = smallest_primitive_root(p)
    return from_generators(field, [field.from_rational(p), field.one() - evaluate(chi, g) * g**k])


def carlitz_by_ideals(chi, k: int, b: CycElement) -> tuple[str, bool]:
    """(case, ok) of Carlitz's congruence at odd conductor p^v for the value b of B_{k,chi}, by lattices.

    The unit case when the ideal is the full ring; for v = 1 membership of
    p*b - (p - 1) in its (v_p(k) + 1)-st power; for v > 1 membership of
    (1 - chi(1 + p)) b/k - 1 in the ideal itself.
    """
    (p, v), = factorize(chi.modulus).items()
    ideal = carlitz_p_ideal(chi, k)
    if ideal.is_full_ring():
        return f"p^{v}-unit", (b / k).is_integral()
    if v == 1:
        return "p-congruence", ideal_power(ideal, _vp(k, p) + 1).contains(b * p - (p - 1))
    x = (ideal.field.one() - evaluate(chi, 1 + p)) * (b / k) - 1
    return "p^v-congruence", ideal.contains(x)
