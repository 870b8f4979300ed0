"""Ideals of Z[zeta_n] from generators, their products, sums and powers, and Carlitz's test by them.

The library builds a lattice only for a denominator ideal and the full
ring; the Carlitz check decides its ideal by residues mod p.  These are
the lattice constructions the tests keep as oracles: each runs the one
HNF of ``IdealLattice``'s constructor on the z^j multiples of generators.
"""

import math
from fractions import Fraction

from dirichletj.characters import evaluate
from dirichletj.cyclotomic import CycElement, IdealLattice, _norm_and_conjugates, get_field
from dirichletj.exactalg import _vp, factorize, smallest_primitive_root, times_x_rows


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
    g = smallest_primitive_root(p, p - 1)
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
