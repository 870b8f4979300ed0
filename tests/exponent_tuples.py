"""Values, products, powers and local factors of Dirichlet characters, computed on their exponent tuples.

A character is its tuple of exponents over the canonical generators of
(Z/N)^x, so these are componentwise sums, multiples and slices of that
tuple; the library itself needs none of them.  ``evaluate`` is the tests'
oracle for chi(a): it writes a as a product of powers of the generators,
with no discrete-log table or weights of the library's.
"""

import functools
import itertools
import math

from dirichletj.characters import DirichletCharacter, get_structure
from dirichletj.cyclotomic import CycElement, get_field
from dirichletj.exactalg import factorize


@functools.lru_cache(maxsize=None)
def _unit_exponents(N: int) -> dict[int, tuple[int, ...]]:
    """Each unit mod N with its exponent tuple over the generators, from every product of their powers."""
    gens = get_structure(N).generators
    return {math.prod(pow(g, d, N) for (*_, g, _), d in zip(gens, ds)) % N: ds
            for ds in itertools.product(*(range(order) for *_, order in gens))}


def evaluate(chi: DirichletCharacter, a: int) -> CycElement | None:
    """chi(a) in Q(zeta_ord(chi)), or None when a is not a unit: chi(g_i) = zeta_(o_i)^(e_i) on each generator."""
    ds = _unit_exponents(chi.modulus).get(a % chi.modulus)
    if ds is None:
        return None
    orders, n = chi.structure.orders, chi.order()
    L = math.lcm(*orders)
    t = sum(e * d * (L // o) for e, d, o in zip(chi.exponents, ds, orders)) % L  # chi(a) = zeta_L^t
    assert t * n % L == 0, (chi, a)
    return get_field(n).zeta_power(t * n // L)


def char_mul(a: DirichletCharacter, b: DirichletCharacter) -> DirichletCharacter:
    assert a.modulus == b.modulus
    orders = a.structure.orders
    return DirichletCharacter(a.structure, tuple((x + y) % o for x, y, o in zip(a.exponents, b.exponents, orders)))


def char_pow(a: DirichletCharacter, k: int) -> DirichletCharacter:
    return DirichletCharacter(a.structure, tuple(x * k % o for x, o in zip(a.exponents, a.structure.orders)))


def factor_local(chi: DirichletCharacter) -> dict[int, DirichletCharacter]:
    """{p: chi_p} with chi_p of modulus p^(v_p(N)): the exponents on the generators at p."""
    return {
        p: DirichletCharacter(
            get_structure(p**v), tuple(e for (q, *_), e in zip(chi.structure.generators, chi.exponents) if q == p)
        )
        for p, v in sorted(factorize(chi.modulus).items())
    }
