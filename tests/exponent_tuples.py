"""Products, powers and local factors of Dirichlet characters, computed on their exponent tuples.

A character is its tuple of exponents over the canonical generators of
(Z/N)^x, so these are componentwise sums, multiples and slices of that
tuple; the library itself needs none of them.
"""

from dirichletj.characters import DirichletCharacter, get_structure
from dirichletj.exactalg import factorize


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
