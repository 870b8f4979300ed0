"""Dirichlet characters chi: (Z/N)^x -> Q(zeta)^x.

Characters are stored as exponent tuples over a canonical generator
decomposition of the unit group:

* odd p^v: one generator, the smallest positive primitive root mod p^v
  (verified at construction);
* 2: no generator; 4: [3] of order 2; 2^v (v >= 3): [2^v - 1, 5] of
  orders 2 and 2^(v-2).

Values land in Q(zeta_n) with n the order of the character, the minimal
field; coercion into larger cyclotomic fields is explicit.  Each character
computes its order and the weights e_i * n / o_i once, so a value is one
dot product mod n with the discrete-log tuple of the argument, and
``value_classes`` groups all units by value in one pass, into one flat
read-only ``ValueTable``.  The
conductor is read off the exponent tuple, one prime at a time (see
``conductor``), without evaluating the character.  The generators of
(Z/N)^x are those of each (Z/p^v)^x CRT-lifted, in prime order, so the
local factor chi_p is the slice of the exponent tuple at p, the
prime-to-p part chi' is the rest of it (its order is read off that
rest), the tame order and Teichmuller exponent at p are read off the
first exponent at p, and the parity off the first exponent at each
prime; nothing outside this module needs the generator layout.  Character
``N:i`` on the CLI refers to index ``i`` in the deterministic
mixed-radix enumeration below (index 0 is the trivial character).
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import Sequence

from .cyclotomic import CycElement, get_field
from .exactalg import (InputError, Record, _crt_lift, _multiplicative_order, _vp, euler_phi, factorize, is_prime,
                       smallest_primitive_root)


class UnitGroupStructure(Record):
    """Canonical cyclic decomposition of (Z/N)^x with CRT-lifted generators."""

    __slots__ = ("modulus", "generators", "orders", "_hash")
    _fields = ("modulus", "generators")

    def __init__(self, modulus: int, generators: tuple[tuple[int, int, int, int], ...]):
        # One entry per generator: (prime, prime_exponent, lifted generator, order).
        self._set(modulus, generators, tuple(g[3] for g in generators), hash((modulus, generators)))

    def __hash__(self) -> int:
        return self._hash

    def phi(self) -> int:
        return math.prod(self.orders)


@lru_cache(maxsize=128)
def get_structure(N: int) -> UnitGroupStructure:
    if N < 1:
        raise InputError("modulus must be positive")
    gens: list[tuple[int, int, int, int]] = []
    for p, v in sorted(factorize(N).items()):
        q = p**v
        if p == 2:
            if v == 1:
                continue
            if v == 2:
                locals_ = [(3, 2)]
            else:
                locals_ = [(q - 1, 2), (5, 2 ** (v - 2))]
        else:
            phi = euler_phi(q)
            locals_ = [(smallest_primitive_root(q, phi), phi)]
        for g, order in locals_:
            if p == 2 and _multiplicative_order(g, q) != order:  # smallest_primitive_root walked the odd ones
                raise AssertionError(f"generator {g} mod {q} does not have order {order}")
            gens.append((p, v, _crt_lift(g, q, N), order))
    structure = UnitGroupStructure(modulus=N, generators=tuple(gens))
    if structure.phi() != euler_phi(N):
        raise AssertionError(f"generator orders of (Z/{N})^x do not multiply to phi({N})")
    return structure


@lru_cache(maxsize=128)
def _dlog_table(N: int) -> dict[int, tuple[int, ...]]:
    """Exponent tuples of every unit mod N over the canonical generators; the key 0 is the unit 1 at N = 1."""
    # (Z/N)^x is the direct product of the generators' cyclic groups: the table over the
    # first i generators times every power of the next one is the table over i + 1.
    table: dict[int, tuple[int, ...]] = {1 % N: ()}
    for _, _, g, order in get_structure(N).generators:
        powers = [1]
        for _ in range(order - 1):
            powers.append(powers[-1] * g % N)
        table = {a * x % N: exps + (e,) for a, exps in table.items() for e, x in enumerate(powers)}
    if len(table) != get_structure(N).phi():  # so a residue missing from the table is a non-unit
        raise AssertionError(f"the generators of (Z/{N})^x reach {len(table)} units, not phi({N})")
    return table


class DirichletCharacter(Record):
    """Exponent tuple over the canonical generators of (Z/N)^x."""

    __slots__ = ("structure", "exponents", "_order", "_weights", "_hash")
    _fields = ("structure", "exponents")

    def __init__(self, structure: UnitGroupStructure, exponents: tuple[int, ...]):
        orders = structure.orders
        if len(exponents) != len(orders):
            raise ValueError("exponent tuple has wrong length")
        # chi(g_i) = zeta_{o_i}^{e_i} = zeta_n^{e_i * n / o_i}, with n the lcm of
        # the value orders o_i / gcd(e_i, o_i) seen so far; when n grows by a
        # factor f, the weights before it grow by f.
        n, weights = 1, []
        for e, o in zip(exponents, orders):
            if not 0 <= e < o:
                raise ValueError("exponents must be reduced modulo generator orders")
            m = o // math.gcd(e, o)
            if n % m:
                f = m // math.gcd(n, m)
                n *= f
                weights = [w * f for w in weights]
            if (e * n) % o:
                raise AssertionError(f"weight e * n / o is not integral for e = {e}, n = {n}, o = {o}")
            weights.append(e * n // o)
        # Slot by slot, without ``_set``'s loop: characters are built by the thousand.
        setattr_ = object.__setattr__
        setattr_(self, "structure", structure)
        setattr_(self, "exponents", exponents)
        setattr_(self, "_order", n)
        setattr_(self, "_weights", tuple(weights))
        setattr_(self, "_hash", hash((structure, exponents)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def modulus(self) -> int:
        return self.structure.modulus

    def order(self) -> int:
        return self._order

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def index(self) -> int:
        """Position in the mixed-radix enumeration order."""
        idx = 0
        for e, o in zip(self.exponents, self.structure.orders):
            idx = idx * o + e
        return idx

    def __repr__(self) -> str:
        return f"DirichletCharacter({self.modulus}:{self.index()})"


def _decode(st: UnitGroupStructure, index: int) -> DirichletCharacter:
    """The character at ``index`` in mixed-radix order; the inverse of ``index()``."""
    exps = []
    for o in reversed(st.orders):
        index, e = divmod(index, o)
        exps.append(e)
    return DirichletCharacter(st, tuple(reversed(exps)))


def enumerate_characters(N: int) -> list[DirichletCharacter]:
    """All phi(N) characters mod N in deterministic mixed-radix order."""
    st = get_structure(N)
    return [_decode(st, idx) for idx in range(st.phi())]


@lru_cache(maxsize=1024)
def character_from_index(N: int, index: int) -> DirichletCharacter:
    """The character at ``index`` mod N, shared: equal calls return the identical object.

    The per-character caches downstream then hit on identity, without
    comparing equal characters field by field.  An out-of-range index
    raises ``InputError`` on every call; no error is cached.
    """
    st = get_structure(N)
    total = st.phi()
    if not 0 <= index < total:
        raise InputError(f"character index out of range: {index} (phi({N}) = {total})")
    return _decode(st, index)


def _value_exponent(chi: DirichletCharacter, a: int) -> int | None:
    """t with chi(a) = zeta_n^t (n = order of chi), or None on non-units."""
    exps = _dlog_table(chi.modulus).get(a % chi.modulus)
    return None if exps is None else sum(map(operator.mul, chi._weights, exps)) % chi._order


def evaluate(chi: DirichletCharacter, a: int) -> CycElement | None:
    """chi(a) as a CycElement of Q(zeta_ord(chi)); None marks chi(a) = 0."""
    t = _value_exponent(chi, a)
    return None if t is None else get_field(chi.order()).zeta_power(t)


class ValueTable(Record):
    """chi's values on the units 1 <= a <= N, one read-only table that every reader shares.

    ``units`` lists the units class by class, a class holding the a of equal chi(a):
    class c is ``units[bounds[c]:bounds[c + 1]]``.  chi's value zeta^e on class c has
    coordinate ``columns[t][c]`` at zeta^t of the power basis, so a column is one
    coordinate of every class's value.
    """

    __slots__ = ("units", "bounds", "columns")
    _fields = ("units", "bounds", "columns")

    def __init__(self, units: tuple[int, ...], bounds: tuple[int, ...], columns: tuple[tuple[int, ...], ...]):
        self._set(units, bounds, columns)


def value_classes(chi: DirichletCharacter) -> ValueTable:
    """The units 1 <= a <= N grouped by chi(a), the classes in no fixed order, as one ``ValueTable``.

    One pass over the discrete-log table: one dot product per unit and one field element per class.
    """
    n, weights = chi._order, chi._weights
    by_exponent: dict[int, list[int]] = {}
    for a, exps in _dlog_table(chi.modulus).items():
        by_exponent.setdefault(sum(map(operator.mul, weights, exps)) % n, []).append(a or 1)
    field = get_field(n)
    return ValueTable(tuple(itertools.chain.from_iterable(by_exponent.values())),
                      tuple(itertools.accumulate(map(len, by_exponent.values()), initial=0)),
                      tuple(zip(*(field.zeta_power(t).nums for t in by_exponent))))


def parity(chi: DirichletCharacter) -> int:
    """chi(-1), +-1, read off the exponent tuple without evaluating the character.

    At each prime, -1 is g^(o/2) on the first generator g, of order o (the
    generator is -1 itself at 2^v, and 3 = -1 at v = 2), and 1 on the
    generator 5, so chi(-1) is -1 raised to the sum of the first exponents
    at each prime.
    """
    first, prev = 0, None
    for (p, *_), e in zip(chi.structure.generators, chi.exponents):
        if p != prev:
            first, prev = first + e, p
    return -1 if first % 2 else 1


def conductor(chi: DirichletCharacter) -> int:
    """Smallest M | N with chi trivial on the kernel of (Z/N)^x -> (Z/M)^x.

    The conductor is the product of the local conductors p^f, read off the
    exponents e on the generators at p.  For odd p^v the units congruent to
    1 mod p^f form the subgroup generated by g^(p^(f-1) (p-1)), on which
    chi is trivial iff p^(v-f) | e: so f = v - v_p(e), and f = 0 when e = 0.
    At 2^v (v >= 3) the same holds for the generator 5 with f = v - v_2(e);
    when chi is trivial on 5, f = 2 if chi(-1) = -1 (or chi(3) = -1 at
    v = 2) and f = 0 otherwise.
    """
    local: dict[int, int] = {}
    for (p, v, g, _), e in zip(chi.structure.generators, chi.exponents):
        if e:
            # At 2 the generator -1 (3 at v = 2) is the one that is 3 mod 4.
            f = 2 if p == 2 and g % 4 == 3 else v - _vp(e, p)
            local[p] = max(local.get(p, 0), f)
    return math.prod(p**f for p, f in local.items())


def is_primitive(chi: DirichletCharacter) -> bool:
    return conductor(chi) == chi.modulus


def char_inv(a: DirichletCharacter) -> DirichletCharacter:
    exps = tuple((-x) % o for x, o in zip(a.exponents, a.structure.orders))
    return DirichletCharacter(a.structure, exps)


@lru_cache(maxsize=1024)
def primitivize(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character mod conductor(chi) inducing chi."""
    M = conductor(chi)
    if M == chi.modulus:
        return chi
    st = get_structure(M)
    exps = []
    for _, _, g, order in st.generators:
        # The first lift b of g mod M that is a unit mod N (one exists since M | N), and chi(b) = zeta_n^t.
        b = g
        while (t := _value_exponent(chi, b)) is None:
            b += M
        n = chi.order()
        # chi(b) = zeta_n^t must be an order-dividing-`order` root: exponent on g.
        if (t * order) % n:
            raise AssertionError(f"chi({b}) = zeta_{n}^{t} is not an {order}-th root of unity")
        exps.append((t * order // n) % order)
    out = DirichletCharacter(st, tuple(exps))
    if out.order() != chi.order():
        raise AssertionError(f"primitive character mod {M} has order {out.order()}, not {chi.order()}")
    return out


def prime_to_p_order(chi: DirichletCharacter, p: int) -> int:
    """The order of chi' = prod_{q != p} chi_q, the character mod N / p^(v_p(N)) chi induces.

    chi' takes the values zeta_(o_i)^(e_i) on the generators at the primes
    q != p, so its order is the lcm of o_i / gcd(e_i, o_i) over them; it is
    the order of chi when p does not divide N.
    """
    return math.lcm(*(o // math.gcd(e, o) for (q, *_, o), e in zip(chi.structure.generators, chi.exponents)
                      if q != p))


def qualifying_prime(chi: DirichletCharacter) -> tuple[int, int] | None:
    """(ell, n) for the prime ell whose prime-to-ell part chi' has an image of order ell^n, n >= 1; None if none.

    chi' takes the values zeta_m^(w_i) on the generators at the primes other
    than ell, for m = ord(chi) and chi's weights w_i, so its image has order
    m / gcd(m, those w_i), a divisor of m: only the primes of m are scanned,
    and at most one of them qualifies.
    """
    m, found = chi._order, []
    for ell in factorize(m):
        image = m // math.gcd(m, *[w for g, w in zip(chi.structure.generators, chi._weights) if g[0] != ell])
        n = _vp(image, ell)
        if n and image == ell**n:
            found.append((ell, n))
    if len(found) > 1:
        raise AssertionError(f"primes {found} all carry a p-power prime-to-p image; at most one can")
    return found[0] if found else None


def ell_of_chi(chi: DirichletCharacter) -> int:
    """The auxiliary prime ell(chi) of a character of conductor 1 or p^v: the prime of ``qualifying_prime``, else 1.

    At conductor p^v that is the ell != p with |image(chi)| = ell^n: the
    prime-to-p part is trivial, so p never qualifies, as inverting p would
    trivialize the denominator comparison.
    """
    if len(factorize(conductor(chi))) > 1:
        raise ValueError("conductor is not a prime power")
    found = qualifying_prime(chi)
    return 1 if found is None else found[0]


def kernel_order_match(k: int, p: int, chi_tame_order: int) -> bool:
    """Whether ker omega^k = ker chi inside the cyclic group (Z/p)^x.

    Subgroups of a cyclic group are determined by their order, so the
    comparison reduces to gcd(k, p-1) == (p-1)/ord(chi).
    """
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if (p - 1) % chi_tame_order:
        raise ValueError("tame order must divide p - 1")
    return math.gcd(k, p - 1) == (p - 1) // chi_tame_order


def primitive_root(p: int) -> int:
    """The smallest primitive root mod an odd prime p, the generator of (Z/p)^x, read off the cached structure."""
    return get_structure(p).generators[0][2]


def tame_exponent(chi: DirichletCharacter, p: int) -> int:
    """The a with chi = omega^a on the tame part of (Z/p^v)^x; 0 when (Z/p^v)^x has no generator.

    The first generator at p carries the tame part: for odd p, g^(p^(v-1))
    is the Teichmuller lift of the primitive root g, on which chi takes
    zeta_(p-1)^e for the exponent e on g, so a = e mod (p - 1).  At p = 2
    it is the generator that is 3 mod 4 (-1, or 3 at v = 2), so a is 1
    exactly when chi is odd on it, the rule ``conductor`` uses.
    """
    for (q, *_), e in zip(chi.structure.generators, chi.exponents):
        if q == p:
            return e % (2 if p == 2 else p - 1)
    return 0


def tame_order(chi: DirichletCharacter, p: int) -> int:
    """Order of chi restricted to the prime-to-p (tame) part of (Z/p^v)^x:
    (p - 1) / gcd(a, p - 1) for odd p, and 1 or 2 at p = 2, for the tame
    exponent a."""
    tame = 2 if p == 2 else p - 1
    return tame // math.gcd(tame_exponent(chi, p), tame)


def unit_subgroup(N: int, gens: Sequence[int]) -> set[int]:
    """The subgroup of (Z/N)^x generated by gens, as residues mod N ({0} for N = 1)."""
    if N == 1:
        return {0}
    for g in gens:
        if math.gcd(g, N) != 1:
            raise InputError(f"{g} is not a unit mod {N}")
    H = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = (x * g) % N
            if y not in H:
                H.add(y)
                frontier.append(y)
    return H


class AbelianField(Record):
    """An abelian field K as its conductor f and H_f = Gal(Q(zeta_f)/K), sorted residues mod f ((0,) at f = 1)."""

    __slots__ = ("conductor", "subgroup", "_hash")
    _fields = ("conductor", "subgroup")

    def __init__(self, conductor: int, subgroup: tuple[int, ...]):
        self._set(conductor, subgroup, hash((conductor, subgroup)))

    def __hash__(self) -> int:
        return self._hash

    def is_totally_real(self) -> bool:
        return self.conductor - 1 in self.subgroup  # complex conjugation, the residue 0 at f = 1, lies in H_f

    def galois_group(self, N: int) -> list[int]:
        """Gal(Q(zeta_N)/K) for a multiple N of f: the units mod N that reduce into H_f."""
        H = set(self.subgroup)
        return [u for u in range(N) if math.gcd(u, N) == 1 and u % self.conductor in H]


@lru_cache(maxsize=1024)
def abelian_field(N: int, gens: tuple[int, ...]) -> AbelianField:
    """The fixed field of H = <gens> inside Q(zeta_N), equal for every presentation; H is built once, at N.

    f is the least M | N for which H holds the kernel of (Z/N)^x -> (Z/M)^x, its phi(N) / phi(M) units = 1 mod M.
    """
    if N < 1:
        raise InputError("N must be positive")
    H = unit_subgroup(N, gens)
    f = next(M for M in range(1, N + 1)
             if N % M == 0 and sum(h % M == 1 % M for h in H) * euler_phi(M) == euler_phi(N))
    return AbelianField(f, tuple(sorted({h % f for h in H})))


@lru_cache(maxsize=128)
def field_characters(field: AbelianField) -> tuple[DirichletCharacter, ...]:
    """K's character group X: the [(Z/f)^x : H_f] characters mod f trivial on H_f, whose conductors have lcm f.

    chi(h) = zeta_L^(sum_i e_i d_i L / o_i) for the discrete logs d of h and L the lcm of the orders
    o_i: each exponent tuple is tested on H_f in index order, and only the kept ones become characters.
    """
    st, table = get_structure(field.conductor), _dlog_table(field.conductor)
    L = math.lcm(*st.orders)
    logs = [tuple(d * (L // o) for d, o in zip(table[h], st.orders)) for h in field.subgroup]
    return tuple(DirichletCharacter(st, exps) for exps in itertools.product(*map(range, st.orders))
                 if all(sum(map(operator.mul, exps, row)) % L == 0 for row in logs))


def display(chi: DirichletCharacter) -> dict:
    """JSON-friendly descriptor used by the CLI."""
    cond = conductor(chi)
    return {
        "modulus": chi.modulus,
        "index": chi.index(),
        "conductor": cond,
        "order": chi.order(),
        "parity": parity(chi),
        "exponents": list(chi.exponents),
        "primitive": cond == chi.modulus,
    }
