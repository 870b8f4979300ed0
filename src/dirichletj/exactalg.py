"""The bottom layer: integer helpers, exact linear algebra over Z, and abelian groups.

Every other module of the package imports this one and it imports none of
them.  It holds the integer helpers (trial-division factorization, the
odd primes p with (p - 1) | m and the image-of-J order D_2k built from
them, p-adic valuations, multiplicative orders, primitive roots, and
the Teichmuller lift of a unit mod p to a (p-1)-st root of unity mod
p^M, which the Carlitz check and the p-adic oracle both read), the
Hermite normal form of a lattice, the elimination over Z/p^M, the
multiplication by x modulo a monic polynomial, division and gcd over
F_p[x], ``InputError``, the error of an argument out of range,
``Record``, the base of the package's value types, and
``AbelianGroupExpr``, the value type of every quotient group and every
homotopy table.

The HNF takes a matrix as a list of integer rows, and the elimination
takes it as a list of sparse rows, each a {column: value} dict; neither
returns transforms.  Everything is an arbitrary-precision integer; no
floating point and no rationals anywhere.

Conventions fixed here and used throughout:

* HNF is row-style and always modulo a known multiple D of the lattice's
  exponent: ``h`` is the basis of span(rows of ``m``) + D*Z^n, in
  upper-triangular echelon form, pivots positive, and every entry above a
  pivot reduced into ``[0, pivot)``.  Lattices are row spans.
* ``padic_invariant_exponents`` is the elimination over Z/p^M: the
  local elementary divisors of a square matrix, which the p-adic
  quotients of ``padic`` and the denominator quotients of ``cyclotomic``
  at a p^v with v >= 2 are read off.  A step costs the nonzeros it
  touches, not the square of the block left.
* ``times_x_rows`` is the one dense multiplication by x modulo a monic
  polynomial: the power basis of Q(zeta_n), the denominator quotients and
  the Eisenstein coefficients read their multiplication matrices off it.
  The p-adic quotients build their sparse matrices of w*x - g^t in
  ``padic``.
* ``poly_rem_mod_p`` and ``poly_gcd_mod_p`` divide and take the monic gcd
  over F_p[x], on ascending coefficient lists: the Carlitz check reads
  Z[zeta_n]/(p, y) as F_p[x]/(gcd(Phi_n, y) mod p), and the denominator
  quotient of A/c at a p exactly dividing c is (Z/p)^(d - deg h) for
  h = gcd(Phi_n, A) mod p.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Sequence


# ---------------------------------------------------------------------------
# Integer helpers


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division (desk scale); {} at n = 1."""
    if n < 1:
        raise InputError(f"only n >= 1 has a prime factorization, got {n}")
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def euler_phi(n: int) -> int:
    return math.prod((p - 1) * p ** (e - 1) for p, e in factorize(n).items())


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def staudt_odd_primes(m: int) -> list[int]:
    """The odd primes p with (p - 1) | m, ascending, for m >= 1.

    For even m these are the odd primes of von Staudt-Clausen's denominator
    of B_m; for m = |t| they are the odd primes ell at which the K(1)-local
    sphere has nonzero homotopy in degree 2t - 1.
    """
    if m < 1:
        raise InputError("m must be positive")
    divisors = [1]
    for q, e in factorize(m).items():
        divisors = [d * q**j for d in divisors for j in range(e + 1)]
    return sorted(d + 1 for d in divisors if d > 1 and is_prime(d + 1))


def d2k(k: int) -> int:
    """Denominator of B_{2k}/(4k) in lowest terms (the image-of-J order), in closed form.

    It is 2^(2 + v_2(2k)) times p^(1 + v_p(2k)) over the odd primes p with
    (p - 1) | 2k, and no other prime divides it: von Staudt-Clausen, and
    B_{2k}/2k is p-integral when (p - 1) does not divide 2k (Adams, "On the
    groups J(X) IV", 1966).  No Bernoulli number is computed.
    """
    if k < 1:
        raise InputError("k must be positive")
    out = 2 ** (2 + _vp(2 * k, 2))
    for p in staudt_odd_primes(2 * k):
        out *= p ** (1 + _vp(2 * k, p))
    return out


def _vp(k: int, p: int) -> int:
    """The p-adic valuation of a nonzero integer k."""
    if k == 0:
        raise AssertionError("valuation of zero")
    v, k = 0, abs(k)
    while k % p == 0:
        k //= p
        v += 1
    return v


def _multiplicative_order(a: int, modulus: int) -> int:
    if modulus == 1:
        return 1
    if math.gcd(a, modulus) != 1:
        raise AssertionError("element not a unit")
    order = 1
    x = a % modulus
    while x != 1:
        x = (x * a) % modulus
        order += 1
    return order


def smallest_primitive_root(q: int) -> int:
    """Smallest positive primitive root mod q = p^v, p odd; verified."""
    if q < 3 or q % 2 == 0 or len(factorize(q)) != 1:
        raise InputError(f"q must be a power of an odd prime, got q = {q}")
    phi = euler_phi(q)
    prime_divs = list(factorize(phi))
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, phi // r, q) != 1 for r in prime_divs):
            if _multiplicative_order(g, q) != phi:
                raise AssertionError(f"{g} is not a primitive root mod {q}")
            return g
    raise AssertionError(f"no primitive root mod {q}")


@lru_cache(maxsize=128)
def teichmuller(p: int, a: int, M: int) -> int:
    """The unique (p-1)-st root of unity congruent to a mod p, as a residue mod p^M.

    a^(p^(M-1)) is that root: (Z/p^M)^x is mu_(p-1) x (1 + pZ)/(1 + p^M Z),
    and the power p^(M-1) kills the second factor, of order p^(M-1), and is
    the identity on the first, since p = 1 mod p - 1.
    Cached: the p-adic oracle asks for the same lift at every (a, t).
    """
    if not is_prime(p) or p == 2:
        raise InputError("p must be an odd prime")
    if a % p == 0:
        raise InputError("a must be prime to p")
    if M < 1:
        raise InputError("M must be positive")
    modulus = p**M
    x = pow(a, p ** (M - 1), modulus)
    if pow(x, p - 1, modulus) != 1:
        raise AssertionError(f"Teichmuller lift of {a} mod {p}^{M} is not a (p-1)-st root of unity")
    return x


def _crt_lift(residue: int, modulus: int, full_modulus: int) -> int:
    """x with x = residue mod modulus, x = 1 mod full_modulus/modulus."""
    other = full_modulus // modulus
    if other == 1:
        return residue % full_modulus
    inv = pow(modulus, -1, other)
    # x = residue + modulus * t, t chosen so x = 1 mod other.
    t = ((1 - residue) * inv) % other
    return (residue + modulus * t) % full_modulus


# ---------------------------------------------------------------------------
# The Hermite normal form and the elimination over Z/p^M


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hermite_normal_form(m: Sequence[Sequence[int]], modulus: int) -> list[list[int]]:
    """Row-style n x n Hermite normal form of span(rows of ``m``) + D*Z^n, D = ``modulus`` > 0.

    The lattice has full rank, and the result is in upper-triangular
    echelon form with positive pivots and every entry above a pivot
    reduced into ``[0, pivot)``.  The rows D*e_j are never written down and
    every entry is kept reduced mod D (Cohen, GTM 138, Alg. 2.4.8;
    Domich-Kannan-Trotter 1987), so nothing grows past D.  Once the pivot
    row w of column j takes g = gcd(w_j, D) from D*e_j, what w and D*e_j
    span beyond the new HNF row is (D/g)*w, which goes back into the
    working rows.
    """
    if modulus <= 0:
        raise InputError(f"modulus must be positive, got {modulus}")
    cols = len(m[0]) if m else 0
    if any(len(row) != cols for row in m):
        raise InputError("inconsistent row lengths")
    D = modulus
    work = [[x % D for x in row] for row in m]
    basis: list[list[int]] = []
    for col in range(cols):
        # Gather column col into one pivot row with gcd row steps; a plain
        # quotient step keeps the pivot row untouched.
        piv = None
        rest = []
        for row in work:
            b = row[col]
            if b and piv is None:
                piv = row
                continue
            if b:
                a = piv[col]
                if b % a == 0:
                    q = b // a
                    row = [(y - q * x) % D for x, y in zip(piv, row)]
                else:
                    g, s, t = _xgcd(a, b)
                    a, b = a // g, b // g
                    piv, row = ([(s * x + t * y) % D for x, y in zip(piv, row)],
                                [(a * y - b * x) % D for x, y in zip(piv, row)])
            if any(row):
                rest.append(row)
        if piv is None:
            piv = [0] * cols
            piv[col] = D
        else:
            g, s, _ = _xgcd(piv[col], D)
            carried = [D // g * x % D for x in piv]
            if any(carried):
                rest.append(carried)
            piv = [s * x % D for x in piv]
        # Reduce the entries above the new pivot into [0, pivot).
        p = piv[col]
        for i, row in enumerate(basis):
            q = row[col] // p
            if q:
                basis[i] = [(x - q * y) % D for x, y in zip(row, piv)]
        basis.append(piv)
        work = rest
    return basis


def padic_invariant_exponents(rows: Sequence[dict[int, int]], p: int, M: int) -> list[int]:
    """Valuations of the invariant factors of a square matrix over Z/p^M, ascending.

    Row i of the r x r matrix is the dict ``rows[i]`` of its entries by
    column in [0, r); a column it lacks holds zero, and the rows are read,
    never changed.  Minimal-valuation pivoting.  The result is min(e_i, M)
    for the elementary divisors p^(e_i) over Z_p, so exponents below M are
    exact and an exponent capped at M means the precision is too low.  The
    row-major pivot scan stops at the first unit, which is the entry a
    full scan for the strict minimum would pick.  Only rows are reduced:
    once the pivot's column is zero in every other row, every entry of the
    pivot row is a multiple of the pivot, so clearing it would change
    nothing a later step reads.  The pivot row and column are retired
    instead of swapped into place.

    A step costs the nonzeros it touches.  The working copy keeps only
    the entries nonzero mod p^M, and a column -> rows index lists the live
    rows with a nonzero in each column.  A step subtracts the multiple of
    the pivot row that clears the pivot column from just the rows the
    index lists for that column, visiting only the pivot row's entries;
    an entry that reaches zero leaves its row and the index.  The oracle's
    matrices, multiplication by w*x - g^t modulo a sparse cyclotomic
    polynomial, have about two nonzeros per row, so a step costs a few
    entries, not (r - t)^2.
    """
    pm = p**M
    a = []
    holders: list[set[int]] = [set() for _ in rows]
    for i, row in enumerate(rows):
        kept = {}
        for j, x in row.items():
            if y := x % pm:
                kept[j] = y
                holders[j].add(i)
        a.append(kept)
    live = list(range(len(a)))
    exps = []
    while live:
        bestv = M
        for i in live:
            for j, x in a[i].items():
                if x % p:
                    bi, bj, bestv = i, j, 0
                    break
                v = _vp(x, p)
                if v < bestv:
                    bi, bj, bestv = i, j, v
            if not bestv:
                break
        if bestv == M:  # every live row is empty
            exps.extend([M] * len(live))
            break
        live.remove(bi)
        pivot = a[bi]
        for j in pivot:
            holders[j].discard(bi)
        pv = p**bestv
        inv_unit = pow(pivot.pop(bj) // pv, -1, pm)
        for i in holders[bj]:
            row = a[i]
            # Entries lie in [1, p^M) and the pivot's valuation is minimal, so p^v divides row[bj].
            q = row.pop(bj) // pv * inv_unit
            for j, x in pivot.items():
                if j in row:
                    y = (row[j] - q * x) % pm
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                        holders[j].discard(i)
                else:
                    y = -q * x % pm
                    if y:
                        row[j] = y
                        holders[j].add(i)
        exps.append(bestv)
    return sorted(exps)


# ---------------------------------------------------------------------------
# Multiplication by x modulo a monic polynomial


def times_x_rows(phi: Sequence[int], vec: Sequence[int], count: int | None = None) -> list[list[int]]:
    """Rows x^j * vec modulo the monic ``phi`` for j < ``count`` (default deg phi).

    ``phi`` is ascending and ``vec`` holds at most deg phi coordinates,
    padded with zeros; the first deg phi rows are the matrix of
    multiplication by vec on Z[x]/(phi).
    """
    d = len(phi) - 1
    row = list(vec) + [0] * (d - len(vec))
    rows = [row]
    for _ in range((d if count is None else count) - 1):
        lead = row[-1]
        row = [0] + row[:-1]
        if lead:
            # x^d = -sum_j phi_j x^j; zip stops before the leading 1.
            row = [x - lead * c for x, c in zip(row, phi)]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Division and gcd over F_p[x]


def _mod_p(a: Sequence[int], p: int) -> list[int]:
    """a mod p, ascending, without zero leading coefficients ([] is 0)."""
    r = [x % p for x in a]
    while r and not r[-1]:
        r.pop()
    return r


def poly_rem_mod_p(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """The remainder of a by m over F_p, for m nonzero mod p; ascending, as ``_mod_p``."""
    r, m = _mod_p(a, p), _mod_p(m, p)
    d = len(m) - 1
    inv = pow(m[-1], -1, p)
    while len(r) > d:
        q = r.pop() * inv % p
        s = len(r) - d
        for j in range(d):
            r[s + j] = (r[s + j] - q * m[j]) % p
        while r and not r[-1]:
            r.pop()
    return r


def poly_gcd_mod_p(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """The monic gcd of a and b over F_p, ascending; [] when both are 0 mod p."""
    a, b = _mod_p(a, p), _mod_p(b, p)
    while b:
        a, b = b, poly_rem_mod_p(a, b, p)
    inv = pow(a[-1], -1, p) if a else 0
    return [x * inv % p for x in a]


# ---------------------------------------------------------------------------
# Value types and abelian group expressions


class InputError(ValueError):
    """An argument outside the domain of a public function: a modulus, index, weight or field.

    The command line exits 2 on it, and 1 on any other error.
    """


class Record:
    """A slotted value that compares, hashes, prints and pickles as the tuple of its ``_fields``.

    It keeps a frozen dataclass's contract without importing ``dataclasses``:
    equality within one class, its repr, and assignment raising ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # What equality compares, read in one C call: the field tuple, or the bare value of a single field.
        cls._key = property(attrgetter(*cls._fields))

    def _set(self, *values) -> None:
        """Fill the slots in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"


_KIND_RANK = {"Z": 0, "Zp": 1, "QZ": 2, "C": 3}


class AbelianGroupExpr(Record):
    """Normalized multiset of group atoms; the value type of every quotient and pi table.

    The atoms are Z, Z_p, Q/Z (with the primes inverted away from it) and
    the cyclic prime powers Z/p^e.  Cyclic parts are CRT-split into prime
    powers and sorted, so equality is syntactic multiset equality.
    """

    __slots__ = _fields = ("atoms",)

    def __init__(self, atoms: tuple[tuple, ...] = ()):
        object.__setattr__(self, "atoms", atoms)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "AbelianGroupExpr":
        return _ZERO

    @staticmethod
    def free(rank: int = 1) -> "AbelianGroupExpr":
        return AbelianGroupExpr(_norm([("Z",)] * rank))

    @staticmethod
    def padic(p: int, rank: int = 1) -> "AbelianGroupExpr":
        return AbelianGroupExpr(_norm([("Zp", p)] * rank))

    @staticmethod
    def q_mod_z(count: int = 1) -> "AbelianGroupExpr":
        return AbelianGroupExpr(_norm([("QZ", ())] * count))

    @staticmethod
    def cyclic(m: int) -> "AbelianGroupExpr":
        return _cyclic(m)

    @staticmethod
    def from_invariants(invariants: Iterable[int]) -> "AbelianGroupExpr":
        """The group Z^r + sum Z/m over invariant factors m (0 for Z, 1 dropped), as from a Smith diagonal."""
        atoms: list[tuple] = []
        for m in invariants:
            if m == 0:
                atoms.append(("Z",))
            elif m > 1:
                atoms.extend(("C", p, e) for p, e in factorize(m).items())
        return AbelianGroupExpr(_norm(atoms)) if atoms else _ZERO

    @staticmethod
    def direct_sum(groups: Iterable["AbelianGroupExpr"]) -> "AbelianGroupExpr":
        atoms = [a for g in groups for a in g.atoms]
        return AbelianGroupExpr(_norm(atoms)) if atoms else _ZERO

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "AbelianGroupExpr") -> "AbelianGroupExpr":
        if not other.atoms:
            return self
        if not self.atoms:
            return other
        return AbelianGroupExpr(_norm(self.atoms + other.atoms))

    def away_from(self, primes: Iterable[int]) -> "AbelianGroupExpr":
        """Localization away from ``primes``.

        Z/q^e and Z_q at an inverted q disappear, Q/Z records q among the
        primes inverted away from it, and Z is unchanged.
        """
        inv = set(primes)
        if not inv:
            return self
        out: list[tuple] = []
        for a in self.atoms:
            if a[0] in ("C", "Zp") and a[1] in inv:
                continue
            out.append(("QZ", tuple(sorted(set(a[1]) | inv))) if a[0] == "QZ" else a)
        return AbelianGroupExpr(_norm(out))

    def times(self, copies: int) -> "AbelianGroupExpr":
        if copies == 1 or not self.atoms:
            return self
        return AbelianGroupExpr(_norm(self.atoms * copies))

    def without(self, part: "AbelianGroupExpr") -> "AbelianGroupExpr":
        """The sum of the atoms that are not atoms of ``part``: every copy of each is dropped."""
        return AbelianGroupExpr(tuple(a for a in self.atoms if a not in part.atoms))

    def is_zero(self) -> bool:
        return not self.atoms

    def render(self) -> str:
        return _render(self.atoms)

    def __repr__(self) -> str:
        return f"AbelianGroupExpr({self.render()!r})"


# Groups are immutable, so every empty one can be this one, and a sum or a
# multiple with nothing to sort returns an operand as it is.
_ZERO = AbelianGroupExpr(())


@lru_cache(maxsize=1024)
def _cyclic(m: int) -> AbelianGroupExpr:
    """Z/m, shared: the tables ask for a handful of small orders over and over."""
    if m < 1:
        raise InputError("cyclic order must be positive")
    return AbelianGroupExpr(_norm([("C", p, e) for p, e in sorted(factorize(m).items())]))


def _atom_key(a: tuple) -> tuple:
    # Kind first, then the fields: a prime, (prime, exponent), or Q/Z's tuple of inverted primes.
    return _KIND_RANK[a[0]], a[1:]


def _norm(atoms: Sequence[tuple]) -> tuple[tuple, ...]:
    # Cyclic atoms ("C", p, e) sort as their keys do, and "C" is the least kind name, so when
    # the largest atom is cyclic, every atom is and the plain sort is the normal form.
    out = sorted(atoms)
    if not out or out[-1][0] == "C":
        return tuple(out)
    return tuple(sorted(atoms, key=_atom_key))


@lru_cache(maxsize=1024)
def _render(atoms: tuple[tuple, ...]) -> str:
    """The rendering of a normalized atom tuple: equal atoms are runs, each counted once.

    Cached: the tables return a few small groups over and over, and a duality
    row renders both routes' values on each side.
    """
    if not atoms:
        return "0"
    parts: list[str] = []
    i = 0
    while i < len(atoms):
        a = atoms[i]
        j = i
        while j < len(atoms) and atoms[j] == a:
            j += 1
        parts.extend(_render_atom(a, j - i))
        i = j
    return " + ".join(parts)


def _render_atom(a: tuple, count: int) -> list[str]:
    kind = a[0]
    if kind == "Z":
        return ["Z" if count == 1 else f"Z^{count}"]
    if kind == "Zp":
        base = f"Z_{a[1]}"
        return [base if count == 1 else f"{base}^{count}"]
    if kind == "QZ":
        away = f"[1/{math.prod(a[1])}]" if a[1] else ""
        return [f"Q/Z{away}"] * count
    if kind == "C":
        return [f"Z/{a[1] ** a[2]}"] * count
    raise AssertionError(f"unknown atom {a!r}")
