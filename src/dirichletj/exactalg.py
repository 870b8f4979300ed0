"""The bottom layer: integer helpers, exact linear algebra over Z, and abelian groups.

Every other module of the package imports this one and it imports none of
them.  It holds the integer helpers (trial-division factorization, p-adic
valuations, multiplicative orders, primitive roots), the Hermite and Smith
normal forms that ideal lattices and quotients are read off, the
multiplication by x modulo a monic polynomial, and ``AbelianGroupExpr``,
the value type of every quotient group and every homotopy table.

A matrix is a list of integer rows; the forms come without transforms,
the HNF optionally modulo a known multiple D of the lattice's exponent.
Everything is an arbitrary-precision integer; no floating point and no
rationals anywhere.

Conventions fixed here and used throughout:

* HNF is row-style: ``h`` spans the row lattice of ``m`` and is in
  upper-triangular echelon form, pivots positive, and every entry above
  a pivot reduced into ``[0, pivot)``.  Lattices are row spans; with a
  modulus D the lattice is span(rows) + D*Z^n.
* SNF is the diagonal of ``l * m * r`` for unimodular ``l``, ``r``: it is
  nonnegative, with the divisibility chain ``d[0] | d[1] | ...``.  It is
  computed by the HNF alone: HNFs of transposes until the matrix is
  diagonal, then a gcd/lcm pass over the diagonal.
* ``times_x_rows`` is the one multiplication by x modulo a monic
  polynomial: the power basis of Q(zeta_n) and the p-adic quotients both
  read their multiplication matrices off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


# ---------------------------------------------------------------------------
# Integer helpers


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk scale)."""
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


def _vp(k: int, p: int) -> int:
    """The p-adic valuation of a nonzero integer k."""
    if k == 0:
        raise ValueError("valuation of zero")
    v, k = 0, abs(k)
    while k % p == 0:
        k //= p
        v += 1
    return v


def _multiplicative_order(a: int, modulus: int) -> int:
    if modulus == 1:
        return 1
    if math.gcd(a, modulus) != 1:
        raise ValueError("element not a unit")
    order = 1
    x = a % modulus
    while x != 1:
        x = (x * a) % modulus
        order += 1
    return order


def smallest_primitive_root(q: int, phi: int) -> int:
    """Smallest positive primitive root mod q = p^v, p odd; verified."""
    prime_divs = list(factorize(phi))
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, phi // r, q) != 1 for r in prime_divs):
            if _multiplicative_order(g, q) != phi:
                raise AssertionError(f"{g} is not a primitive root mod {q}")
            return g
    raise ValueError(f"no primitive root mod {q}")


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
# Hermite and Smith normal forms


def _width(m: Sequence[Sequence[int]]) -> int:
    cols = len(m[0]) if m else 0
    if any(len(row) != cols for row in m):
        raise ValueError("inconsistent row lengths")
    return cols


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


def hermite_normal_form(m: Sequence[Sequence[int]], modulus: int | None = None) -> list[list[int]]:
    """Row-style Hermite normal form of the row lattice of ``m``.

    The result is in upper-triangular echelon form with positive pivots
    and every entry above a pivot reduced into ``[0, pivot)``.  Without a
    modulus it has the shape of ``m``, zero rows at the bottom.

    With ``modulus`` D > 0 the lattice is span(rows) + D*Z^n, which has
    full rank, and the result is its n x n HNF.  The rows D*e_j are never
    written down and every entry is kept reduced mod D (Cohen, GTM 138,
    Alg. 2.4.8; Domich-Kannan-Trotter 1987), so nothing grows past D.
    Once the pivot row w of column j takes g = gcd(w_j, D) from D*e_j,
    what w and D*e_j span beyond the new HNF row is (D/g)*w, which goes
    back into the working rows.
    """
    if modulus is not None and modulus <= 0:
        raise ValueError(f"modulus must be positive, got {modulus}")
    cols = _width(m)
    D = modulus
    work = [[x % D for x in row] if D else list(row) for row in m]
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
                    row = [y - q * x for x, y in zip(piv, row)]
                else:
                    g, s, t = _xgcd(a, b)
                    a, b = a // g, b // g
                    piv, row = [s * x + t * y for x, y in zip(piv, row)], [a * y - b * x for x, y in zip(piv, row)]
                    if D:
                        piv = [x % D for x in piv]
                if D:
                    row = [x % D for x in row]
            if any(row):
                rest.append(row)
        if D:
            if piv is None:
                piv = [0] * cols
                piv[col] = D
            else:
                g, s, _ = _xgcd(piv[col], D)
                carried = [D // g * x % D for x in piv]
                if any(carried):
                    rest.append(carried)
                piv = [s * x % D for x in piv]
        elif piv is None:
            continue
        elif piv[col] < 0:
            piv = [-x for x in piv]
        # Reduce the entries above the new pivot into [0, pivot).
        p = piv[col]
        for i, row in enumerate(basis):
            q = row[col] // p
            if q:
                row = [x - q * y for x, y in zip(row, piv)]
                basis[i] = [x % D for x in row] if D else row
        basis.append(piv)
        work = rest
    if not D:
        basis.extend([0] * cols for _ in range(len(m) - len(basis)))
    return basis


def smith_normal_form(m: Sequence[Sequence[int]]) -> list[int]:
    """The Smith diagonal of ``m``: nonnegative, with ``d[i] | d[i+1]``.

    The HNF of the transpose, repeated on transposes, reaches a diagonal
    matrix (Kannan-Bachem, SIAM J. Comput. 1979): each pass is a unimodular
    row operation on the transpose, so the Smith form is kept, and each
    leading pivot only shrinks in divisibility until its row and column
    are clear.  An ideal basis, already upper triangular, usually needs
    one pass.  Pairs of diagonal entries then become (gcd, lcm), which
    keeps Z^n / diag and gives the divisibility chain.
    """
    n = min(len(m), _width(m))
    h = m
    while True:
        h = hermite_normal_form(list(zip(*h)))
        if all(not x for i, row in enumerate(h) for j, x in enumerate(row) if i != j):
            break
    d = [h[i][i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i], d[j] = math.gcd(d[i], d[j]), math.lcm(d[i], d[j])
    return d


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
# Abelian group expressions

_KIND_RANK = {"Z": 0, "Zp": 1, "QZ": 2, "C": 3}


@dataclass(frozen=True)
class AbelianGroupExpr:
    """Normalized multiset of group atoms; the value type of every quotient and pi table.

    The atoms are Z, Z_p, Q/Z (with the primes inverted away from it) and
    the cyclic prime powers Z/p^e.  Cyclic parts are CRT-split into prime
    powers and sorted, so equality is syntactic multiset equality.
    """

    atoms: tuple[tuple, ...] = ()

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "AbelianGroupExpr":
        return AbelianGroupExpr(())

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
        if m < 1:
            raise ValueError("cyclic order must be positive")
        atoms = [("C", p, e) for p, e in sorted(factorize(m).items())]
        return AbelianGroupExpr(_norm(atoms))

    @staticmethod
    def from_invariants(invariants: Iterable[int]) -> "AbelianGroupExpr":
        """The group Z^r + sum Z/m over invariant factors m (0 for Z, 1 dropped), as from a Smith diagonal."""
        atoms: list[tuple] = []
        for m in invariants:
            if m == 0:
                atoms.append(("Z",))
            elif m > 1:
                atoms.extend(("C", p, e) for p, e in factorize(m).items())
        return AbelianGroupExpr(_norm(atoms))

    @staticmethod
    def direct_sum(groups: Iterable["AbelianGroupExpr"]) -> "AbelianGroupExpr":
        return AbelianGroupExpr(_norm([a for g in groups for a in g.atoms]))

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "AbelianGroupExpr") -> "AbelianGroupExpr":
        return AbelianGroupExpr(_norm(list(self.atoms) + list(other.atoms)))

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
        return AbelianGroupExpr(_norm(list(self.atoms) * copies))

    def without(self, part: "AbelianGroupExpr") -> "AbelianGroupExpr":
        """The sum of the atoms that are not atoms of ``part``: every copy of each is dropped."""
        return AbelianGroupExpr(tuple(a for a in self.atoms if a not in part.atoms))

    def finite_part(self) -> "AbelianGroupExpr":
        return AbelianGroupExpr(tuple(a for a in self.atoms if a[0] == "C"))

    def free_rank(self) -> int:
        return self.atoms.count(("Z",))

    def q_mod_z_count(self) -> int:
        return sum(a[0] == "QZ" for a in self.atoms)

    def is_zero(self) -> bool:
        return not self.atoms

    def is_finite(self) -> bool:
        return all(a[0] == "C" for a in self.atoms)

    def order(self) -> int:
        if not self.is_finite():
            raise ValueError("group is not finite")
        out = 1
        for _, p, e in self.atoms:
            out *= p**e
        return out

    def render(self) -> str:
        if not self.atoms:
            return "0"
        parts: list[str] = []
        i = 0
        atoms = self.atoms
        while i < len(atoms):
            a = atoms[i]
            j = i
            while j < len(atoms) and atoms[j] == a:
                j += 1
            count = j - i
            parts.extend(_render_atom(a, count))
            i = j
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"AbelianGroupExpr({self.render()!r})"


def _norm(atoms: list[tuple]) -> tuple[tuple, ...]:
    def key(a: tuple):
        rank = _KIND_RANK[a[0]]
        return (rank,) + tuple(x if isinstance(x, int) else tuple(x) for x in a[1:])

    return tuple(sorted(atoms, key=key))


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
