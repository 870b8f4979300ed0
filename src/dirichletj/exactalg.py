"""Exact integer linear algebra: integer matrices and their normal forms.

This is the computational kernel for the ideal lattices of the package:
Hermite and Smith normal forms over Z (the forms alone, no transforms;
the HNF optionally modulo a known multiple D of the lattice's exponent).
Everything is an arbitrary-precision integer; no floating point and no
rationals anywhere.

Conventions fixed here and used throughout:

* HNF is row-style: ``h`` spans the row lattice of ``m`` and is in
  upper-triangular echelon form, pivots positive, and every entry above
  a pivot reduced into ``[0, pivot)``.  Lattices are row spans; with a
  modulus D the lattice is span(rows) + D*Z^n.
* SNF is the diagonal of ``l * m * r`` for unimodular ``l``, ``r``: it is
  nonnegative, with the divisibility chain ``d[0] | d[1] | ...``.
"""

from __future__ import annotations

from typing import Sequence


# ---------------------------------------------------------------------------
# Integer matrices


class IntMatrix:
    """Dense matrix with arbitrary-precision integer entries, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[int]]):
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("inconsistent row lengths")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def copy(self) -> "IntMatrix":
        return IntMatrix(self.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"IntMatrix({self.data!r})"

    def diagonal(self) -> list[int]:
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]


def _rowop(mat: IntMatrix, i: int, j: int, a: int, b: int, c: int, d: int) -> None:
    # rows (i, j) <- (a*row_i + b*row_j, c*row_i + d*row_j); caller ensures ad-bc = +-1
    ri, rj = mat.data[i], mat.data[j]
    for k in range(mat.cols):
        x, y = ri[k], rj[k]
        ri[k] = a * x + b * y
        rj[k] = c * x + d * y


def _colop(mat: IntMatrix, i: int, j: int, a: int, b: int, c: int, d: int) -> None:
    for row in mat.data:
        x, y = row[i], row[j]
        row[i] = a * x + b * y
        row[j] = c * x + d * y


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


def hermite_normal_form(m: IntMatrix, modulus: int | None = None) -> IntMatrix:
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
    D = modulus
    work = [[x % D for x in row] if D else row[:] for row in m.data]
    basis: list[list[int]] = []
    for col in range(m.cols):
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
                piv = [0] * m.cols
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
        basis.extend([0] * m.cols for _ in range(m.rows - len(basis)))
    return IntMatrix(basis)


def smith_normal_form(m: IntMatrix) -> list[int]:
    """The Smith diagonal of ``m``: nonnegative, with ``d[i] | d[i+1]``.

    Uses gcd-pivot elimination on a copy of ``m``; entries stay exact
    integers throughout, and the transforms are not kept.
    """
    d = m.copy()
    n = min(m.rows, m.cols)
    t = 0
    while t < n:
        # Find a nonzero entry of minimal absolute value in the trailing block.
        best = None
        for i in range(t, m.rows):
            for j in range(t, m.cols):
                v = d.data[i][j]
                if v and (best is None or abs(v) < abs(d.data[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            d.data[t], d.data[bi] = d.data[bi], d.data[t]
        if bj != t:
            _colop(d, t, bj, 0, 1, 1, 0)
        while True:
            # Clear column t below the pivot.  Quotient steps (pivot divides
            # the entry) leave the pivot row alone; genuine gcd steps strictly
            # shrink the pivot, so the row/column alternation terminates.
            for i in range(t + 1, m.rows):
                b = d.data[i][t]
                if b == 0:
                    continue
                a = d.data[t][t]
                if b % a == 0:
                    _rowop(d, t, i, 1, 0, -(b // a), 1)
                    continue
                g, s, tt = _xgcd(a, b)
                _rowop(d, t, i, s, tt, -(b // g), a // g)
            # Clear row t right of the pivot.
            dirty = False
            for j in range(t + 1, m.cols):
                b = d.data[t][j]
                if b == 0:
                    continue
                a = d.data[t][t]
                if b % a == 0:
                    _colop(d, t, j, 1, 0, -(b // a), 1)
                    continue
                g, s, tt = _xgcd(a, b)
                _colop(d, t, j, s, tt, -(b // g), a // g)
                dirty = True
            if not dirty and all(d.data[i][t] == 0 for i in range(t + 1, m.rows)):
                break
        # Pivot must divide every remaining entry; absorb offenders and retry.
        p = d.data[t][t]
        offender = None
        for i in range(t + 1, m.rows):
            for j in range(t + 1, m.cols):
                if d.data[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _rowop(d, t, offender, 1, 1, 0, 1)
            continue
        t += 1
    return [abs(d.data[i][i]) for i in range(n)]
