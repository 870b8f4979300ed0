"""Exact integer linear algebra: Hermite and Smith normal forms over Z.

This is the computational kernel for the ideal lattices of the package.
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
"""

from __future__ import annotations

import math
from typing import Sequence


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


