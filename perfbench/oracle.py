"""Independent check of sampled outputs with sympy; shares no code with dirichletj.

Reads a JSON list of items on stdin and prints one JSON object
``{"checked": n, "mismatches": [...]}``; exits 1 on any mismatch.

Items:

* ``{"kind": "bkchi", "D": D, "k": k, "value": "p/q"}``: B_{k,chi_D} for the
  Kronecker character chi_D of the fundamental discriminant D (D = 1 gives the
  ordinary B_k), computed as |D|^(k-1) * sum_a chi_D(a) B_k(a/|D|) with sympy's
  Bernoulli polynomials.  B_k(1) = B_k with B_1 = +1/2, the package's
  convention.
* ``{"kind": "pi_odd", "D": D, "k": k, "group": "Z/8 + Z/3"}``: for the
  quadratic character of odd prime conductor |D|, the odd part of the order
  of pi_{2k-1} (direct table) equals the odd part of the denominator of
  B_{|k|,chi_D} / (2|k|): the denominator theorem with 2 = ell(chi) inverted.

Usage: python3 perfbench/oracle.py < items.json
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import sympy
from sympy.functions.combinatorial.numbers import kronecker_symbol

X = sympy.Symbol("x")


def bkchi(D: int, k: int) -> Fraction:
    N = abs(D)
    poly = sympy.Poly(sympy.bernoulli(k, X), X)
    total = sum(kronecker_symbol(D, a) * poly.eval(sympy.Rational(a, N)) for a in range(1, N + 1))
    value = sympy.Rational(total) * sympy.Rational(N) ** (k - 1)
    return Fraction(int(value.p), int(value.q))


def odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


def odd_group_order(rendered: str) -> int | None:
    """Odd part of the order of a rendered group; None if it has a non-2-adic infinite atom."""
    order = 1
    for atom in rendered.split(" + "):
        if atom == "0" or atom.startswith("Z_2"):
            continue
        if not atom.startswith("Z/"):
            return None
        order *= int(atom[2:])
    return odd_part(order)


def check(item: dict) -> str | None:
    D, k = item["D"], item["k"]
    if item["kind"] == "bkchi":
        expected = bkchi(D, k)
        got = Fraction(item["value"])
        return None if got == expected else f"B_{k},chi_{D}: got {got}, sympy {expected}"
    order = odd_group_order(item["group"])
    expected = odd_part((bkchi(D, abs(k)) / (2 * abs(k))).denominator)
    if order is None or order != expected:
        return f"pi_(2k-1) for chi_{D}, k={k}: group {item['group']}, expected odd order {expected}"
    return None


def main() -> int:
    items = json.load(sys.stdin)
    mismatches = [m for m in map(check, items) if m is not None]
    print(json.dumps({"checked": len(items), "mismatches": mismatches}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
