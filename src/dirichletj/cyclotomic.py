"""Exact arithmetic in Q(zeta_n), denominator ideals of Z[zeta_n], and p-adic splitting data.

Elements are integer vectors over one positive denominator against the
power basis ``1, z, ..., z^(phi(n)-1)`` modulo the n-th cyclotomic
polynomial Phi_n, reduced to lowest terms, so representations are unique
and equality is syntactic.  Phi_n is a tuple of integer coefficients, and
an inverse is the product of the nontrivial Galois conjugates divided by
the norm, so no rational polynomial arithmetic is needed.

The denominator ideal D(a) = {x in Z[zeta_n] : x*a in Z[zeta_n]} of a
field element ``a`` = A/c is kept as ``a`` itself.  Its quotient is read
off the local elementary divisors of multiplication by A at each p^v
exactly dividing c (``denominator_invariants``): at v = 1 off
gcd(Phi_n, A) mod p, as F_p[x] is a principal ideal domain, and at
v >= 2 off an elimination mod p^v.  Only ``denominator_ideal``, for the
basis diagonal that ``bern`` prints, computes the lattice: the kernel of
v -> v*A mod c, read off one HNF modulo c and checked closed under
multiplication by ``z``.

``padic_splitting`` counts the simple factors of Z[zeta_n] (x) Z_p as the
cosets of <p> in (Z/n')^x.  ``cyclotomic_factor_count`` checks that count
with no coset in sight: Berlekamp's kernel of Frobenius - 1 on
F_p[z]/(Phi_n), read off the elimination mod p of ``exactalg``.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Iterable

from .exactalg import (
    AbelianGroupExpr,
    InputError,
    _multiplicative_order,
    _vp,
    euler_phi,
    factorize,
    hermite_normal_form,
    is_prime,
    padic_invariant_exponents,
    poly_gcd_mod_p,
    times_x_rows,
)


@lru_cache(maxsize=128)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial Phi_n: integer coefficients, ascending, monic.

    Computed by exact division of t^n - 1 by the monic Phi_d over the
    proper divisors d of n, so every step stays in the integers.
    """
    if n < 1:
        raise InputError("n must be positive")
    num = [-1] + [0] * (n - 1) + [1]  # t^n - 1
    for d in range(1, n):
        if n % d == 0:
            phi_d = cyclotomic_poly(d)
            m = len(phi_d) - 1
            quot = [0] * (len(num) - m)
            for k in range(len(quot) - 1, -1, -1):
                c = quot[k] = num[k + m]
                if c:
                    for j, y in enumerate(phi_d):
                        num[k + j] -= c * y
            if any(num[:m]):
                raise AssertionError(f"Phi_{d} does not divide t^{n} - 1")
            num = quot
    return tuple(num)


class CyclotomicField:
    """Q(zeta_n) with the fixed power basis modulo Phi_n.

    ``phi_n`` is the integer coefficient tuple of ``cyclotomic_poly(n)``.
    Phi_n is monic and integral, so every power of ``z`` reduces to an
    integer vector; ``_zeta_pow[k]`` holds ``z^k`` for k below
    max(n, 2*degree - 1), read off ``times_x_rows``, which serves both
    ``zeta_power`` and the reduction of a product.  Instances are immutable and cached per n;
    share them freely.
    """

    def __init__(self, n: int):
        self.n = n
        self.phi_n = cyclotomic_poly(n)
        self.degree = d = len(self.phi_n) - 1
        if d != euler_phi(n):
            raise AssertionError(f"deg Phi_{n} = {d} differs from phi({n}) = {euler_phi(n)}")
        self._zeta_pow = [tuple(row) for row in times_x_rows(self.phi_n, [1], max(n, 2 * d - 1))]

    def zero(self) -> "CycElement":
        return CycElement(self, [0] * self.degree)

    def one(self) -> "CycElement":
        return self.from_rational(1)

    def from_rational(self, q) -> "CycElement":
        """The scalar q: any rational with integer ``numerator`` and ``denominator``; TypeError otherwise."""
        pair = _scalar(q)
        if pair is None:
            raise TypeError(f"not a rational scalar: {q!r}")
        return CycElement(self, [pair[0]] + [0] * (self.degree - 1), pair[1])

    def zeta_power(self, j: int) -> "CycElement":
        """The basis-reduced coefficient vector of zeta^j."""
        return CycElement(self, self._zeta_pow[j % self.n])

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclotomicField) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("CyclotomicField", self.n))

    def __repr__(self) -> str:
        return f"CyclotomicField({self.n})"


# The largest degree phi(n) of a field get_field builds.  Cold `bern --index 2 --weight 2`
# on even characters, on a 2-core VM: degree 52 takes 0.15 s of CPU, 172 1.2 s, 238 2.8 s,
# 358 7.4 s and 508 21 s; Q(zeta_100003), of degree 28 560, did not finish in 60 s.
MAX_FIELD_DEGREE = 200


@lru_cache(maxsize=128)
def get_field(n: int) -> CyclotomicField:
    """Q(zeta_n), built once per n; InputError above degree MAX_FIELD_DEGREE."""
    degree = euler_phi(n)
    if degree > MAX_FIELD_DEGREE:
        raise InputError(f"field too large: Q(zeta_{n}) has degree {degree}, above {MAX_FIELD_DEGREE}")
    return CyclotomicField(n)


def _scalar(q) -> tuple[int, int] | None:
    """(numerator, denominator) of a rational scalar: anything with integer ``numerator`` and ``denominator``."""
    num, den = getattr(q, "numerator", None), getattr(q, "denominator", None)
    return (num, den) if isinstance(num, int) and isinstance(den, int) else None


class CycElement:
    """Element of Q(zeta_n) as integer coordinates ``nums`` over one denominator ``den``.

    ``den`` must be positive; the constructor divides out
    ``gcd(den, *nums)``, so zero is ``(0, ..., 0)/1`` and equality is
    syntactic.  An operand of + - * / that is neither a CycElement nor a
    scalar of ``_scalar`` gets ``NotImplemented``, so Python raises
    ``TypeError``; a float or Decimal is not a scalar there, but ``==``
    compares a finite one exactly, as ``Fraction`` does (NaN and inf equal nothing).
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: CyclotomicField, nums: Iterable[int], den: int = 1):
        if den <= 0:
            raise InputError(f"denominator must be positive, got {den}")
        nums = tuple(nums)
        g = math.gcd(den, *nums)
        if g != 1:
            nums = tuple(x // g for x in nums)
            den //= g
        self.field = field
        self.nums = nums
        self.den = den

    # -- ring structure: an operand that is not a CycElement is a scalar of from_rational --

    def _coerce(self, other):
        if not isinstance(other, CycElement):
            return NotImplemented if _scalar(other) is None else self.field.from_rational(other)
        if self.field.n != other.field.n:
            raise InputError("field mismatch: Q(zeta_%d) vs Q(zeta_%d)" % (self.field.n, other.field.n))
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        a, b = self.den, other.den
        return CycElement(self.field, [x * b + y * a for x, y in zip(self.nums, other.nums)], a * b)

    __radd__ = __add__

    def __neg__(self):
        return CycElement(self.field, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def _scale(self, num: int, den: int) -> "CycElement":
        """self * num/den for den != 0, with the sign of den moved into the numerators."""
        if den < 0:
            num, den = -num, -den
        return CycElement(self.field, [x * num for x in self.nums], self.den * den)

    def __mul__(self, other):
        if not isinstance(other, CycElement):
            q = _scalar(other)
            return NotImplemented if q is None else self._scale(*q)
        other = self._coerce(other)
        d = self.field.degree
        bs = [(j, b) for j, b in enumerate(other.nums) if b]
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in bs:
                    prod[i + j] += a * b
        out = prod[:d]
        zeta_pow = self.field._zeta_pow
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c:
                for j, r in enumerate(zeta_pow[k]):
                    if r:
                        out[j] += c * r
        return CycElement(self.field, out, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycElement":
        """1/a as the product of the conjugates sigma_s(a), s != 1, over the norm.

        For the integral numerator A = ``nums``, 1/a = den * prod_{s != 1}
        sigma_s(A) / N(A).
        """
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero")
        norm, conjugates = _norm_and_conjugates(self)
        sign = 1 if norm > 0 else -1
        return CycElement(self.field, [sign * self.den * x for x in conjugates.nums], abs(norm))

    def __truediv__(self, other):
        if not isinstance(other, CycElement):
            q = _scalar(other)
            if q is None:
                return NotImplemented
            if not q[0]:
                raise ZeroDivisionError("division by zero")
            return self._scale(q[1], q[0])
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return NotImplemented if _scalar(other) is None else self.inverse() * other

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycElement):
            try:
                q = _scalar(other) or other.as_integer_ratio()
            except (AttributeError, TypeError, ValueError, OverflowError):
                return False
            return self.is_rational() and self.nums[0] * q[1] == q[0] * self.den
        return (
            self.field.n == other.field.n
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        """A rational element hashes as Python hashes the equal int or Fraction, which it equals."""
        if not self.is_rational():
            return hash((self.field.n, self.nums, self.den))
        num, den = self.nums[0], self.den
        if den == 1:
            return hash(num)
        # Python's numeric hash: |num| / den mod the prime modulus, inf when den is 0 there.
        modulus = sys.hash_info.modulus
        h = hash(hash(abs(num)) * pow(den, -1, modulus)) if den % modulus else sys.hash_info.inf
        h = h if num >= 0 else -h
        return -2 if h == -1 else h

    # -- structure queries --------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def __repr__(self) -> str:
        return f"CycElement(n={self.field.n}, {render_cyc(self)!r})"


def render_cyc(a: CycElement) -> str:
    """Canonical text form: "c0 + c1*z + ..." with rationals as p/q."""
    terms = []
    for j, x in enumerate(a.nums):
        if x == 0:
            continue
        g = math.gcd(x, a.den)
        c = str(x // g) if g == a.den else f"{x // g}/{a.den // g}"
        if j == 0:
            terms.append(c)
        elif j == 1:
            terms.append(f"{c}*z" if c != "1" else "z")
        else:
            terms.append(f"{c}*z^{j}" if c != "1" else f"z^{j}")
    if not terms:
        return "0"
    return " + ".join(terms).replace("+ -", "- ")


def _norm_and_conjugates(a: CycElement) -> tuple[int, CycElement]:
    """N(A) and prod_{s != 1} sigma_s(A) for the integral numerator A of ``a``.

    A times the product is N(A), a rational integer, nonzero for A != 0.
    """
    field = a.field
    a = CycElement(field, a.nums)
    conjugates = field.one()
    for s in range(2, field.n):
        if math.gcd(s, field.n) == 1:
            conjugates = conjugates * galois_apply(a, s)
    norm = a * conjugates
    if not norm.is_rational():
        raise AssertionError(f"the norm of {render_cyc(a)} in Q(zeta_{field.n}) is not rational")
    return norm.nums[0], conjugates


def galois_apply(a: CycElement, sigma: int) -> CycElement:
    """The automorphism zeta -> zeta^sigma for sigma coprime to n."""
    field = a.field
    if math.gcd(sigma, field.n) != 1:
        raise InputError("sigma must be coprime to n")
    out = [0] * field.degree
    for j, x in enumerate(a.nums):
        if x:
            for t, y in enumerate(field._zeta_pow[j * sigma % field.n]):
                out[t] += x * y
    return CycElement(field, out, a.den)


# ---------------------------------------------------------------------------
# Denominator ideals


def denominator_invariants(a: CycElement) -> list[int]:
    """The Smith diagonal of Z[zeta_n]/D(a), ascending and padded with ones to phi(n).

    D(a) = {y in Z[zeta_n] : y*a integral} is kept as ``a`` itself.  For
    a = A/c in lowest terms it is the kernel of y -> y*A mod c, so at each
    p^v exactly dividing c its quotient has the exponents v - min(e_i, v),
    where p^(e_i) are the elementary divisors over Z_p of the matrix of
    multiplication by A.

    At a p with v = 1 the quotient is (Z/p)^(d - deg h) for h = gcd(Phi_n,
    A) mod p, where A is nonzero mod p because ``a`` is in lowest terms:
    F_p[x] is a principal ideal domain, so the kernel of multiplication by
    A on F_p[x]/(Phi_n) is (Phi_n/h)/(Phi_n), isomorphic to F_p[x]/(h).
    Z/p^v[x] is not one for v >= 2, so there one elimination mod p^v
    returns exactly min(e_i, v); the rows of A are built only then.  An
    integral ``a``, zero included, has the full ring as D(a).
    """
    d = [1] * a.field.degree
    if a.den == 1:
        return d
    rows = None
    for p, v in factorize(a.den).items():
        if v == 1:
            deg_h = len(poly_gcd_mod_p(a.field.phi_n, a.nums, p)) - 1
            exps = [0] * (len(d) - deg_h) + [1] * deg_h
        else:
            rows = rows or [dict(enumerate(row)) for row in times_x_rows(a.field.phi_n, a.nums)]
            exps = padic_invariant_exponents(rows, p, v)
        d = [x * p ** (v - e) for x, e in zip(d, reversed(exps))]
    return d


def quotient_group(a: CycElement) -> AbelianGroupExpr:
    """Z[zeta_n]/D(a), the finite group of ``denominator_invariants``."""
    return AbelianGroupExpr.from_invariants(denominator_invariants(a))


def denominator_ideal(a: CycElement) -> list[list[int]]:
    """The row HNF basis of D(a) = {x in Z[zeta_n] : x*a integral}, checked closed under z.

    With c = ``a.den``, c times the multiplication-by-``a`` matrix is the
    integer matrix A whose row j is z^j times ``a.nums``, and D(a) is the
    kernel of v -> v*A mod c.  The rows [A | I] span, with c*Z^(2d), the
    pairs (v*A + c*y, v + c*z), so the vectors (0, v) among them, the
    trailing block of their HNF modulo c, are that kernel.  An integral
    ``a``, zero included, gives the identity.  Each basis row times z must
    reduce to zero against the basis, or ``AssertionError`` is raised.
    """
    field = a.field
    d = field.degree
    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    if a.den == 1:
        return identity
    rows = [arow + irow for arow, irow in zip(times_x_rows(field.phi_n, a.nums), identity)]
    basis = [row[d:] for row in hermite_normal_form(rows, a.den)[d:]]
    for row in basis:
        x = times_x_rows(field.phi_n, row, 2)[1]
        for i, h in enumerate(basis):
            q, r = divmod(x[i], h[i])
            if r:
                raise AssertionError("lattice is not closed under multiplication by zeta")
            if q:
                x = [s - q * t for s, t in zip(x, h)]
    return basis


# ---------------------------------------------------------------------------
# p-adic splitting data (unramified part of Q_p(zeta_n)/Q_p)


@lru_cache(maxsize=1024)
def padic_splitting(n: int, p: int) -> tuple[int, ...]:
    """Galois-twist exponents for the p-adic decomposition of Z[zeta_n].

    With n = p^v * n' and p prime to n', one representative per coset of
    (Z/n')^x modulo the cyclic subgroup generated by p: one per simple
    factor of Z[zeta_n] (x) Z_p, so there are phi(n')/ord_{n'}(p) of them.
    Cached: ``decompose_p`` asks for it once per character and prime.
    """
    if not is_prime(p):
        raise InputError("p must be prime")
    if n < 1:
        raise InputError("n must be positive")
    n_prime = n // p ** _vp(n, p)
    m = _multiplicative_order(p, n_prime)
    seen: set[int] = set()
    reps: list[int] = []
    for b in range(1, n_prime + 1):
        if math.gcd(b, n_prime) != 1 or b in seen:
            continue
        reps.append(b)
        x = b
        for _ in range(m):
            seen.add(x)
            x = x * p % n_prime
    return tuple(reps)


def cyclotomic_factor_count(n: int, p: int) -> int:
    """Number of irreducible factors of Phi_n mod p, for p prime not dividing n.

    Berlekamp (1967): for f squarefree mod p, the number of irreducible
    factors of f is the dimension of the kernel of Frobenius - 1 on
    F_p[z]/(f).  Phi_n is squarefree mod p when p does not divide n, and
    row j of Frobenius - 1 over the power basis is z^(pj) - z^j, so the
    count is the number of zero pivots of one elimination mod p.  The check
    of ``padic_splitting``, with which it shares no code.
    """
    if not is_prime(p) or n % p == 0:
        raise InputError(f"need a prime p not dividing n, got n = {n}, p = {p}")
    field = get_field(n)
    rows = [{i: x - (i == j) for i, x in enumerate(field.zeta_power(p * j).nums)} for j in range(field.degree)]
    return padic_invariant_exponents(rows, p, 1).count(1)
