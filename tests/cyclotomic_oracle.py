"""Test oracle: the Fraction-coordinate Cyclotomic that orbichern.exactnum
replaced.

Each element of Q(zeta_n) is a tuple of phi(n) Fractions against the power
basis, and every operation works on those Fractions directly.  It is kept
only so that tests/test_exactnum.py can compare the integer kernel against
an independent implementation; nothing in the package imports it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

Rational = Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient of a positive integer."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def divisors(n: int) -> list:
    """Positive divisors of n, ascending."""
    return [d for d in range(1, n + 1) if n % d == 0]


def _poly_div_exact(num, den):
    """Exact quotient of integer polynomials (constant term first)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for top in range(len(num) - 1, dd - 1, -1):
        q, r = divmod(num[top], den[-1])
        assert r == 0, "division is not exact"
        k = top - dd
        out[k] = q
        if q:
            for i, c in enumerate(den):
                num[k + i] -= q * c
    assert not any(num), "division left a remainder"
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Integer coefficients of Phi_n, constant term first."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple:
    """x^j mod Phi_n for j = phi(n) .. n-1, integer vectors of length phi(n)."""
    phi = euler_phi(n)
    top = [-c for c in cyclotomic_polynomial(n)[:phi]]
    rows = [tuple(top)]
    prev = top
    for _ in range(phi + 1, n):
        nxt = [0] + prev[:-1]
        carry = prev[-1]
        if carry:
            for i in range(phi):
                nxt[i] += carry * top[i]
        rows.append(tuple(nxt))
        prev = nxt
    return tuple(rows)


def canonicalize(order: int, coeffs) -> tuple:
    """Reduce arbitrary power-basis coefficients to length phi(order).

    Exponents are first folded modulo order (zeta^order = 1), then
    exponents >= phi(order) are rewritten through Phi_order.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    phi = euler_phi(order)
    folded = [_F0] * order
    for k, c in enumerate(coeffs):
        if isinstance(c, float):
            raise TypeError("floats are not exact; use Fraction or int")
        if not isinstance(c, Fraction):
            c = Fraction(c)
        if c:
            folded[k % order] += c
    out = folded[:phi]
    if order > phi:
        rows = _reduction_rows(order)
        for j in range(phi, order):
            c = folded[j]
            if c:
                row = rows[j - phi]
                for i in range(phi):
                    if row[i]:
                        out[i] += c * row[i]
    return tuple(out)


def _int_vec(coeffs):
    """Common denominator and integer numerators for a Fraction tuple."""
    den = 1
    for c in coeffs:
        d = c.denominator
        den = den * d // math.gcd(den, d)
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    return nums, den


def _pstrip(p):
    while p and not p[-1]:
        p.pop()
    return p


def _pdivmod(num, den):
    """Quotient and remainder of Fraction polynomials, constant term first."""
    num = list(num)
    dd = len(den) - 1
    if len(num) <= dd:
        return [], _pstrip(num)
    out = [_F0] * (len(num) - dd)
    lead = den[-1]
    for top in range(len(num) - 1, dd - 1, -1):
        c = num[top]
        if c:
            k = top - dd
            f = c / lead
            out[k] = f
            for i, dc in enumerate(den):
                if dc:
                    num[k + i] -= f * dc
    return out, _pstrip(num[:dd])


def _solve_rational(cols, target):
    """Solve sum_j x_j cols[j] = target over Q; None if inconsistent."""
    m = len(target)
    n = len(cols)
    aug = [[cols[j][i] for j in range(n)] + [target[i]] for i in range(m)]
    pivots = []
    pr = 0
    for col in range(n):
        pivot = None
        for r in range(pr, m):
            if aug[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        aug[pr], aug[pivot] = aug[pivot], aug[pr]
        inv = 1 / aug[pr][col]
        aug[pr] = [e * inv for e in aug[pr]]
        for r in range(m):
            if r != pr and aug[r][col]:
                f = aug[r][col]
                prow = aug[pr]
                aug[r] = [a - f * b for a, b in zip(aug[r], prow)]
        pivots.append(col)
        pr += 1
        if pr == m:
            break
    for r in range(pr, m):
        if aug[r][n]:
            return None
    sol = [_F0] * n
    for i, col in enumerate(pivots):
        sol[col] = aug[i][n]
    return sol


class Cyclotomic:
    """An element of Q(zeta_order) in canonical residue form."""

    __slots__ = ("order", "coeffs", "_min")

    def __init__(self, order, coeffs, _canonical=False):
        if not _canonical:
            coeffs = canonicalize(order, coeffs)
        self.order = order
        self.coeffs = coeffs
        self._min = None

    @staticmethod
    def from_rational(q) -> "Cyclotomic":
        if isinstance(q, float):
            raise TypeError("floats are not exact; use Fraction or int")
        return Cyclotomic(1, (Fraction(q),), _canonical=True)

    @staticmethod
    def root_of_unity(n: int, k: int = 1) -> "Cyclotomic":
        """zeta_n^k, exactly."""
        if n < 1:
            raise ValueError("order must be a positive integer")
        k %= n
        raw = [0] * (k + 1)
        raw[k] = 1
        return Cyclotomic(n, raw)

    @staticmethod
    def zero() -> "Cyclotomic":
        return _ZERO

    @staticmethod
    def one() -> "Cyclotomic":
        return _ONE

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational: %s" % (self,))
        return self.coeffs[0]

    def lift(self, order: int) -> "Cyclotomic":
        """The same value viewed in Q(zeta_order); order must be a multiple."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("lift target must be a multiple of the order")
        step = order // self.order
        raw = [_F0] * (step * (len(self.coeffs) - 1) + 1)
        for k, c in enumerate(self.coeffs):
            if c:
                raw[k * step] = c
        return Cyclotomic(order, raw)

    def _common(self, other):
        m = math.lcm(self.order, other.order)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.order != other.order:
            self, other = self._common(other)
        return Cyclotomic(
            self.order,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            _canonical=True,
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-c for c in self.coeffs), _canonical=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.order == 1:
            q = self.coeffs[0]
            if not q:
                return _ZERO
            return Cyclotomic(
                other.order, tuple(q * c for c in other.coeffs), _canonical=True
            )
        if other.order == 1:
            q = other.coeffs[0]
            if not q:
                return _ZERO
            return Cyclotomic(
                self.order, tuple(q * c for c in self.coeffs), _canonical=True
            )
        if self.order != other.order:
            self, other = self._common(other)
        # convolve over a common denominator: the inner loop then runs on
        # machine integers and only the final residue pays gcd normalization
        n = self.order
        a, da = _int_vec(self.coeffs)
        b, db = _int_vec(other.coeffs)
        conv = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        if len(conv) > n:
            for k in range(n, len(conv)):
                if conv[k]:
                    conv[k % n] += conv[k]
            del conv[n:]
        phi = len(a)
        out = conv[:phi]
        if len(conv) > phi:
            rows = _reduction_rows(n)
            for j in range(phi, len(conv)):
                c = conv[j]
                if c:
                    row = rows[j - phi]
                    for i in range(phi):
                        if row[i]:
                            out[i] += c * row[i]
        den = da * db
        return Cyclotomic(n, tuple(Fraction(v, den) for v in out), _canonical=True)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse by extended Euclid against Phi_order."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.is_rational():
            return Cyclotomic(self.order, (_F1 / self.coeffs[0],) + self.coeffs[1:], _canonical=True)
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, v0 = phi_poly, [_F0]
        r1, v1 = _pstrip(list(self.coeffs)), [_F1]
        while len(r1) > 1:
            q, r = _pdivmod(r0, r1)
            # v = v0 - q*v1
            v = [_F0] * max(len(v0), len(q) + len(v1) - 1)
            for i, c in enumerate(v0):
                v[i] += c
            for i, qi in enumerate(q):
                if qi:
                    for j, vj in enumerate(v1):
                        if vj:
                            v[i + j] -= qi * vj
            r0, v0, r1, v1 = r1, v1, r, _pstrip(v)
        c = r1[0]  # nonzero: Phi_order is irreducible over Q
        return Cyclotomic(self.order, canonicalize(self.order, [vi / c for vi in v1]), _canonical=True)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclotomic(self.order, canonicalize(self.order, (1,)), _canonical=True)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugate: zeta -> zeta^(order-1)."""
        n = self.order
        raw = [_F0] * n
        for k, c in enumerate(self.coeffs):
            if c:
                raw[(k * (n - 1)) % n] += c
        return Cyclotomic(n, raw)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def __bool__(self):
        return not self.is_zero()

    def descend(self) -> "Cyclotomic":
        """An equal element at the smallest order dividing this one."""
        if self._min is not None:
            return self._min
        if self.is_rational():
            out = self if self.order == 1 else Cyclotomic(1, (self.coeffs[0],), _canonical=True)
        else:
            out = self
            for d in divisors(self.order)[:-1]:
                cand = self._at_order(d)
                if cand is not None:
                    out = cand
                    break
        self._min = out
        return out

    def _at_order(self, d):
        step = self.order // d
        cols = []
        for k in range(euler_phi(d)):
            raw = [0] * (k * step + 1)
            raw[k * step] = 1
            cols.append(canonicalize(self.order, raw))
        sol = _solve_rational(cols, self.coeffs)
        if sol is None:
            return None
        return Cyclotomic(d, tuple(sol), _canonical=True)

    def __hash__(self):
        d = self.descend()
        if d.order == 1:
            return hash(d.coeffs[0])
        return hash((d.order, d.coeffs))

    def __complex__(self):
        w = cmath.exp(2j * cmath.pi / self.order)
        acc = 0j
        pw = 1 + 0j
        for c in self.coeffs:
            if c:
                acc += float(c) * pw
            pw *= w
        return acc

    def __str__(self):
        d = self.descend()
        n, cs = d.order, d.coeffs
        parts = []
        for k, c in enumerate(cs):
            if not c:
                continue
            if k == 0:
                body = str(c)
            else:
                base = "E(%d)" % n
                if k > 1:
                    base = "%s^%d" % (base, k)
                if c == 1:
                    body = base
                elif c == -1:
                    body = "-" + base
                else:
                    body = "%s*%s" % (c, base)
            parts.append(body)
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out = out + " - " + p[1:]
            else:
                out = out + " + " + p
        return out

    __repr__ = __str__


def _coerce(x):
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic.from_rational(x)
    return None


_ZERO = Cyclotomic(1, (_F0,), _canonical=True)
_ONE = Cyclotomic(1, (_F1,), _canonical=True)
