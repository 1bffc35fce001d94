"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element of Q(zeta_n) is stored as its residue modulo the n-th
cyclotomic polynomial Phi_n, against the power basis 1, zeta, ...,
zeta^(phi(n)-1), in the form of FLINT's nf_elem and GAP's cyclotomics:
an integer numerator tuple `num` of length phi(n) over one positive
denominator `den`, with gcd(den, *num) = 1; zero is (0, ..., 0) over 1.
The form is canonical, so equality is a tuple comparison.  Every
operation runs on integers through one private kernel: `_reduce` (fold
exponents modulo n, rewrite through Phi_n), `_conv` (the one
convolution), `_galois` (zeta_n -> zeta_n^k on a numerator), `_lift_num`
(zeta_n -> zeta_m^(m/n) on a numerator) and `_make` (one gcd to lowest
terms), which `series` uses as well; and the one exact elimination, a
forward pass `_forward_eliminate` that holds the pivot rule and a back
pass `_back_eliminate`, which every `linalg.Matrix` reduction and
`descend` run through.  The inverse is a norm: num times the product of
its other Galois conjugates is an integer.  Fraction is left only at the
input boundary and in the coordinates built on request (`coeffs`).
Binary operations on operands of different orders lift both to the least
common order via zeta_m -> zeta_M^(M/m); results keep that common order
and are never descended automatically.  The scalar fast paths keep that
rule: a sum with a zero returns the other operand only when the zero's
order divides the other's, a rational is added into `num[0]` of the
other operand without a lift, and an int or Fraction factor scales the
numerators directly.  Integers are unbounded throughout; floats are
rejected.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache


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
    """phi(n), and x^j mod Phi_n for j = phi(n) .. n-1 as sparse rows (i, c)."""
    phi = euler_phi(n)
    top = [-c for c in cyclotomic_polynomial(n)[:phi]]
    dense = [top]
    for _ in range(phi + 1, n):
        prev = dense[-1]
        nxt = [0] + prev[:-1]
        carry = prev[-1]
        if carry:
            for i in range(phi):
                nxt[i] += carry * top[i]
        dense.append(nxt)
    return phi, tuple(tuple((i, c) for i, c in enumerate(r) if c) for r in dense)


# -- integer kernel ---------------------------------------------------------


def _reduce(n, raw) -> list:
    """Integer power-basis coefficients (consumed) as a residue of length phi(n).

    Exponents are first folded modulo n (zeta^n = 1), then exponents
    >= phi(n) are rewritten through Phi_n.
    """
    if len(raw) > n:
        for k in range(n, len(raw)):
            if raw[k]:
                raw[k % n] += raw[k]
        del raw[n:]
    phi, rows = _reduction_rows(n)
    out = raw[:phi] + [0] * (phi - len(raw))
    for j in range(phi, len(raw)):
        c = raw[j]
        if c:
            for i, r in rows[j - phi]:
                out[i] += c * r
    return out


def _conv(n, a, b) -> list:
    """The product of two integer residues of Z[zeta_n], reduced."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    return _reduce(n, conv)


def _galois(n, num, k) -> list:
    """The residue num of Z[zeta_n] under zeta -> zeta^k, k prime to n."""
    raw = [0] * n
    for i, c in enumerate(num):
        if c:
            raw[i * k % n] += c
    return _reduce(n, raw)


def _lift_num(n, m, num):
    """The residue num of Z[zeta_n] as a residue of Z[zeta_m], m a multiple of n.

    zeta_n -> zeta_m^(m/n), then reduced; num itself when m == n.  The map
    is linear, so a numerator lifts apart from its denominator.
    """
    if m == n:
        return num
    step = m // n
    raw = [0] * (step * (len(num) - 1) + 1)
    for k, c in enumerate(num):
        if c:
            raw[k * step] = c
    return _reduce(m, raw)


def _make(order, num, den) -> "Cyclotomic":
    """The Cyclotomic num/den; num is a residue of length phi(order), den > 0."""
    g = math.gcd(den, *num)
    if g != 1:
        num = [x // g for x in num]
        den //= g
    v = _new(Cyclotomic)
    v.order = order
    v.num = tuple(num)
    v.den = den
    v._min = None
    return v


def _from_coeffs(order, coeffs):
    """(residue, den) of arbitrary int or Fraction power-basis coefficients."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    fracs = []
    for c in coeffs:
        if isinstance(c, float):
            raise TypeError("floats are not exact; use Fraction or int")
        fracs.append(Fraction(c))
    den = math.lcm(1, *(c.denominator for c in fracs))
    return _reduce(order, [c.numerator * (den // c.denominator) for c in fracs]), den


def canonicalize(order: int, coeffs) -> tuple:
    """Reduce arbitrary power-basis coefficients to length phi(order).

    Exponents are first folded modulo order (zeta^order = 1), then
    exponents >= phi(order) are rewritten through Phi_order.  The result
    is a tuple of Fractions.
    """
    num, den = _from_coeffs(order, coeffs)
    return tuple(Fraction(x, den) for x in num)


def _forward_eliminate(rows, ncols):
    """Bring rows, a list of lists of Cyclotomic values, to echelon form in place.

    The pivot rule: the first nonzero entry (smallest row index) in the
    leftmost unfinished column, so the echelon form and its pivots are
    canonical for a given input.  Each pivot row is scaled to lead with 1
    and cleared below its pivot; pivot i ends in row i.  Returns (pivot
    columns, pivot values as met, row-swap count): the rank is the number
    of pivots, and a square matrix of full rank has determinant
    (-1)^swaps times the product of the pivot values.
    """
    nrows = len(rows)
    pivots = []
    values = []
    swaps = 0
    pr = 0
    for col in range(ncols):
        if pr == nrows:
            break
        # zero tests read the numerators: cheaper than a call to __bool__
        for r in range(pr, nrows):
            if any(rows[r][col].num):
                break
        else:
            continue
        if r != pr:
            rows[pr], rows[r] = rows[r], rows[pr]
            swaps += 1
        p = rows[pr][col]
        inv = p.inverse()
        prow = rows[pr] = [e * inv for e in rows[pr]]
        live = [j for j, e in enumerate(prow) if any(e.num)]
        for r in range(pr + 1, nrows):
            row = rows[r]
            f = row[col]
            if any(f.num):
                for j in live:
                    row[j] = row[j] - f * prow[j]
        pivots.append(col)
        values.append(p)
        pr += 1
    return pivots, values, swaps


def _back_eliminate(rows, pivots):
    """Clear above each pivot of an echelon form left by `_forward_eliminate`,
    last pivot first, which leaves the reduced row echelon form in place."""
    for i in range(len(pivots) - 1, 0, -1):
        prow = rows[i]
        col = pivots[i]
        live = [j for j, e in enumerate(prow) if any(e.num)]
        for r in range(i):
            row = rows[r]
            f = row[col]
            if any(f.num):
                for j in live:
                    row[j] = row[j] - f * prow[j]


class Cyclotomic:
    """An element of Q(zeta_order): the residue num/den in canonical form."""

    __slots__ = ("order", "num", "den", "_min")

    def __new__(cls, order, coeffs):
        return _make(order, *_from_coeffs(order, coeffs))

    @property
    def coeffs(self) -> tuple:
        """The power-basis coordinates as Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    @staticmethod
    def from_rational(q) -> "Cyclotomic":
        if isinstance(q, float):
            raise TypeError("floats are not exact; use Fraction or int")
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return _make(1, (q.numerator,), q.denominator)

    @staticmethod
    def root_of_unity(n: int, k: int = 1) -> "Cyclotomic":
        """zeta_n^k, exactly."""
        if n < 1:
            raise ValueError("order must be a positive integer")
        k %= n
        raw = [0] * (k + 1)
        raw[k] = 1
        return _make(n, _reduce(n, raw), 1)

    @staticmethod
    def zero() -> "Cyclotomic":
        return _ZERO

    @staticmethod
    def one() -> "Cyclotomic":
        return _ONE

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def lift(self, order: int) -> "Cyclotomic":
        """The same value viewed in Q(zeta_order); order must be a multiple."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("lift target must be a multiple of the order")
        return _make(order, _lift_num(self.order, order, self.num), self.den)

    def _common(self, other):
        m = math.lcm(self.order, other.order)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        if type(other) is not Cyclotomic:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        n, m = self.order, other.order
        a, b = self.num, other.num
        da, db = self.den, other.den
        # a zero returns the other operand when that keeps the common order
        if not any(b) and n % m == 0:
            return self
        if not any(a) and m % n == 0:
            return other
        if n != m:
            if m == 1:
                return _add_rational(n, a, da, b[0], db)
            if n == 1:
                return _add_rational(m, b, db, a[0], da)
            self, other = self._common(other)
            n, a, b = self.order, self.num, other.num
        if da == db:
            return _make(n, [x + y for x, y in zip(a, b)], da)
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        return _make(n, [x * ma + y * mb for x, y in zip(a, b)], da * ma)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, [-c for c in self.num], self.den)

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
        t = type(other)
        if t is int or t is Fraction:
            # an exact rational factor scales the numerators, no coerced temporary
            p = other.numerator
            if not p:
                return _ZERO
            den = other.denominator * self.den
            return _make(self.order, [p * c for c in self.num], den)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.order == 1 or other.order == 1:
            q, v = (self, other) if self.order == 1 else (other, self)
            p = q.num[0]
            if not p:
                return _ZERO
            return _make(v.order, [p * c for c in v.num], q.den * v.den)
        if self.order != other.order:
            self, other = self._common(other)
        n = self.order
        return _make(n, _conv(n, self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse, through the norm of the numerator."""
        return _inverse(self.order, self.num, self.den)

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
        result = _make(self.order, _reduce(self.order, [1]), 1)
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
        return _make(n, _galois(n, self.num, n - 1), self.den)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.order != other.order:
            self, other = self._common(other)
        return self.num == other.num and self.den == other.den

    def __bool__(self):
        return any(self.num)

    def descend(self) -> "Cyclotomic":
        """An equal element at the smallest order dividing this one."""
        if self._min is not None:
            return self._min
        if self.is_rational():
            out = self if self.order == 1 else _make(1, self.num[:1], self.den)
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
        """This value as an element of Q(zeta_d), d dividing the order; None if not there."""
        n, phi = self.order, euler_phi(d)
        cols = [_lift_num(d, n, [int(i == k) for i in range(phi)]) for k in range(phi)]
        rows = [
            [_make(1, (c[i],), 1) for c in cols] + [_make(1, (x,), 1)]
            for i, x in enumerate(self.num)
        ]
        pivots = _forward_eliminate(rows, phi + 1)[0]
        if pivots[-1] == phi:
            return None
        _back_eliminate(rows, pivots)
        # the lift is injective, so every coordinate is a pivot
        sol = [row[phi] for row in rows[:phi]]
        den = math.lcm(*(v.den for v in sol))
        num = [v.num[0] * (den // v.den) for v in sol]
        return _make(d, num, den * self.den)

    def __hash__(self):
        d = self.descend()
        if d.order == 1:
            return hash(Fraction(d.num[0], d.den))
        return hash((d.order, d.num, d.den))

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
        n, den = d.order, d.den
        parts = []
        for k, x in enumerate(d.num):
            if not x:
                continue
            g = math.gcd(x, den)
            p, q = x // g, den // g
            c = str(p) if q == 1 else "%d/%d" % (p, q)
            if k == 0:
                body = c
            else:
                base = "E(%d)" % n
                if k > 1:
                    base = "%s^%d" % (base, k)
                if c == "1":
                    body = base
                elif c == "-1":
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


_new = object.__new__


def _add_rational(n, num, den, p, q) -> Cyclotomic:
    """num/den in Q(zeta_n) plus the rational p/q: p goes into num[0]."""
    if den == q:
        out = list(num)
        out[0] += p
        return _make(n, out, den)
    g = math.gcd(den, q)
    ma, mb = q // g, den // g
    out = [x * ma for x in num]
    out[0] += p * mb
    return _make(n, out, den * ma)


@lru_cache(maxsize=1024)
def _inverse(order, num, den) -> Cyclotomic:
    """(num/den)^-1 in Q(zeta_order), through the norm of num.

    R is the product of the conjugates `_galois(order, num, k)` over k
    prime to order with k != 1, so num * R is the norm N of num, a nonzero
    integer: only coordinate 0 of num * R is nonzero, and the inverse is
    den * R / N.  The sign of N moves into R, so the denominator stays
    positive.  Cached per value: koszul_ch inverts the same roots of unity
    in every model.
    """
    if not any(num):
        raise ZeroDivisionError("cyclotomic division by zero")
    rest = [1]
    for k in range(2, order):
        if math.gcd(k, order) == 1:
            rest = _conv(order, rest, _galois(order, num, k))
    norm = _conv(order, num, rest)[0]
    if norm < 0:
        norm, rest = -norm, [-x for x in rest]
    return _make(order, [den * x for x in rest], norm)


def _coerce(x):
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return _make(1, (x.numerator,), x.denominator)
    return None


_ZERO = _make(1, (0,), 1)
_ONE = _make(1, (1,), 1)
