"""Truncated multivariate power series in formal Chern roots.

Coefficients are exact cyclotomic numbers; monomials are dense exponent
tuples of total degree <= the truncation degree D.  The two central
constructions are the delocalized Todd class and the Koszul Chern
character of an eigen-line model: per line with eigenvalue zeta and
variable x, Todd contributes x/(1 - e^{-x}) when zeta = 1 and
1/(1 - zeta^{-1} e^{-x}) otherwise, while the Koszul complex
contributes 1 - zeta^{-1} e^{-x}.  The zero-section identity equates
the Koszul character with the Euler monomial of the zeta = 1 lines
times the inverse Todd class, coefficientwise within truncation.

All (2*pi*i) normalizations are absorbed into the variables, so every
coefficient stays in the cyclotomic field.  Deliberately, koszul_ch is
computed by subset enumeration with explicit multinomial coefficients
rather than by multiplying per-line factors, so the identity check
compares two genuinely independent computational paths.  The subset sum
is grouped by support: the subset products are summed over supersets
once, and each monomial scales the sum for its support by its weight.
The Todd side is an outer product of one-variable columns; in small
fields it is expanded through each column entry's integer multiplication
matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import mul

from .exactnum import Cyclotomic, _conv, _make, _mul_rows, euler_phi

__all__ = [
    "GradedSeries",
    "NormalModel",
    "DelocalizedClass",
    "ZeroSectionReport",
    "series_mul",
    "invert_unit",
    "exp_nilpotent",
    "todd_delocalized",
    "koszul_ch",
    "zero_section_identity",
    "delocalized_chern",
]


def _coerce(x) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic.from_rational(x)
    raise TypeError("series coefficients must be exact: %r" % (x,))


_CYC_ONE = Cyclotomic.one()


def _grlex_key(exps):
    return (sum(exps), exps)


# -- integer kernel ---------------------------------------------------------
#
# Bulk series arithmetic stays in the integer form that Cyclotomic stores:
# every coefficient is lifted into one fixed Q(zeta_n) and scaled to one
# common denominator, products go through the convolution of exactnum
# (`_conv`, or its matrix form `_mul_rows` for a repeated factor), sums are
# plain integer adds, and each output monomial becomes a Cyclotomic by one
# `_make`.

# Largest field degree phi(n) in which `_expand` multiplies through cached
# matrices: a matrix holds phi^2 integers, so in larger fields the cache
# would outweigh the series it builds, and building one costs more than the
# few products it serves there.
_ROWS_MAX_PHI = 32


def _common_order(*value_lists):
    n = 1
    for values in value_lists:
        for v in values:
            n = lcm(n, v.order)
    return n


def _over_common_den(values, n):
    """Numerator vectors of values inside Q(zeta_n) over one denominator."""
    lifted = [v.lift(n) for v in values]
    den = lcm(1, *(v.den for v in lifted))
    return [[x * (den // v.den) for x in v.num] for v in lifted], den


def _rebuild(n, acc, den) -> dict:
    """The coefficient dict whose x^key entry is acc[key]/den in Q(zeta_n)."""
    return {key: _make(n, vec, den) for key, vec in acc.items() if any(vec)}


class GradedSeries:
    """Polynomial truncation of a power series in num_vars variables.

    `factors` is None, or the one-variable columns (j, col) whose outer
    product this series is (see `_outer_product`); invert_unit inverts
    such a series column by column.  The coefficient dict of an outer
    product is built on its first read of `coeffs`, so a series that is
    only inverted is never expanded.  Series are not modified after
    construction, so recorded columns stay valid.
    """

    __slots__ = ("num_vars", "trunc_degree", "_coeffs", "factors")

    def __init__(self, num_vars, trunc_degree, coeffs=None):
        if trunc_degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        self.num_vars = num_vars
        self.trunc_degree = trunc_degree
        self.factors = None
        clean = {}
        for exps, val in (coeffs or {}).items():
            exps = tuple(exps)
            if len(exps) != num_vars or any(e < 0 for e in exps):
                raise ValueError("bad exponent tuple %r" % (exps,))
            if sum(exps) > trunc_degree:
                raise ValueError("monomial %r exceeds truncation" % (exps,))
            val = _coerce(val)
            if not val.is_zero():
                clean[exps] = val
        self._coeffs = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _raw(num_vars, trunc_degree, coeffs) -> "GradedSeries":
        # trusted input: canonical keys, nonzero Cyclotomic values
        s = GradedSeries.__new__(GradedSeries)
        s.num_vars = num_vars
        s.trunc_degree = trunc_degree
        s._coeffs = coeffs
        s.factors = None
        return s

    @property
    def coeffs(self) -> dict:
        """Exponent tuple -> nonzero coefficient; an outer product expands here."""
        if self._coeffs is None:
            self._coeffs = _expand(self.num_vars, self.trunc_degree, self.factors)
        return self._coeffs

    @staticmethod
    def zero(num_vars, trunc_degree) -> "GradedSeries":
        return GradedSeries(num_vars, trunc_degree)

    @staticmethod
    def constant(num_vars, trunc_degree, value) -> "GradedSeries":
        return GradedSeries(
            num_vars, trunc_degree, {(0,) * num_vars: _coerce(value)}
        )

    @staticmethod
    def one(num_vars, trunc_degree) -> "GradedSeries":
        return GradedSeries.constant(num_vars, trunc_degree, 1)

    @staticmethod
    def variable(num_vars, trunc_degree, j) -> "GradedSeries":
        exps = tuple(1 if i == j else 0 for i in range(num_vars))
        return GradedSeries(num_vars, trunc_degree, {exps: 1})

    # -- ring structure ----------------------------------------------------

    def _shape_check(self, other):
        if (
            self.num_vars != other.num_vars
            or self.trunc_degree != other.trunc_degree
        ):
            raise ValueError("incompatible series shapes")

    def coefficient(self, exps) -> Cyclotomic:
        return self.coeffs.get(tuple(exps), Cyclotomic.zero())

    @property
    def constant_term(self) -> Cyclotomic:
        return self.coefficient((0,) * self.num_vars)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, GradedSeries):
            other = GradedSeries.constant(self.num_vars, self.trunc_degree, other)
        self._shape_check(other)
        out = dict(self.coeffs)
        for exps, val in other.coeffs.items():
            out[exps] = out.get(exps, Cyclotomic.zero()) + val
        return GradedSeries(self.num_vars, self.trunc_degree, out)

    __radd__ = __add__

    def __neg__(self):
        return GradedSeries(
            self.num_vars,
            self.trunc_degree,
            {e: -v for e, v in self.coeffs.items()},
        )

    def __sub__(self, other):
        if not isinstance(other, GradedSeries):
            other = GradedSeries.constant(self.num_vars, self.trunc_degree, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value) -> "GradedSeries":
        value = _coerce(value)
        return GradedSeries(
            self.num_vars,
            self.trunc_degree,
            {e: v * value for e, v in self.coeffs.items()},
        )

    def __mul__(self, other):
        if not isinstance(other, GradedSeries):
            return self.scale(other)
        self._shape_check(other)
        d = self.trunc_degree
        if not self.coeffs or not other.coeffs:
            return GradedSeries.zero(self.num_vars, d)
        for mono, series in ((self, other), (other, self)):
            if len(mono.coeffs) == 1:
                ((e1, v1),) = mono.coeffs.items()
                if v1 == _CYC_ONE:
                    return _shift(series, e1)
        n = _common_order(self.coeffs.values(), other.coeffs.values())
        va, da = _over_common_den(self.coeffs.values(), n)
        vb, db = _over_common_den(other.coeffs.values(), n)
        lhs = [(sum(e), e, v) for e, v in zip(self.coeffs, va)]
        rhs = sorted(
            ((sum(e), e, v) for e, v in zip(other.coeffs, vb)), key=lambda t: t[0]
        )
        acc = {}
        for d1, e1, a in lhs:
            budget = d - d1
            if budget < 0:
                continue
            for d2, e2, b in rhs:
                if d2 > budget:
                    break
                key = tuple(x + y for x, y in zip(e1, e2))
                prod, cur = _conv(n, a, b), acc.get(key)
                acc[key] = prod if cur is None else [s + t for s, t in zip(cur, prod)]
        return GradedSeries._raw(self.num_vars, d, _rebuild(n, acc, da * db))

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers need invert_unit")
        out = GradedSeries.one(self.num_vars, self.trunc_degree)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self.trunc_degree == other.trunc_degree
            and self.coeffs == other.coeffs
        )

    def terms(self):
        """(exponents, coefficient) pairs in graded-lex order."""
        for exps in sorted(self.coeffs, key=_grlex_key):
            yield exps, self.coeffs[exps]

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for exps, val in self.terms():
            mono = "*".join(
                ("x%d" % j if e == 1 else "x%d^%d" % (j, e))
                for j, e in enumerate(exps)
                if e
            )
            cs = str(val)
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append("-" + mono)
            else:
                if any(op in cs[1:] for op in "+-"):
                    cs = "(%s)" % cs
                parts.append("%s*%s" % (cs, mono))
        text = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                text += " - " + p[1:]
            else:
                text += " + " + p
        return text

    __repr__ = __str__


def series_mul(a: GradedSeries, b: GradedSeries) -> GradedSeries:
    return a * b


def _shift(s: GradedSeries, exps) -> GradedSeries:
    """s times the monomial x^exps, truncated."""
    if not any(exps):
        return s
    budget = s.trunc_degree - sum(exps)
    out = {
        tuple(a + b for a, b in zip(exps, e2)): v2
        for e2, v2 in s.coeffs.items()
        if sum(e2) <= budget
    }
    return GradedSeries._raw(s.num_vars, s.trunc_degree, out)


@lru_cache(maxsize=256)
def _univar_inverse(col: tuple) -> tuple:
    """Inverse coefficient tuple of a one-variable unit given by col.

    Cached: a Todd column recurs in every model that carries its
    eigenvalue, and invert_unit inverts it in each of them.
    """
    a0inv = col[0].inverse()
    inv = [a0inv]
    for m in range(1, len(col)):
        acc = Cyclotomic.zero()
        for k in range(1, m + 1):
            if not col[k].is_zero():
                acc = acc + col[k] * inv[m - k]
        inv.append(-(a0inv * acc))
    return tuple(inv)


def _outer_product(num_vars, trunc_degree, factors) -> GradedSeries:
    """The truncated product of one-variable columns, recorded on the result.

    factors lists (j, col) with distinct variables j; col[k], k = 0..D, is
    the coefficient of x_j^k.  Only the columns are stored: the
    coefficient dict is expanded by `_expand` when `coeffs` is first read.
    """
    d = trunc_degree
    s = GradedSeries._raw(num_vars, d, None)
    s.factors = tuple((j, tuple(col[: d + 1])) for j, col in factors)
    return s


def _expand(num_vars, trunc_degree, factors) -> dict:
    """The coefficient dict of the outer product of factors.

    The x^a coefficient is prod_j col_j[a_j], formed over the integers in
    one Q(zeta_n), each column over its own common denominator: a
    depth-first walk over the factors keeps each prefix product as one
    numerator vector, so every monomial extending a prefix shares it, and
    each coefficient becomes a Cyclotomic once, at the leaf.  In fields of
    degree up to _ROWS_MAX_PHI each step multiplies the prefix by the
    integer matrix of a column entry (`exactnum._mul_rows`, cached per
    entry), since one entry meets every prefix of the walk.
    """
    n = _common_order(*(col for _, col in factors))
    phi = euler_phi(n)
    by_rows = phi <= _ROWS_MAX_PHI
    flat = []
    den = 1
    for i, (j, col) in enumerate(factors):
        vecs, cden = _over_common_den(col, n)
        entries = [(k, v) for k, v in enumerate(vecs) if any(v)]
        if i and by_rows:
            # past the first factor an entry only multiplies: keep its matrix
            entries = [(k, _mul_rows(n, tuple(v))) for k, v in entries]
        flat.append((j, entries))
        den *= cden
    acc = {}
    exps = [0] * num_vars

    def extend(i, budget, vec):
        if i == len(flat):
            acc[tuple(exps)] = vec
            return
        j, entries = flat[i]
        for k, v in entries:
            if k > budget:
                break
            exps[j] = k
            if not i:
                prod = v
            elif by_rows:
                prod = [sum(map(mul, row, vec)) for row in v]
            else:
                prod = _conv(n, vec, v)
            extend(i + 1, budget - k, prod)
        exps[j] = 0

    extend(0, trunc_degree, [1] + [0] * (phi - 1))
    return _rebuild(n, acc, den)


def _axis_factors(s: GradedSeries):
    """Columns whose outer product is exactly s, or None if s does not split.

    The column of each variable is the slice of s along its axis; all but
    the first are divided by the constant term, so the product carries it
    once.  The check is an exact comparison, so a split is never assumed.
    """
    d, r = s.trunc_degree, s.num_vars
    used = sorted({j for exps in s.coeffs for j, e in enumerate(exps) if e})
    if not used:
        return None
    c = s.constant_term
    cinv = c.inverse()
    factors = []
    for j in used:
        col = [c]
        for k in range(1, d + 1):
            col.append(s.coefficient(tuple(k if i == j else 0 for i in range(r))))
        if factors:
            col = [v * cinv for v in col]
        factors.append((j, tuple(col)))
    if _outer_product(r, d, factors) == s:
        return factors
    return None


def invert_unit(s: GradedSeries) -> GradedSeries:
    """Multiplicative inverse within truncation; needs a nonzero constant.

    A split series is inverted column by column and rebuilt by the same
    outer product.  Its columns are the recorded `factors` when it was
    built as an outer product (todd_delocalized does so); otherwise an
    exact product check detects whether it splits into one-variable
    slices.  A series that does not split, writing s = c(1 + t), is
    inverted by the recurrence b_m = -sum_k t_k b_{m-|k|}, which fills the
    inverse degree by degree at the cost of about one series product.
    Recorded columns are checked by their constants, the factors of the
    constant term, so an unexpanded outer product stays unexpanded.
    """
    d = s.trunc_degree
    if s.factors is not None:
        if any(col[0].is_zero() for _, col in s.factors):
            raise ValueError("not a unit: zero constant term")
        split = s.factors
    else:
        c = s.constant_term
        if c.is_zero():
            raise ValueError("not a unit: zero constant term")
        split = _axis_factors(s)
    if split is not None:
        return _outer_product(
            s.num_vars, d, [(j, _univar_inverse(col)) for j, col in split]
        )
    cinv = c.inverse()
    origin = (0,) * s.num_vars
    unit = s.scale(cinv)
    tail = [
        (sum(exps), exps, val)
        for exps, val in unit.coeffs.items()
        if exps != origin
    ]
    layers = [dict() for _ in range(d + 1)]
    layers[0][origin] = Cyclotomic.one()
    for m in range(1, d + 1):
        layer = layers[m]
        for deg, exps, val in tail:
            if deg > m:
                continue
            for e2, w in layers[m - deg].items():
                key = tuple(a + b for a, b in zip(exps, e2))
                prod = val * w
                if key in layer:
                    layer[key] = layer[key] + prod
                else:
                    layer[key] = prod
        for key, acc in list(layer.items()):
            acc = -acc
            if acc.is_zero():
                del layer[key]
            else:
                layer[key] = acc
    out = {}
    for layer in layers:
        for key, val in layer.items():
            out[key] = val * cinv
    return GradedSeries(s.num_vars, d, out)


def exp_nilpotent(s: GradedSeries) -> GradedSeries:
    """exp of a series with zero constant term."""
    if not s.constant_term.is_zero():
        raise ValueError("not nilpotent: nonzero constant term")
    out = GradedSeries.one(s.num_vars, s.trunc_degree)
    power = GradedSeries.one(s.num_vars, s.trunc_degree)
    for k in range(1, s.trunc_degree + 1):
        power = power * s
        if power.is_zero():
            break
        out = out + power.scale(Fraction(1, factorial(k)))
    return out


class NormalModel:
    """Eigen-line model of a normal bundle: (eigenvalue, variable) pairs."""

    __slots__ = ("lines", "trunc_degree", "num_vars")

    def __init__(self, lines, trunc_degree, num_vars=None):
        lines = tuple((_coerce(z), int(j)) for z, j in lines)
        indices = [j for _, j in lines]
        if len(set(indices)) != len(indices):
            raise ValueError("variable indices must be distinct")
        if num_vars is None:
            num_vars = max(indices) + 1 if indices else 0
        if any(j < 0 or j >= num_vars for j in indices):
            raise ValueError("variable index out of range")
        self.lines = lines
        self.trunc_degree = trunc_degree
        self.num_vars = num_vars

    @staticmethod
    def from_eigen(eigen, trunc_degree) -> "NormalModel":
        """Expand (eigenvalue, multiplicity) data into one line per dimension."""
        lines = []
        for zeta, mult in eigen.entries:
            for _ in range(mult):
                lines.append((zeta, len(lines)))
        return NormalModel(lines, trunc_degree, num_vars=len(lines))

    def __repr__(self):
        return "NormalModel(%s; D=%d)" % (
            ", ".join("(%s, x%d)" % (z, j) for z, j in self.lines),
            self.trunc_degree,
        )


@lru_cache(maxsize=None)
def _todd_line(zeta: Cyclotomic, trunc_degree: int):
    """Univariate coefficients of x/(1-e^{-x}) (zeta = 1) or 1/(1-zeta^{-1}e^{-x}).

    Cached per eigenvalue: the one-variable inversion is shared by every
    model that carries a line with this rotation number.
    """
    one = Cyclotomic.one()
    if zeta == one:
        # inverse of (1 - e^{-x})/x, whose coefficients are (-1)^k/(k+1)!
        base = [
            Cyclotomic.from_rational(Fraction(-1 if k % 2 else 1, factorial(k + 1)))
            for k in range(trunc_degree + 1)
        ]
    else:
        zinv = zeta.inverse()
        base = [one - zinv]
        for k in range(1, trunc_degree + 1):
            base.append(zinv * Fraction(1 if k % 2 else -1, factorial(k)))
    return _univar_inverse(tuple(base))


def todd_delocalized(model: NormalModel) -> GradedSeries:
    """Product over lines: x/(1-e^{-x}) at zeta = 1, else 1/(1-zeta^{-1}e^{-x}).

    Built as one outer product of the per-line Todd columns, which the
    returned series records as its `factors` for invert_unit.
    """
    d = model.trunc_degree
    return _outer_product(
        model.num_vars, d, [(j, _todd_line(zeta, d)) for zeta, j in model.lines]
    )


def _degs_within(k, budget):
    """Tuples of k nonnegative integers with sum at most budget."""
    if k == 0:
        yield ()
        return
    for a in range(budget + 1):
        for rest in _degs_within(k - 1, budget - a):
            yield (a,) + rest


@lru_cache(maxsize=256)
def _koszul_table(line_vars, num_vars, trunc_degree):
    """(exponents, support mask, W(a) * D!) for each monomial on line_vars.

    The monomials a are those of total degree <= D in the variables
    line_vars[i]; bit i of the support mask is set when a_{line_vars[i]} > 0.
    W(a) = prod_j (-1)^{a_j}/a_j!, and prod_j a_j! divides D! because
    sum_j a_j <= D, so W(a) * D! is an integer.  One table serves every
    model whose lines sit on the same variables.
    """
    full = factorial(trunc_degree)
    rows = []
    for degs in _degs_within(len(line_vars), trunc_degree):
        w, wden, mask = full, 1, 0
        exps = [0] * num_vars
        for i, (j, a) in enumerate(zip(line_vars, degs)):
            if a:
                mask |= 1 << i
                exps[j] = a
                wden *= factorial(a)
                if a % 2:
                    w = -w
        rows.append((tuple(exps), mask, w // wden))
    return tuple(rows)


def _support_sums(zvecs):
    """F[T] = sum over S containing T of (-1)^{|S|} zvecs[S], for every mask T.

    zvecs[S] is the numerator vector of prod_{i in S} zeta_i^{-1}.  One
    superset-sum pass over the signed vectors gives all 2^r values with
    r * 2^(r-1) vector adds.
    """
    f = [
        [-x for x in v] if bin(mask).count("1") % 2 else v
        for mask, v in enumerate(zvecs)
    ]
    bit = 1
    while bit < len(f):
        for mask in range(len(f)):
            if not mask & bit:
                f[mask] = [a + b for a, b in zip(f[mask], f[mask | bit])]
        bit <<= 1
    return f


def koszul_ch(model: NormalModel) -> GradedSeries:
    """Sum over subsets S of lines of (-1)^{|S|} prod_{j in S} zeta_j^{-1} e^{-x_j}.

    Expanded directly: the x^a coefficient picks up, from each subset S
    containing the support T of a, the term (-1)^{|S|} prod_{j in S}
    zeta_j^{-1} times the multinomial weight W(a) = prod_j (-1)^{a_j}/a_j!.
    The sum is grouped by support: it is W(a) * F(T), with F(T) the sum of
    the signed subset products over S containing T, and all 2^r values
    of F come from one superset-sum pass (`_support_sums`).  Each
    monomial then scales one vector.  No series multiplication is
    involved.  All terms share the denominator
    lcm(zeta-product denominators) * D!, so the sums are integer adds.
    """
    r, d = model.num_vars, model.trunc_degree
    order = _common_order(zeta for zeta, _ in model.lines)
    # zfacs[mask] is the product of zeta^{-1} over the lines in mask
    zfacs = [Cyclotomic.one()]
    for zeta, _ in model.lines:
        zinv = zeta.inverse()
        zfacs += [z * zinv for z in zfacs]
    zvecs, zden = _over_common_den(zfacs, order)
    f = _support_sums(zvecs)
    table = _koszul_table(tuple(j for _, j in model.lines), r, d)
    acc = {exps: [w * x for x in f[mask]] for exps, mask, w in table}
    return GradedSeries._raw(r, d, _rebuild(order, acc, zden * factorial(d)))


class ZeroSectionReport:
    """Outcome of the Koszul = Euler * Todd^{-1} comparison."""

    __slots__ = ("passed", "lhs", "rhs", "first_mismatch")

    def __init__(self, passed, lhs, rhs, first_mismatch=None):
        self.passed = passed
        self.lhs = lhs
        self.rhs = rhs
        self.first_mismatch = first_mismatch

    def __bool__(self):
        return self.passed

    def __repr__(self):
        if self.passed:
            return "ZeroSectionReport(passed)"
        return "ZeroSectionReport(failed at %r)" % (self.first_mismatch,)


def first_difference(a: GradedSeries, b: GradedSeries):
    """Graded-lex smallest exponent tuple where two series differ, or None."""
    if a.coeffs == b.coeffs:
        return None
    keys = set(a.coeffs) | set(b.coeffs)
    for exps in sorted(keys, key=_grlex_key):
        if a.coefficient(exps) != b.coefficient(exps):
            return exps
    return None


def zero_section_identity(model: NormalModel) -> ZeroSectionReport:
    """koszul_ch(model) = (prod of zeta=1 variables) * invert_unit(todd)."""
    lhs = koszul_ch(model)
    euler_exps = [0] * model.num_vars
    one = Cyclotomic.one()
    for zeta, j in model.lines:
        if zeta == one:
            euler_exps[j] = 1
    if sum(euler_exps) > model.trunc_degree:
        raise ValueError(
            "truncation degree %d is below %d, the degree of the Euler monomial"
            % (model.trunc_degree, sum(euler_exps))
        )
    rhs = _shift(invert_unit(todd_delocalized(model)), euler_exps)
    diff = first_difference(lhs, rhs)
    return ZeroSectionReport(diff is None, lhs, rhs, diff)


class DelocalizedClass:
    """One graded series per inertia component, indexed like the classes."""

    __slots__ = ("components",)

    def __init__(self, components):
        self.components = tuple(components)

    def __getitem__(self, c):
        return self.components[c]

    def __len__(self):
        return len(self.components)


def delocalized_chern(chart, cx, trunc_degree) -> DelocalizedClass:
    """ch of an equivariant complex over a chart: the flat/constant model.

    On each inertia component the curvature vanishes, so the component
    series is the constant supertrace of the acting element; the
    variables are the Chern roots of that component's normal lines.
    """
    from .charts import inertia_data
    from .complexes import supertrace_class

    chi = supertrace_class(cx)
    out = []
    for comp in inertia_data(chart):
        r = comp.normal_eigen.total()
        out.append(
            GradedSeries.constant(r, trunc_degree, chi.values[comp.class_index])
        )
    return DelocalizedClass(out)
