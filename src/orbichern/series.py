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
The Todd side is an outer product of one-variable columns, expanded by
a walk over direction prefixes: each column entry is an integer times a
primitive numerator vector, its direction, so one field product serves
every monomial whose entries share their directions, and each of them
only scales it by an integer.  The Euler monomial shifts the recorded
columns before the walk, so the walk builds no monomial past the
truncation.

Both sides stay factored until something reads them: the Todd side as
its prefix walk (a vector per direction prefix, an integer scale per
monomial), the Koszul side as its support vectors and integer weights.
The zero-section verdict is decided on these factored forms: each
(prefix, support) pair that a monomial meets is checked proportional
once, and each monomial then costs one integer equation.  The two
routes still compute their own numbers; only the comparison looks at
both.

A series read coefficientwise is held in one integer form, (n,
{exponents: numerator vector}, den): every coefficient a nonzero residue
of Z[zeta_n] over one common denominator.  A factored form is flattened
into it on the first read, and a series given by its coefficients is
converted to it once, when it is built.  Sums, products and general
comparisons (`==`, first_difference) run on that form alone, by
cross-multiplying residues in one field; a Cyclotomic coefficient is
built only for a caller that reads it, and the whole coefficient dict,
`coeffs`, is only a view of the form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from types import MappingProxyType

from .exactnum import Cyclotomic, _conv, _lift_num, _make

__all__ = [
    "GradedSeries",
    "NormalModel",
    "DelocalizedClass",
    "ZeroSectionReport",
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


def _grlex_key(exps):
    return (sum(exps), exps)


# -- integer kernel ---------------------------------------------------------
#
# Bulk series arithmetic stays in the integer form that Cyclotomic stores:
# every coefficient is lifted into one fixed Q(zeta_n) and scaled to one
# common denominator, products go through the one convolution of exactnum,
# `_conv`, and sums are plain integer adds; `_column_split` takes each
# entry's integer gcd out of its vector, so a product of column entries is
# one `_conv` per direction prefix and one integer scale per monomial.  The
# result is kept as the series' integer form; an output monomial becomes a
# Cyclotomic, by one `_make`, when it is read.


def _common_order(*value_lists):
    n = 1
    for values in value_lists:
        for v in values:
            n = lcm(n, v.order)
    return n


def _over_common_den(key, n):
    """Numerator vectors inside Q(zeta_n), over one denominator, of the
    values whose `_num_key` is key."""
    den = lcm(1, *(d for _, _, d in key))
    vecs = [_lift_num(order, n, [x * (den // d) for x in num]) for order, num, d in key]
    return vecs, den


def _num_key(values) -> tuple:
    """Values as (order, num, den) triples: a cache key that hashes integers."""
    return tuple((v.order, v.num, v.den) for v in values)


class GradedSeries:
    """Polynomial truncation of a power series in num_vars variables.

    Up to three forms are stored, the first two made into the third on
    first need:

    - `factors`: None, or the one-variable columns (j, col) whose outer
      product this series is (see `_outer_product`); invert_unit inverts
      such a series column by column, so one that is only inverted is
      never expanded.
    - `_pending`: None, or a factored form and the function that flattens
      it, (flatten, form): koszul_ch's parts, or the prefix walk of an
      outer product that zero_section_identity has compared.  It is
      dropped once flattened.
    - the integer form, `_int_form()`: (n, {exponents: numerator vector},
      den), each vector a nonzero residue of Z[zeta_n] over the common
      denominator den.  A series built from coefficients converts them
      into it once; sums and products build it directly, and the two
      forms above are flattened into it.  `==` and first_difference
      compare two integer forms without building a Cyclotomic.

    `coeffs` is a view: exponents -> nonzero Cyclotomic, one `_make`
    each, built on the first read (a series built from coefficients keeps
    the values it was given); `coefficient` makes only the value it
    returns.

    Series are not modified after construction, so recorded forms stay
    valid.
    """

    __slots__ = ("num_vars", "trunc_degree", "_coeffs", "_ints", "_pending", "factors")

    def __init__(self, num_vars, trunc_degree, coeffs=None):
        if not isinstance(trunc_degree, int) or trunc_degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        self.num_vars = num_vars
        self.trunc_degree = trunc_degree
        self.factors = None
        self._pending = None
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
        n = _common_order(clean.values())
        vecs, den = _over_common_den(_num_key(clean.values()), n)
        self._ints = (n, dict(zip(clean, vecs)), den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _raw(num_vars, trunc_degree, ints=None, factors=None, pending=None):
        # trusted input, ints, factors or pending given: canonical keys,
        # nonzero numerator vectors in ints
        s = GradedSeries.__new__(GradedSeries)
        s.num_vars = num_vars
        s.trunc_degree = trunc_degree
        s._coeffs = None
        s._ints = ints
        s._pending = pending
        s.factors = factors
        return s

    def _int_form(self):
        """(n, {exponents: nonzero numerator vector}, den).

        Built on the first call: a pending (flatten, form) pair is
        flattened and dropped, and an outer product with none is expanded.
        """
        if self._ints is None:
            if self._pending is None:
                self._ints = _expand(self.num_vars, self.trunc_degree, self.factors)
            else:
                flatten, form = self._pending
                self._ints, self._pending = flatten(form), None
        return self._ints

    @property
    def coeffs(self) -> dict:
        """Exponent tuple -> nonzero coefficient, built from the integer form."""
        if self._coeffs is None:
            n, acc, den = self._int_form()
            self._coeffs = {key: _make(n, vec, den) for key, vec in acc.items()}
        return self._coeffs

    @staticmethod
    def zero(num_vars, trunc_degree) -> "GradedSeries":
        return GradedSeries(num_vars, trunc_degree)

    @staticmethod
    def constant(num_vars, trunc_degree, value) -> "GradedSeries":
        return GradedSeries(num_vars, trunc_degree, {(0,) * num_vars: value})

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
        n, acc, den = self._int_form()
        vec = acc.get(tuple(exps))
        return Cyclotomic.zero() if vec is None else _make(n, vec, den)

    @property
    def constant_term(self) -> Cyclotomic:
        return self.coefficient((0,) * self.num_vars)

    def is_zero(self) -> bool:
        return not self._int_form()[1]

    def __add__(self, other):
        if not isinstance(other, GradedSeries):
            other = GradedSeries.constant(self.num_vars, self.trunc_degree, other)
        self._shape_check(other)
        (na, va, da), (nb, vb, db) = self._int_form(), other._int_form()
        n, den = lcm(na, nb), lcm(da, db)
        acc = {}
        for m, terms, d in ((na, va, da), (nb, vb, db)):
            k = den // d
            for key, vec in terms.items():
                vec = [k * x for x in _lift_num(m, n, vec)]
                cur = acc.get(key)
                acc[key] = vec if cur is None else [s + t for s, t in zip(cur, vec)]
        acc = {key: vec for key, vec in acc.items() if any(vec)}
        return GradedSeries._raw(self.num_vars, self.trunc_degree, ints=(n, acc, den))

    __radd__ = __add__

    def __neg__(self):
        n, acc, den = self._int_form()
        neg = {key: [-x for x in vec] for key, vec in acc.items()}
        return GradedSeries._raw(self.num_vars, self.trunc_degree, ints=(n, neg, den))

    def __sub__(self, other):
        if not isinstance(other, GradedSeries):
            other = GradedSeries.constant(self.num_vars, self.trunc_degree, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value) -> "GradedSeries":
        return self * GradedSeries.constant(self.num_vars, self.trunc_degree, value)

    def __mul__(self, other):
        if not isinstance(other, GradedSeries):
            return self.scale(other)
        self._shape_check(other)
        d = self.trunc_degree
        (na, ta, da), (nb, tb, db) = self._int_form(), other._int_form()
        for terms, den, series in ((ta, da, other), (tb, db, self)):
            if len(terms) == 1:
                ((e1, v1),) = terms.items()
                # 1 is the vector (den, 0, ..., 0)
                if v1[0] == den and not any(v1[1:]):
                    return _shift(series, e1)
        n = lcm(na, nb)
        lhs = [(sum(e), e, _lift_num(na, n, v)) for e, v in ta.items()]
        rhs = sorted(
            ((sum(e), e, _lift_num(nb, n, v)) for e, v in tb.items()),
            key=lambda t: t[0],
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
        acc = {key: vec for key, vec in acc.items() if any(vec)}
        return GradedSeries._raw(self.num_vars, d, ints=(n, acc, da * db))

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
            and _int_agree(self, other)
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


def _shift(s: GradedSeries, exps) -> GradedSeries:
    """s times the monomial x^exps, truncated.

    An outer product not yet expanded is shifted by its columns: x_j^e_j
    times col_j is col_j behind e_j zeros, and a variable with no column
    takes the column x_j^e_j, so `_expand` builds no monomial past the
    truncation.  Any other series shifts the keys of its integer form.
    """
    if not any(exps):
        return s
    if s._ints is None and s.factors is not None:
        zero = Cyclotomic.zero()
        cols = [(j, (zero,) * exps[j] + col) for j, col in s.factors]
        have = {j for j, _ in s.factors}
        cols += [
            (j, (zero,) * e + (Cyclotomic.one(),))
            for j, e in enumerate(exps)
            if e and j not in have
        ]
        return _outer_product(s.num_vars, s.trunc_degree, cols)
    budget = s.trunc_degree - sum(exps)
    n, acc, den = s._int_form()
    out = {
        tuple(a + b for a, b in zip(exps, e2)): v2
        for e2, v2 in acc.items()
        if sum(e2) <= budget
    }
    return GradedSeries._raw(s.num_vars, s.trunc_degree, ints=(n, out, den))


@lru_cache(maxsize=256)
def _univar_inverse(key: tuple) -> tuple:
    """Inverse coefficient tuple of the one-variable unit whose entries are key.

    key lists the coefficients of x^0, x^1, ... as `_num_key` triples, so
    the cache hashes integers, and a column is one entry whatever order
    its values were built at.  Cached: a Todd column recurs in every model
    that carries its eigenvalue, and invert_unit inverts it in each.
    """
    col = [_make(*k) for k in key]
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
    the coefficient of x_j^k.  Only the columns are stored: `_expand`
    builds the integer form when a coefficient or a comparison first needs
    it.
    """
    d = trunc_degree
    return GradedSeries._raw(
        num_vars, d, factors=tuple((j, tuple(col[: d + 1])) for j, col in factors)
    )


@lru_cache(maxsize=512)
def _column_split(key: tuple, n: int, pad: int) -> tuple:
    """(common denominator, direction groups) of one column inside Q(zeta_n).

    key lists the column's entries as `_num_key` triples.  Each nonzero
    entry's numerator vector over the column's common denominator is split
    as g*w: g the gcd of the vector, signed like its first nonzero entry,
    and w a primitive direction, so a rational entry is the direction
    (1, 0, ...).  The groups are (w, ((step, k, g), ...)), step the
    exponent k followed by pad zeros for the variables up to the next
    column.  Cached: a round of Todd columns is made of a few distinct
    entry tuples, and only the steps depend on the pad.
    """
    vecs, cden = _over_common_den(key, n)
    dirs = {}
    for k, v in enumerate(vecs):
        if any(v):
            g = gcd(*v)
            if next(filter(None, v)) < 0:
                g = -g
            step = (k,) + (0,) * pad
            dirs.setdefault(tuple(x // g for x in v), []).append((step, k, g))
    return cden, tuple((w, tuple(entries)) for w, entries in dirs.items())


def _walk_prefixes(num_vars, trunc_degree, factors) -> tuple:
    """The outer product of factors as (n, level, den), not yet flattened.

    The x^a coefficient is prod_j col_j[a_j], formed over the integers in
    one Q(zeta_n), each column over its own common denominator and split
    into direction groups (`_column_split`); an inverted Todd column at
    zeta != 1 has two, 1 - zeta^{-1} at x^0 and zeta^{-1} beyond.  The
    walk goes breadth first over direction prefixes, one column per
    variable in order.  level lists each full prefix as (v_p, monomials):
    v_p the `_conv` of its parent's vector and its own direction (None for
    the empty product), and the monomials that share it as (exponents,
    integer scale, remaining degree budget).  A monomial's coefficient is
    scale*v_p/den, the product of its entries because reduction mod Phi_n
    is linear; none is zero, since its factors are nonzero residues.
    Columns whose entries all differ in direction cost one product per
    monomial prefix.
    """
    n = _common_order(*(col for _, col in factors))
    factors = sorted(factors, key=lambda f: f[0])
    # the zeros of the variables up to the next column follow each exponent
    starts = [j for j, _ in factors] + [num_vars]
    den = 1
    cols = []
    for (j, col), nxt in zip(factors, starts[1:]):
        cden, dirs = _column_split(_num_key(col), n, nxt - j - 1)
        den *= cden
        cols.append(dirs)
    level = [(None, [((0,) * starts[0], 1, trunc_degree)])]
    for dirs in cols:
        grown = []
        for vec, monos in level:
            for w, entries in dirs:
                kids = [
                    (e + step, s * g, b - k)
                    for e, s, b in monos
                    for step, k, g in entries
                    if k <= b
                ]
                if kids:
                    grown.append((w if vec is None else _conv(n, vec, w), kids))
        level = grown
    return n, level, den


def _flatten_prefixes(walk) -> tuple:
    """The integer form (n, acc, den) of a prefix walk: scale*v_p per leaf."""
    n, level, den = walk
    # with no columns the one leaf is the empty product, 1 in Q (n = 1)
    acc = {
        e: [s * x for x in vec or (1,)] for vec, monos in level for e, s, _ in monos
    }
    return n, acc, den


def _expand(num_vars, trunc_degree, factors) -> tuple:
    """The integer form (n, acc, den) of the outer product of factors.

    The prefix walk (`_walk_prefixes`), flattened at once.
    """
    return _flatten_prefixes(_walk_prefixes(num_vars, trunc_degree, factors))


def invert_unit(s: GradedSeries) -> GradedSeries:
    """Multiplicative inverse within truncation; needs a nonzero constant.

    A series built as an outer product (todd_delocalized builds one) is
    inverted column by column, through its recorded `factors`, and rebuilt
    by the same outer product; its constants, the factors of the constant
    term, are checked, so an unexpanded outer product stays unexpanded.
    Any other unit, written s = c(1 - t) with t of zero constant term, has
    the inverse c^{-1}(1 + t + ... + t^D), summed by Horner's rule in D
    series products.
    """
    d = s.trunc_degree
    if s.factors is not None:
        if any(col[0].is_zero() for _, col in s.factors):
            raise ValueError("not a unit: zero constant term")
        return _outer_product(
            s.num_vars, d, [(j, _univar_inverse(_num_key(col))) for j, col in s.factors]
        )
    c = s.constant_term
    if c.is_zero():
        raise ValueError("not a unit: zero constant term")
    cinv = c.inverse()
    one = GradedSeries.one(s.num_vars, d)
    t = one - s.scale(cinv)
    out = one
    for _ in range(d):
        out = one + t * out
    return out.scale(cinv)


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
        if not isinstance(trunc_degree, int) or trunc_degree < 0:
            raise ValueError("truncation degree must be nonnegative")
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
def _todd_line(order: int, num: tuple, den: int, trunc_degree: int):
    """Univariate coefficients of x/(1-e^{-x}) (zeta = 1) or 1/(1-zeta^{-1}e^{-x}).

    zeta is the Cyclotomic num/den of order `order`.  Cached per eigenvalue
    on those integers, so the key hashes no Cyclotomic: the one-variable
    inversion is shared by every model that carries a line with this
    rotation number.
    """
    zeta = _make(order, num, den)
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
    return _univar_inverse(_num_key(base))


def todd_delocalized(model: NormalModel) -> GradedSeries:
    """Product over lines: x/(1-e^{-x}) at zeta = 1, else 1/(1-zeta^{-1}e^{-x}).

    Built as one outer product of the per-line Todd columns, which the
    returned series records as its `factors` for invert_unit.
    """
    d = model.trunc_degree
    return _outer_product(
        model.num_vars,
        d,
        [(j, _todd_line(zeta.order, zeta.num, zeta.den, d)) for zeta, j in model.lines],
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
    """({exponents: (support mask, W(a) * D!)}, monomials per mask).

    The monomials a are those of total degree <= D in the variables
    line_vars[i]; bit i of the support mask is set when a_{line_vars[i]} > 0.
    W(a) = prod_j (-1)^{a_j}/a_j!, and prod_j a_j! divides D! because
    sum_j a_j <= D, so W(a) * D! is an integer.  The second entry counts
    the monomials of each support mask.  One table serves every model
    whose lines sit on the same variables, so the dict is read-only.
    """
    full = factorial(trunc_degree)
    rows = {}
    counts = [0] * (1 << len(line_vars))
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
        rows[tuple(exps)] = (mask, w // wden)
        counts[mask] += 1
    return MappingProxyType(rows), tuple(counts)


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
    of F come from one superset-sum pass (`_support_sums`).  No series
    multiplication is involved.  All terms share the denominator
    lcm(zeta-product denominators) * D!, so the sums are integer adds.

    The series holds these parts, (order, F, table, den), with a zero
    F(T) as None and the table of `_koszul_table`; each monomial scales
    its support's vector when the series is first flattened
    (`_flatten_koszul`), and zero_section_identity compares the parts
    without flattening them.
    """
    r, d = model.num_vars, model.trunc_degree
    order = _common_order(zeta for zeta, _ in model.lines)
    # zfacs[mask] is the product of zeta^{-1} over the lines in mask
    zfacs = [Cyclotomic.one()]
    for zeta, _ in model.lines:
        zinv = zeta.inverse()
        zfacs += [z * zinv for z in zfacs]
    zvecs, zden = _over_common_den(_num_key(zfacs), order)
    f = [v if any(v) else None for v in _support_sums(zvecs)]
    table = _koszul_table(tuple(j for _, j in model.lines), r, d)
    parts = (order, f, table, zden * factorial(d))
    return GradedSeries._raw(r, d, pending=(_flatten_koszul, parts))


def _flatten_koszul(parts) -> tuple:
    """The integer form (n, acc, den) of koszul_ch's parts: W(a)*F(T) per live a."""
    order, f, (rows, _), den = parts
    acc = {
        exps: [w * x for x in f[mask]]
        for exps, (mask, w) in rows.items()
        if f[mask] is not None
    }
    return order, acc, den


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


def _int_agree(a: GradedSeries, b: GradedSeries) -> bool:
    """Whether a and b are equal, decided on their integer forms.

    Residues mod Phi_m are canonical, so x/da equals y/db exactly when
    x*db == y*da once both numerators are lifted into Q(zeta_m),
    m = lcm(n_a, n_b); the forms hold only nonzero vectors, so the key
    sets must agree first.
    """
    (na, va, da), (nb, vb, db) = a._int_form(), b._int_form()
    if va.keys() != vb.keys():
        return False
    m = lcm(na, nb)
    xs, ys = va.values(), [vb[key] for key in va]
    if na != m:
        xs = [_lift_num(na, m, x) for x in xs]
    if nb != m:
        ys = [_lift_num(nb, m, y) for y in ys]
    return [p * db for x in xs for p in x] == [q * da for y in ys for q in y]


def first_difference(a: GradedSeries, b: GradedSeries):
    """Graded-lex smallest exponent tuple where two series differ, or None.

    The integer forms are compared on the integers (`_int_agree`); the
    Cyclotomic coefficients are built and walked only when they differ.
    """
    if _int_agree(a, b):
        return None
    keys = set(a.coeffs) | set(b.coeffs)
    for exps in sorted(keys, key=_grlex_key):
        if a.coefficient(exps) != b.coefficient(exps):
            return exps
    return None


def _factored_agree(koszul_parts, walk) -> bool:
    """Whether koszul_ch's parts and a prefix walk are the same series.

    Exact, without flattening either side.  Both are lifted into Q(zeta_m),
    m the lcm of their orders.  A Todd leaf (e, s_e) under the prefix
    vector v_p has the value s_e*v_p/den_T, and the Koszul monomial e the
    value W_e*F_T/den_K, T its support.  For each (prefix, support) pair
    that a leaf meets, v_p and F_T are checked proportional once:
    v_p[i]*F_T[i0] == F_T[i]*v_p[i0] for all i, i0 the first nonzero index
    of v_p.  Then v_p = lambda*F_T, so the vector equation
    s_e*v_p*den_K == W_e*F_T*den_T holds exactly when its entry i0 does,
    one integer equation per leaf.  Leaves have distinct exponents, so
    the monomial sets agree when every leaf is a live Koszul monomial and
    the two counts are equal.
    """
    korder, fs, (rows, counts), kden = koszul_parts
    n, level, tden = walk
    m = lcm(korder, n)
    if korder != m:
        fs = [None if f is None else _lift_num(korder, m, f) for f in fs]
    leaves = 0
    for vec, monos in level:
        # with no columns the prefix is the empty product, 1 in Q (n = 1)
        v = _lift_num(n, m, vec or (1,))
        i0 = next(i for i, x in enumerate(v) if x)
        v0 = v[i0]
        a = v0 * kden
        # support mask -> F_T[i0] * den_T, once v_p and F_T are proportional
        met = {}
        for e, scale, _ in monos:
            row = rows.get(e)
            if row is None:
                return False
            mask, w = row
            b = met.get(mask)
            if b is None:
                f = fs[mask]
                if f is None:
                    return False
                f0 = f[i0]
                if any(x * f0 != y * v0 for x, y in zip(v, f)):
                    return False
                b = met[mask] = f0 * tden
            if scale * a != w * b:
                return False
        leaves += len(monos)
    return leaves == sum(c for c, f in zip(counts, fs) if f is not None)


def zero_section_identity(model: NormalModel) -> ZeroSectionReport:
    """koszul_ch(model) = (prod of zeta=1 variables) * invert_unit(todd).

    Decided on the factored forms (`_factored_agree`); both sides are
    flattened only when read, or on a mismatch, for first_difference.
    """
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
    walk = _walk_prefixes(rhs.num_vars, rhs.trunc_degree, rhs.factors)
    rhs._pending = (_flatten_prefixes, walk)
    if _factored_agree(lhs._pending[1], walk):
        return ZeroSectionReport(True, lhs, rhs)
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
