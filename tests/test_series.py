import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from orbichern import exactnum, series
from orbichern.exactnum import Cyclotomic, _lift_num, _make, euler_phi
from orbichern.groups import FiniteGroup
from orbichern.reps import Representation, direct_sum, lambda_minus_one
from orbichern.series import (
    GradedSeries,
    NormalModel,
    exp_nilpotent,
    first_difference,
    invert_unit,
    koszul_ch,
    todd_delocalized,
    zero_section_identity,
)
from orbichern.series import (
    _num_key,
    _outer_product,
    _todd_line,
    _univar_inverse,
)

E = Cyclotomic.root_of_unity
F = Fraction


def s(num_vars, trunc, coeffs):
    return GradedSeries(num_vars, trunc, coeffs)


def test_mul_truncates():
    one_plus = s(1, 2, {(0,): 1, (1,): 1})
    one_minus = s(1, 2, {(0,): 1, (1,): -1})
    assert one_plus * one_minus == s(1, 2, {(0,): 1, (2,): -1})
    x = GradedSeries.variable(1, 3, 0)
    assert (x**3) * x == GradedSeries.zero(1, 3)


def test_mul_identity_and_shape_errors():
    a = s(2, 4, {(1, 2): E(3, 1)})
    assert GradedSeries.one(2, 4) * a == a
    with pytest.raises(ValueError, match="incompatible"):
        a * GradedSeries.one(2, 5)
    with pytest.raises(ValueError, match="incompatible"):
        a * GradedSeries.one(3, 4)


def test_invert_geometric():
    geo = invert_unit(s(1, 3, {(0,): 1, (1,): -1}))
    assert geo == s(1, 3, {(0,): 1, (1,): 1, (2,): 1, (3,): 1})


def test_invert_constant_and_roundtrip():
    two = GradedSeries.constant(1, 2, 2)
    assert invert_unit(two) == GradedSeries.constant(1, 2, F(1, 2))
    rng = random.Random(88)
    for _ in range(10):
        coeffs = {}
        for exps in itertools.product(range(4), repeat=2):
            if 0 < sum(exps) <= 3 and rng.random() < 0.5:
                coeffs[exps] = F(rng.randint(-3, 3), rng.randint(1, 4))
        coeffs[(0, 0)] = F(rng.choice([1, -1, 2, 3]))
        u = s(2, 3, coeffs)
        assert u * invert_unit(u) == GradedSeries.one(2, 3)


def test_invert_one_plus_exp_minus_x():
    base = s(1, 2, {(0,): 2, (1,): -1, (2,): F(1, 2)})
    assert invert_unit(base) == s(1, 2, {(0,): F(1, 2), (1,): F(1, 4)})


def test_invert_rejects_non_unit():
    with pytest.raises(ValueError, match="unit"):
        invert_unit(GradedSeries.variable(1, 2, 0))


def test_exp_nilpotent():
    x = GradedSeries.variable(1, 3, 0)
    assert exp_nilpotent(GradedSeries.zero(1, 3)) == GradedSeries.one(1, 3)
    assert exp_nilpotent(x) == s(1, 3, {(0,): 1, (1,): 1, (2,): F(1, 2), (3,): F(1, 6)})
    assert exp_nilpotent(x) * exp_nilpotent(-x) == GradedSeries.one(1, 3)
    with pytest.raises(ValueError, match="nilpotent"):
        exp_nilpotent(GradedSeries.one(1, 3))


def test_todd_unit_eigenvalue_line():
    model = NormalModel([(1, 0)], 2)
    assert todd_delocalized(model) == s(
        1, 2, {(0,): 1, (1,): F(1, 2), (2,): F(1, 12)}
    )


def test_todd_minus_one_line():
    model = NormalModel([(-1, 0)], 1)
    assert todd_delocalized(model) == s(1, 1, {(0,): F(1, 2), (1,): F(1, 4)})


def test_normal_model_rejects_bad_truncation_degree():
    for d in (-1, 2.0, F(2), "2"):
        with pytest.raises(ValueError, match="^truncation degree must be nonnegative$"):
            NormalModel([(E(4), 0)], d)
        with pytest.raises(ValueError, match="^truncation degree must be nonnegative$"):
            GradedSeries(1, d, {(0,): 1, (1,): 1})
    assert NormalModel([(E(4), 0)], 0).trunc_degree == 0
    assert GradedSeries(1, 0, {(0,): 1}).trunc_degree == 0


def test_todd_empty_model():
    assert todd_delocalized(NormalModel([], 3, num_vars=0)) == GradedSeries.one(0, 3)


def test_todd_multiplicative_over_concatenation():
    za, zb = E(4, 1), E(3, 2)
    both = todd_delocalized(NormalModel([(za, 0), (zb, 1)], 4))
    a = todd_delocalized(NormalModel([(za, 0)], 4, num_vars=2))
    b = todd_delocalized(NormalModel([(zb, 1)], 4, num_vars=2))
    assert both == a * b


def _mu12_models(seed, count):
    """Seeded eigen-line models over mu_12: 1 to 4 lines, D from 1 to 6."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 4)
        lines = [(E(12, rng.randrange(12)), j) for j in range(k)]
        yield NormalModel(lines, rng.randint(1, 6), num_vars=k)


def _axis(num_vars, trunc, j, col):
    return s(
        num_vars,
        trunc,
        {
            tuple(k if i == j else 0 for i in range(num_vars)): c
            for k, c in enumerate(col)
        },
    )


def _koszul_factor(num_vars, trunc, zeta, j):
    """1 - zeta^{-1} e^{-x_j} as a one-variable column."""
    zinv = zeta.inverse()
    col = [Cyclotomic.one() - zinv] + [
        zinv * F((-1) ** (k + 1), factorial(k)) for k in range(1, trunc + 1)
    ]
    return _axis(num_vars, trunc, j, col)


def _oracle_models():
    """Mixed orders, sparse and permuted variables, D = 0..6, empty models."""
    shapes = [
        # mu_5 with mu_8: the common field is Q(zeta_40)
        ([(E(5, 1), 0), (E(8, 3), 1)], 2),
        ([(E(5, 2), 0), (1, 1), (E(8, 5), 2)], 3),
        ([(E(9, 2), 0), (E(9, 7), 1), (E(9, 3), 2)], 3),
        # E(15, 0) is 1 stored at order 15: a zeta = 1 line
        ([(E(15, 4), 0), (E(15, 11), 1), (E(15, 0), 2)], 3),
        ([(-1, 0), (E(3, 1), 1), (E(3, 2), 2)], 3),
        # Q(zeta_77) has degree 60, against 16 for Q(zeta_40)
        ([(E(7, 1), 0), (E(11, 3), 1)], 2),
        # rational columns there: a zeta = 1 line stored at order 77, and a
        # -1 line
        ([(E(7, 2), 0), (E(77, 0), 1), (E(11, 5), 2)], 3),
        ([(-1, 0), (E(11, 1), 1), (E(7, 3), 2)], 3),
        # more variables than lines, and lines on permuted variables
        ([(E(12, 5), 1)], 3),
        ([(E(12, 1), 2), (E(12, 7), 0), (E(5, 3), 3)], 4),
        ([(E(12, 11), 2), (1, 0), (-1, 3)], 5),
        ([], 0),
        ([], 2),
    ]
    for lines, num_vars in shapes:
        for d in range(7):
            yield NormalModel(lines, d, num_vars=num_vars)


def test_todd_outer_product_matches_product_chain():
    edge = NormalModel([(1, 0), (1, 1), (-1, 2), (E(12, 5), 3)], 6)
    for model in itertools.chain(_mu12_models(0x70DD, 30), [edge], _oracle_models()):
        r, d = model.num_vars, model.trunc_degree
        chain = GradedSeries.one(r, d)
        inv_chain = GradedSeries.one(r, d)
        for zeta, j in model.lines:
            col = _todd_line(zeta.order, zeta.num, zeta.den, d)
            chain = chain * _axis(r, d, j, col)
            inv_chain = inv_chain * _axis(r, d, j, _univar_inverse(_num_key(col)))
        todd = todd_delocalized(model)
        inv = invert_unit(todd)
        # inverting reads only the recorded columns; coeffs expands on first read
        assert inv._coeffs is None and todd._coeffs is None
        assert todd == chain, model
        assert todd.coeffs is todd.coeffs
        assert inv == inv_chain, model
        assert chain * inv == GradedSeries.one(r, d), model


def test_shifted_outer_product_stays_an_outer_product():
    rng = random.Random(0x5417)
    lineless = 0
    for model in itertools.chain(_oracle_models(), _mu12_models(0x5417, 30)):
        r, d = model.num_vars, model.trunc_degree
        euler = [0] * r
        for zeta, j in model.lines:
            if zeta == 1:
                euler[j] = 1
        seeded = [rng.randint(0, 2) for _ in range(r)]
        free = sorted(set(range(r)) - {j for _, j in model.lines})
        if free:
            # a variable with no line takes the column x_j^e_j
            seeded[free[0]] = max(seeded[free[0]], 1)
            lineless += 1
        plain = GradedSeries(r, d, invert_unit(todd_delocalized(model)).coeffs)
        for exps in (euler, seeded):
            if not any(exps):
                continue
            shifted = series._shift(invert_unit(todd_delocalized(model)), exps)
            assert shifted.factors is not None and shifted._ints is None, model
            assert shifted == series._shift(plain, exps), (model, exps)
            with pytest.raises(ValueError, match="^not a unit: zero constant term$"):
                invert_unit(shifted)
    assert lineless >= 20


def _direction_columns(rng, n, num_vars, d):
    """Columns on a random, permuted subset of the variables whose entries
    are rational multiples (negative and zero ones too) of 1 and of two
    random values of Q(zeta_n); about one column in ten is empty."""
    root = Cyclotomic.root_of_unity
    dirs = [Cyclotomic.one()]
    while len(dirs) < 3:
        w = sum((root(n, rng.randrange(n)) * rng.randint(-2, 2) for _ in range(3)), root(n, 1))
        if not w.is_zero():
            dirs.append(w)
    cols = []
    for j in rng.sample(range(num_vars), rng.randint(num_vars // 2, num_vars)):
        col = [Cyclotomic.zero()] * (d + 1)
        if rng.random() > 1 / 10:
            for k in range(d + 1):
                q = F(rng.randint(-4, 4), rng.randint(1, 3))
                if q:
                    w = rng.choice(dirs)
                    col[k] = Cyclotomic.from_rational(q) if w == 1 else w * q
        cols.append((j, tuple(col)))
    return cols


def test_expand_matches_product_chain():
    rng = random.Random(0xD1C)
    grouped = leaves = 0
    for n, trials, most_vars in ((1, 40, 4), (4, 40, 4), (12, 40, 4), (40, 25, 4), (77, 12, 3)):
        for _ in range(trials):
            num_vars, d = rng.randint(0, most_vars), rng.randint(0, 6)
            cols = _direction_columns(rng, n, num_vars, d)
            chain = GradedSeries.one(num_vars, d)
            for j, col in cols:
                chain = chain * _axis(num_vars, d, j, col)
            assert series._expand(num_vars, d, cols) == chain._int_form(), (n, cols)
            for _, col in cols:
                # two unequal irrational entries on one direction
                vals = [c for c in col if c.descend().order > 1]
                grouped += any(
                    a != b and (a / b).descend().order == 1
                    for a, b in itertools.combinations(vals, 2)
                )
            leaves += len(chain._int_form()[1])
    assert grouped >= 50 and leaves >= 700, (grouped, leaves)


def test_todd_side_dense_product_counts(monkeypatch):
    """Field products (`_conv` calls) of the Todd side in one identity check:
    one per direction prefix past the first column.  An inverted Todd
    column at zeta != 1 has two directions, 1 - zeta^{-1} at x^0 and
    zeta^{-1} beyond; a rational column has one.  Lines (1, 5, 7, 11) are
    all irrational, so their prefixes number 2 + 4 + 8 + 16."""
    counts = {}
    for combo, want in (
        ((0, 6, 1, 5), 7),
        ((0, 0, 3, 4), 7),
        ((3, 4, 6, 9), 16),
        ((1, 5, 7, 11), 28),
    ):
        model = NormalModel([(E(12, k), j) for j, k in enumerate(combo)], 6)
        calls = [0]
        conv = series._conv

        def counting(n, a, b):
            calls[0] += 1
            return conv(n, a, b)

        monkeypatch.setattr(series, "_conv", counting)
        assert zero_section_identity(model).passed
        monkeypatch.undo()
        counts[combo] = (calls[0], want)
    assert all(got == want for got, want in counts.values()), counts


def test_invert_recorded_factors_with_zero_constant():
    zero, one = Cyclotomic.zero(), Cyclotomic.one()
    unit = (one, one, zero)
    for cols in ([(0, (zero, one, zero))], [(0, unit), (1, (zero, zero, one))]):
        s2 = _outer_product(2, 2, cols)
        with pytest.raises(ValueError, match="^not a unit: zero constant term$"):
            invert_unit(s2)
        assert s2._coeffs is None
        assert s2.constant_term.is_zero()


def test_invert_unit_recorded_factors_match_geometric_sum():
    for model in _mu12_models(0x1A7E, 30):
        r, d = model.num_vars, model.trunc_degree
        todd = todd_delocalized(model)
        plain = s(r, d, todd.coeffs)
        assert todd.factors is not None and plain.factors is None
        inv = invert_unit(todd)
        assert inv == invert_unit(plain), model
        assert todd * inv == GradedSeries.one(r, d)
        assert invert_unit(inv) == todd


def test_invert_non_split_unit_uses_recurrence():
    u = s(2, 4, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2})
    assert u * invert_unit(u) == GradedSeries.one(2, 4)
    assert u.scale(3) * invert_unit(u.scale(3)) == GradedSeries.one(2, 4)


def test_invert_non_split_unit_with_irrational_constant():
    rng = random.Random(0x1E8)
    for n, r in ((8, 2), (12, 2), (8, 3), (12, 3)):
        one = GradedSeries.one(r, 4)
        for _ in range(4):
            coeffs = {(0,) * r: 2 + E(n)}
            for exps in itertools.product(range(5), repeat=r):
                if 0 < sum(exps) <= 4 and rng.random() < 0.4:
                    coeffs[exps] = E(n, rng.randrange(n)) * F(rng.randint(-3, 3), 2)
            # a mixed monomial the slices along the axes cannot carry
            coeffs[(1, 1) + (0,) * (r - 2)] = E(n, rng.randrange(n)) + 1
            u = s(r, 4, coeffs)
            inv = invert_unit(u)
            assert u * inv == one and inv * u == one, u
    y = GradedSeries.variable(2, 4, 0).scale(E(3)) + GradedSeries.variable(2, 4, 1)
    assert exp_nilpotent(y) * exp_nilpotent(-y) == GradedSeries.one(2, 4)


_ORDERS = (1, 3, 4, 5, 8, 12)


def _random_value(rng):
    """A rational part over one of several denominators plus 0 to 2 roots of
    unity of an order from _ORDERS; 1 may come stored as E(n, 0)."""
    val = Cyclotomic.from_rational(F(rng.randint(-4, 4), rng.choice((1, 2, 3, 4, 6, 9))))
    for _ in range(rng.randrange(3)):
        n = rng.choice(_ORDERS)
        val = val + E(n, rng.randrange(n)) * F(rng.randint(-3, 3), rng.choice((1, 2, 5)))
    return val


def _random_coeffs(rng, num_vars, trunc):
    return {
        exps: _random_value(rng)
        for exps in itertools.product(range(trunc + 1), repeat=num_vars)
        if sum(exps) <= trunc and rng.random() < 0.6
    }


def _assert_coefficientwise(got, want):
    """got holds exactly the nonzero values of want, monomial by monomial."""
    want = {e: v for e, v in want.items() if not v.is_zero()}
    assert set(got.coeffs) == set(want), (got, want)
    for e, v in want.items():
        assert got.coefficient(e) == v and got.coeffs[e] == v, (e, got, want)


def test_ring_operations_match_cyclotomic_arithmetic():
    rng = random.Random(0x5E12)
    zero = Cyclotomic.zero()
    for _ in range(12):
        r, d = rng.randint(1, 3), rng.randint(0, 3)
        ca, cb = _random_coeffs(rng, r, d), _random_coeffs(rng, r, d)
        # cancellations: some monomials of b are minus those of a, once at
        # another order than the one a holds them at
        for e in rng.sample(sorted(ca), len(ca) // 2):
            cb[e] = -ca[e].lift(ca[e].order * rng.choice((1, 3, 4)))
        a, b = s(r, d, ca), s(r, d, cb)
        keys = set(ca) | set(cb)
        _assert_coefficientwise(
            a + b, {e: ca.get(e, zero) + cb.get(e, zero) for e in keys}
        )
        _assert_coefficientwise(
            a - b, {e: ca.get(e, zero) - cb.get(e, zero) for e in keys}
        )
        _assert_coefficientwise(-a, {e: -v for e, v in ca.items()})
        for v in (3, F(-5, 6), E(5, 2) - F(1, 3), Cyclotomic.zero()):
            _assert_coefficientwise(a.scale(v), {e: w * v for e, w in ca.items()})
        prod = {}
        for (e1, v1), (e2, v2) in itertools.product(ca.items(), cb.items()):
            if sum(e1) + sum(e2) <= d:
                key = tuple(x + y for x, y in zip(e1, e2))
                prod[key] = prod.get(key, zero) + v1 * v2
        _assert_coefficientwise(a * b, prod)
        assert (a + (-a)).is_zero() and (a - a).coeffs == {}
        assert a - a == GradedSeries.zero(r, d) == (-a) + a


def test_ring_operations_build_no_coefficient(monkeypatch):
    rng = random.Random(0xA11)
    a, b = s(2, 3, _random_coeffs(rng, 2, 3)), s(2, 3, _random_coeffs(rng, 2, 3))
    assert len(a.coeffs) >= 3 and len(b.coeffs) >= 3
    root = E(8, 3)
    calls = []

    def counting(*args):
        calls.append(args)
        return _make(*args)

    monkeypatch.setattr(exactnum, "_make", counting)
    monkeypatch.setattr(series, "_make", counting)
    results = [a + b, a - b, -a, a * b]
    assert calls == []
    # scale coerces an int or Fraction scalar, and makes nothing else
    results += [a.scale(3), a.scale(F(2, 7)), a.scale(root)]
    assert len(calls) <= 2
    monkeypatch.undo()
    assert results[0] - b == a and results[3] == b * a


def test_koszul_single_line_is_definition():
    zeta = E(3, 1)
    got = koszul_ch(NormalModel([(zeta, 0)], 3))
    zinv = zeta.inverse()
    want = s(
        1,
        3,
        {
            (0,): 1 - zinv,
            (1,): zinv,
            (2,): -zinv * F(1, 2),
            (3,): zinv * F(1, 6),
        },
    )
    assert got == want
    # a series not yet flattened, and with no columns, shifts its flat form
    shifted = series._shift(koszul_ch(NormalModel([(zeta, 0)], 3)), (1,))
    assert shifted == series._shift(want, (1,))


def test_koszul_empty_model_is_one():
    assert koszul_ch(NormalModel([], 2, num_vars=0)) == GradedSeries.one(0, 2)


def test_koszul_agrees_with_factor_product():
    rng = random.Random(1212)
    mu12 = []
    for _ in range(12):
        n = rng.randint(1, 4)
        mu12.append(NormalModel([(E(12, rng.randrange(12)), j) for j in range(n)], 6))
    for model in itertools.chain(mu12, _oracle_models()):
        r, d = model.num_vars, model.trunc_degree
        prod = GradedSeries.one(r, d)
        for zeta, j in model.lines:
            prod = prod * _koszul_factor(r, d, zeta, j)
        assert koszul_ch(model) == prod, model


@pytest.fixture
def fresh_caches():
    """Empty the column and table caches, so no cached value hides a mutant."""
    caches = (
        series._todd_line,
        series._univar_inverse,
        series._koszul_table,
        series._column_split,
    )
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


_REAL_SUPPORT_SUMS = series._support_sums
_REAL_TODD_LINE = series._todd_line


def _drop_koszul_sign(zvecs):
    """Mutant: the support sum without its sign (-1)^{|S|}."""
    # negating the odd subsets first cancels the sign of the real pass
    flipped = [
        [-x for x in v] if bin(m).count("1") % 2 else v for m, v in enumerate(zvecs)
    ]
    return _REAL_SUPPORT_SUMS(flipped)


def _todd_line_zeta_for_inverse(order, num, den, trunc_degree):
    """Mutant: _todd_line built with zeta where it takes zeta^{-1}."""
    zinv = _make(order, num, den).inverse()
    return _REAL_TODD_LINE(zinv.order, zinv.num, zinv.den, trunc_degree)


def _has_nonreal_line(model):
    return any(zeta != zeta.inverse() for zeta, _ in model.lines)


@pytest.mark.parametrize(
    "name, mutant, exposed",
    [
        # a dropped sign changes the Koszul side of every model
        ("_support_sums", _drop_koszul_sign, lambda model: True),
        # zeta for zeta^{-1} changes nothing when every eigenvalue is real
        ("_todd_line", _todd_line_zeta_for_inverse, _has_nonreal_line),
    ],
    ids=["koszul_sign_dropped", "todd_zeta_for_inverse"],
)
def test_code_mutant_fails_zero_section_identity(
    fresh_caches, monkeypatch, name, mutant, exposed
):
    mixed = [
        NormalModel([(E(5, 1), 0), (E(8, 3), 1)], 4),
        NormalModel([(E(9, 2), 0), (1, 1)], 3),
        NormalModel([(E(12, 7), 2), (E(3, 1), 0)], 5, num_vars=3),
    ]
    models = [m for m in _mu12_models(0x3A7, 12) if exposed(m)] + mixed
    assert len(models) >= 12
    assert all(zero_section_identity(m).passed for m in models)
    monkeypatch.setattr(series, name, mutant)
    for model in models:
        report = zero_section_identity(model)
        assert not report.passed, "mutant of %s survived %r" % (name, model)
        w = report.first_mismatch
        assert report.lhs.coefficient(w) != report.rhs.coefficient(w), model


def test_zero_section_identity_names_both_degrees():
    model = NormalModel([(1, 0), (E(4, 1), 1), (1, 2)], 1)
    with pytest.raises(
        ValueError,
        match="^truncation degree 1 is below 2, the degree of the Euler monomial$",
    ):
        zero_section_identity(model)


def test_koszul_degree_zero_matches_lambda_minus_one():
    g = FiniteGroup.cyclic(6)
    weights = (1, 2, 3)
    rep = direct_sum(
        direct_sum(
            Representation.cyclic_weight(g, 1), Representation.cyclic_weight(g, 2)
        ),
        Representation.cyclic_weight(g, 3),
    )
    lam = lambda_minus_one(rep)
    cd = g.conjugacy()
    for c, x in enumerate(cd.reps):
        if x == g.identity:
            continue
        lines = [(E(6, (w * x) % 6), i) for i, w in enumerate(weights)]
        model = NormalModel(lines, 2)
        assert koszul_ch(model).constant_term == lam.values[c]


def test_zero_section_identity_unit_line():
    report = zero_section_identity(NormalModel([(1, 0)], 6))
    assert report.passed
    # Koszul side of a zeta=1 line is 1 - e^{-x}
    assert report.lhs.coefficient((1,)) == Cyclotomic.one()
    assert report.lhs.constant_term.is_zero()


def test_zero_section_identity_empty_and_mixed():
    assert zero_section_identity(NormalModel([], 4, num_vars=0)).passed
    mixed = NormalModel([(1, 0), (E(3, 1), 1), (-1, 2)], 6)
    report = zero_section_identity(mixed)
    assert report.passed
    assert report.first_mismatch is None
    for model in _oracle_models():
        if sum(1 for zeta, _ in model.lines if zeta == 1) <= model.trunc_degree:
            assert zero_section_identity(model).passed, model


def test_zero_section_identity_all_twelfth_roots():
    for j in range(12):
        for k in range(12):
            model = NormalModel([(E(12, j), 0), (E(12, k), 1)], 5)
            assert zero_section_identity(model).passed, (j, k)


def _walk(a, b):
    """first_difference on Cyclotomic dicts alone, as before integer forms."""
    if a.coeffs == b.coeffs:
        return None
    for exps in sorted(set(a.coeffs) | set(b.coeffs), key=lambda e: (sum(e), e)):
        if a.coefficient(exps) != b.coefficient(exps):
            return exps
    return None


def _with_ints(like, n, acc, den):
    return GradedSeries._raw(like.num_vars, like.trunc_degree, ints=(n, acc, den))


def _comparison_pairs(seed):
    """(tag, a, b): integer-form pairs, equal and not, with coeffs built.

    Tags: "sides" is the two sides of an identity; "scaled" the same values
    over a multiple of the denominator; "lifted" the same values in a larger
    field, of larger degree; "den" the same numerators over twice the
    denominator; "bumped" one numerator entry moved by one; "dropped" one
    monomial removed.
    """
    rng = random.Random(seed)
    pairs = []
    for model in _comparison_models(seed):
        report = zero_section_identity(model)
        lhs, rhs = report.lhs, report.rhs
        pairs.append(("sides", lhs, rhs))
        for side in (lhs, rhs):
            n, acc, den = side._int_form()
            k, m = rng.randint(2, 9), n * rng.choice([3, 5, 7])
            scaled = {e: [k * x for x in v] for e, v in acc.items()}
            lifted = {e: _lift_num(n, m, v) for e, v in acc.items()}
            pairs.append(("scaled", side, _with_ints(side, n, scaled, k * den)))
            pairs.append(("lifted", side, _with_ints(side, m, lifted, den)))
            pairs.append(("den", side, _with_ints(side, n, acc, 2 * den)))
            for other in (lhs, rhs):
                key = rng.choice(sorted(acc))
                vec = list(acc[key])
                vec[rng.randrange(len(vec))] += rng.choice((-1, 1))
                bumped = dict(acc)
                del bumped[key]
                if any(vec):
                    bumped[key] = vec
                pairs.append(("bumped", other, _with_ints(side, n, bumped, den)))
            dropped = dict(acc)
            del dropped[rng.choice(sorted(acc))]
            pairs.append(("dropped", side, _with_ints(side, n, dropped, den)))
    # built before any mutant is patched in, so the dicts stay the reference
    for _, a, b in pairs:
        a.coeffs, b.coeffs
    return pairs


def _comparison_models(seed):
    return [m for m in _mu12_models(seed, 10) if _euler_fits(m)] + [
        # all zeta = 1: a Koszul side of order 12 against a rational Todd side
        NormalModel([(E(12, 0), 0), (E(12, 0), 1)], 4),
        NormalModel([(E(7, 1), 0), (E(11, 3), 1)], 3),
        NormalModel([(E(5, 2), 0), (1, 1), (E(8, 5), 2)], 4),
        NormalModel([(-1, 0), (E(9, 2), 1)], 5),
    ]


def _euler_fits(model):
    return sum(1 for zeta, _ in model.lines if zeta == 1) <= model.trunc_degree


def _verdict_errors(pairs):
    """Indices of pairs whose integer verdict or witness is not the dict walk's."""
    return [
        i
        for i, (_, a, b) in enumerate(pairs)
        if series._int_agree(a, b) != (a.coeffs == b.coeffs)
        or first_difference(a, b) != _walk(a, b)
    ]


def test_integer_verdict_matches_cyclotomic_comparison():
    pairs = _comparison_pairs(0xC0DE)
    assert not _verdict_errors(pairs)
    equal = [series._int_agree(a, b) for _, a, b in pairs]
    assert equal.count(True) >= 60 and equal.count(False) >= 60
    orders = {
        (a._int_form()[0], b._int_form()[0]) for tag, a, b in pairs if tag == "sides"
    }
    assert (12, 1) in orders and (77, 77) in orders
    # a series built from coefficients is compared as the one it copies
    for _, a, b in pairs[:20]:
        plain = s(b.num_vars, b.trunc_degree, b.coeffs)
        assert series._int_agree(a, plain) == series._int_agree(a, b)
        assert first_difference(a, plain) == _walk(a, b)
        assert (a == plain) == (a == b)


_REAL_INT_AGREE = series._int_agree


def _dens_dropped(a, b):
    """Mutant: numerators compared without the other side's denominator."""
    (na, va, _), (nb, vb, _) = a._int_form(), b._int_form()
    return _REAL_INT_AGREE(_with_ints(a, na, va, 1), _with_ints(b, nb, vb, 1))


def _lift_skipped(n, m, num):
    """Mutant: a numerator of Q(zeta_n) used as it is in Q(zeta_m)."""
    return num


def _mixed_degree(a, b):
    return euler_phi(a._int_form()[0]) != euler_phi(b._int_form()[0])


@pytest.mark.parametrize(
    "name, mutant, exposed",
    [
        ("_int_agree", _dens_dropped, lambda tag, a, b: tag in ("scaled", "den")),
        (
            "_lift_num",
            _lift_skipped,
            lambda tag, a, b: tag == "lifted"
            or (tag == "sides" and _mixed_degree(a, b)),
        ),
    ],
    ids=["denominator_dropped", "lift_skipped"],
)
def test_code_mutant_fails_integer_verdict(monkeypatch, name, mutant, exposed):
    pairs = _comparison_pairs(0xC0DE)
    monkeypatch.setattr(series, name, mutant)
    errors = set(_verdict_errors(pairs))
    want = {i for i, pair in enumerate(pairs) if exposed(*pair)}
    assert len(want) >= 15
    assert want <= errors, "mutant of %s survived %d pairs" % (name, len(want - errors))


def _all_mu12_models():
    """Every multiset of at most four eigenvalues in mu_12, one line each, D = 6."""
    for k in range(1, 5):
        for combo in itertools.combinations_with_replacement(range(12), k):
            yield NormalModel([(E(12, c), j) for j, c in enumerate(combo)], 6)


def _factored_sides(model):
    """(Koszul side, Euler * Todd^-1 side, koszul_ch's parts, prefix walk)
    of a passing identity, taken before either side is flattened."""
    report = zero_section_identity(model)
    assert report.passed, model
    lhs, rhs = report.lhs, report.rhs
    return lhs, rhs, lhs._pending[1], rhs._pending[1]


def _lifted(kparts, walk, k):
    """Both factored forms with every vector lifted into a field k times larger."""
    order, fs, table, kden = kparts
    n, level, tden = walk
    fs = [f and _lift_num(order, k * order, f) for f in fs]
    level = [(_lift_num(n, k * n, vec), monos) for vec, monos in level]
    return (k * order, fs, table, kden), (k * n, level, tden)


def test_factored_verdict_matches_flat_verdict():
    orders = set()
    count = 0
    for model in _all_mu12_models():
        lhs, rhs, kparts, walk = _factored_sides(model)
        assert series._factored_agree(kparts, walk), model
        assert series._int_agree(lhs, rhs), model
        count += 1
    assert count == 1819
    for model in _comparison_models(0xC0DE):
        lhs, rhs, kparts, walk = _factored_sides(model)
        assert series._factored_agree(kparts, walk), model
        # either side in a larger field than the other, both lifted to one
        lifted_k, lifted_w = _lifted(kparts, walk, 5)
        assert series._factored_agree(lifted_k, walk), model
        assert series._factored_agree(kparts, lifted_w), model
        assert series._int_agree(lhs, rhs), model
        orders.add((lhs._int_form()[0], rhs._int_form()[0]))
    assert (12, 1) in orders and (77, 77) in orders


def _bump(vec, rng):
    """vec with one entry moved by one, kept nonzero."""
    out = list(vec)
    i, step = rng.randrange(len(out)), rng.choice((-1, 1))
    out[i] += step
    if not any(out):
        out[i] += 2 * step
    return out


def _koszul_weight(kparts, walk, rng):
    order, fs, (rows, counts), den = kparts
    live = sorted(e for e, (mask, _) in rows.items() if fs[mask] is not None)
    e = rng.choice(live)
    mask, w = rows[e]
    rows = dict(rows)
    rows[e] = (mask, w + rng.choice((-1, 1)) or 2 * w)
    return (order, fs, (rows, counts), den), walk


def _support_entry(kparts, walk, rng):
    order, fs, (rows, counts), den = kparts
    used = [T for T, f in enumerate(fs) if f is not None and counts[T]]
    fs = list(fs)
    T = rng.choice(used)
    fs[T] = _bump(fs[T], rng)
    return (order, fs, (rows, counts), den), walk


def _one_leaf(walk, rng, change):
    """walk with one random leaf replaced by change(leaf), or dropped if None."""
    n, level, den = walk
    level = list(level)
    p = rng.randrange(len(level))
    vec, monos = level[p]
    monos = list(monos)
    i = rng.randrange(len(monos))
    leaf = change(monos[i])
    if leaf is None:
        del monos[i]
    else:
        monos[i] = leaf
    level[p] = (vec, monos)
    return n, level, den


def _leaf_scale(kparts, walk, rng):
    step = rng.choice((-1, 1))

    def rescaled(leaf):
        e, scale, budget = leaf
        return e, scale + step or 2 * scale, budget

    return kparts, _one_leaf(walk, rng, rescaled)


def _prefix_entry(kparts, walk, rng):
    n, level, den = walk
    level = list(level)
    p = rng.randrange(len(level))
    vec, monos = level[p]
    level[p] = (_bump(vec, rng), monos)
    return kparts, (n, level, den)


def _moved_leaf(kparts, walk, rng):
    """One leaf's exponent moved past the truncation, where Koszul has none."""
    return kparts, _one_leaf(walk, rng, lambda leaf: ((leaf[0][0] + 7,) + leaf[0][1:],) + leaf[1:])


def _dropped_leaf(kparts, walk, rng):
    return kparts, _one_leaf(walk, rng, lambda leaf: None)


@pytest.mark.parametrize(
    "mutate",
    [_koszul_weight, _support_entry, _leaf_scale, _prefix_entry, _moved_leaf, _dropped_leaf],
    ids=[
        "koszul_weight",
        "support_entry",
        "leaf_scale",
        "prefix_entry",
        "moved_leaf",
        "dropped_leaf",
    ],
)
def test_factored_verdict_kills_seeded_mutants(mutate):
    """One wrong number in either factored form is a mismatch, and the flat
    forms of the mutant disagree too, so the two verdicts stay equal."""
    rng = random.Random(0xFAC7)
    models = [m for m in _mu12_models(0xFAC7, 240) if _euler_fits(m)][:200]
    assert len(models) == 200
    for model in models:
        lhs, rhs, kparts, walk = _factored_sides(model)
        kmut, wmut = mutate(kparts, walk, rng)
        assert not series._factored_agree(kmut, wmut), (mutate.__name__, model)
        flat_k = _with_ints(lhs, *series._flatten_koszul(kmut))
        flat_t = _with_ints(rhs, *series._flatten_prefixes(wmut))
        assert not series._int_agree(flat_k, flat_t), (mutate.__name__, model)


def test_zero_section_identity_builds_no_coefficient(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return _make(*args)

    lines = [(E(12, 1), 0), (1, 1), (E(12, 0), 2), (E(4, 3), 3)]
    counts = {}
    for d in (2, 6):
        model = NormalModel(lines, d)
        zero_section_identity(model)  # warms every cache
        monkeypatch.setattr(exactnum, "_make", counting)
        monkeypatch.setattr(series, "_make", counting)
        del calls[:]
        report = zero_section_identity(model)
        counts[d] = len(calls)
        del calls[:]
        assert report.passed
        # a passing verdict flattens neither side
        assert report.lhs._ints is None and report.rhs._ints is None
        # one value read is one _make, and flattens only the side it reads;
        # the dicts are still not built
        euler = (0, 1, 1, 0)
        lhs = report.lhs.coefficient(euler)
        assert len(calls) == 1
        assert report.lhs._ints is not None and report.lhs._pending is None
        assert report.rhs._ints is None
        rhs = report.rhs.coefficient(euler)
        assert len(calls) == 2
        assert report.rhs._ints is not None and report.rhs._pending is None
        assert lhs == rhs != 0
        assert report.lhs._coeffs is None and report.rhs._coeffs is None
        monkeypatch.undo()
        assert report.lhs.coeffs[euler] == lhs
        assert report.lhs.coeffs == report.rhs.coeffs
    assert counts[2] == counts[6] > 0


def test_product_of_integer_forms_builds_no_operand_coefficient(monkeypatch):
    model = NormalModel([(E(12, 1), 0), (E(12, 5), 1), (E(12, 7), 2)], 6)
    todd = todd_delocalized(model)
    inv = invert_unit(todd_delocalized(model))
    todd._int_form(), inv._int_form()  # the expansions are not the product's work
    calls = []

    def counting(*args):
        calls.append(args)
        return _make(*args)

    monkeypatch.setattr(exactnum, "_make", counting)
    monkeypatch.setattr(series, "_make", counting)
    product = todd * inv
    made = len(calls)
    monkeypatch.undo()
    # 84 + 84 operand monomials stay integers; the result has one monomial
    assert len(product.coeffs) == 1 and made <= len(product.coeffs)

    def plain(t):
        return GradedSeries(t.num_vars, t.trunc_degree, t.coeffs)

    assert product.coeffs == (plain(todd) * plain(inv)).coeffs == {(0, 0, 0): 1}
    # an integer form times a coefficient-built series of another order
    other = s(3, 6, {(0, 0, 0): 3, (1, 0, 0): E(8), (0, 2, 1): F(-2, 3)})
    for a, b in ((todd, other), (other, inv), (inv, todd)):
        assert (a * b).coeffs == (plain(a) * plain(b)).coeffs


def test_first_difference_graded_lex():
    a = s(2, 3, {(0, 0): 1, (1, 1): 2, (0, 2): 5})
    b = s(2, 3, {(0, 0): 1, (1, 1): 3, (3, 0): 7})
    assert first_difference(a, b) == (0, 2)
    assert first_difference(a, a) is None


def test_printer_graded_lex():
    t = todd_delocalized(NormalModel([(1, 0)], 2))
    assert str(t) == "1 + 1/2*x0 + 1/12*x0^2"
    mixed = s(2, 2, {(0, 0): -1, (1, 0): E(4, 1), (0, 2): F(-1, 3)})
    assert str(mixed) == "-1 + E(4)*x0 - 1/3*x1^2"
    assert str(GradedSeries.zero(2, 4)) == "0"
