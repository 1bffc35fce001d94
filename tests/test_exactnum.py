import cmath
import math
import random
from fractions import Fraction

import pytest

from orbichern import exactnum
from orbichern.exactnum import (
    Cyclotomic,
    _conv,
    _galois,
    _make,
    canonicalize,
    cyclotomic_polynomial,
    euler_phi,
)

import cyclotomic_oracle as oracle

E = Cyclotomic.root_of_unity


def numeric(x):
    return complex(x)


def test_rational_is_normalized_arbitrary_precision():
    q = Cyclotomic.from_rational(Fraction(2**200, 2**199))
    assert (q.order, q.num, q.den) == (1, (2,), 1)
    r = Cyclotomic.from_rational(Fraction(4, -6))
    assert (r.num, r.den) == ((-2,), 3)
    assert r == Fraction(-2, 3)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for n in range(1, 30):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_zeta6_squared_reduces():
    # zeta_6^2 = zeta_6 - 1, frozen residue; cross-checked numerically.
    v = E(6) ** 2
    assert v.order == 6
    assert v.coeffs == (Fraction(-1), Fraction(1))
    expected = cmath.exp(2j * cmath.pi * 2 / 6)
    assert abs(numeric(v) - expected) < 1e-12


def test_invert_one_minus_zeta3():
    # (1 - zeta_3)^(-1) = (2 + zeta_3)/3, frozen; verified by multiplying back.
    v = (1 - E(3)).inverse()
    assert v.coeffs == (Fraction(2, 3), Fraction(1, 3))
    assert (1 - E(3)) * v == 1


def test_conjugate_by_phi3_reduction():
    # conj(1 + 2*zeta_3) = 1 + 2*zeta_3^2 = -1 - 2*zeta_3 after Phi_3 reduction.
    v = (1 + 2 * E(3)).conjugate()
    assert v == -1 - 2 * E(3)
    assert abs(numeric(v) - numeric(1 + 2 * E(3)).conjugate()) < 1e-12


def test_mixed_order_lift():
    # zeta_2 + zeta_3 lives at order 6: zeta_6^3 + zeta_6^2 = zeta_6 - 2.
    v = E(2) + E(3)
    assert v.order == 6
    assert v.coeffs == (Fraction(-2), Fraction(1))
    assert abs(numeric(v) - (-1 + cmath.exp(2j * cmath.pi / 3))) < 1e-12


def test_no_automatic_descent_but_equality_lifts():
    two_at_4 = Cyclotomic(4, (2, 0))
    assert two_at_4.order == 4
    assert two_at_4 == Cyclotomic.from_rational(2)
    assert hash(two_at_4) == hash(Cyclotomic.from_rational(2))
    assert two_at_4.descend().order == 1


def test_descend_finds_conductor():
    # Q(zeta_6) = Q(zeta_3): zeta_6 = 1 + zeta_3.
    d = E(6).descend()
    assert d.order == 3
    assert d.coeffs == (Fraction(1), Fraction(1))
    assert E(6) == 1 + E(3)


@pytest.mark.parametrize("d,n", [(1, 30), (3, 12), (4, 12), (5, 60), (15, 60), (20, 60)])
def test_descend_recovers_the_conductor_of_a_lifted_value(d, n):
    rng = random.Random(d * 1000 + n)
    divs = [e for e in range(1, n + 1) if n % e == 0]
    for _ in range(6):
        coeffs = [
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            for _ in range(euler_phi(d))
        ]
        value = Cyclotomic(d, coeffs)
        assert oracle.Cyclotomic(d, coeffs).descend().order == d
        lifted = value.lift(n)
        assert lifted.order == n
        low = lifted.descend()
        assert low.order == d and low == value
        assert _same(low, oracle.Cyclotomic(d, coeffs).lift(n).descend())
        for e in divs:
            at = lifted._at_order(e)
            if e % d:
                assert at is None, e
            else:
                assert at.order == e and at == value, e


def test_canonicalize_folds_high_exponents():
    assert canonicalize(5, [0, 0, 0, 0, 0, 1]) == canonicalize(5, [1])
    assert canonicalize(5, [0, 0, 0, 0, 0, 0, 1]) == canonicalize(5, [0, 1])
    assert canonicalize(4, [0, 0, 1]) == (Fraction(-1), Fraction(0))


def test_division_and_zero():
    with pytest.raises(ZeroDivisionError):
        (E(3) - E(3)).inverse()
    assert (E(5) / E(5)) == 1
    assert (1 / E(4)) == E(4) ** 3


def test_pow_negative():
    assert E(12) ** -1 == E(12) ** 11
    assert (2 + E(7)) ** 0 == 1


def test_float_rejected():
    with pytest.raises(TypeError):
        Cyclotomic.from_rational(0.5)
    with pytest.raises(TypeError):
        Cyclotomic(3, (0.5, 0))


def _random_cyclotomic(rng, order):
    return Cyclotomic(
        order,
        [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(euler_phi(order))],
    )


def test_field_axioms_random():
    rng = random.Random(20260814)
    orders = [1, 2, 3, 4, 5, 6, 8, 12]
    for _ in range(1000):
        n = rng.choice(orders)
        m = rng.choice(orders)
        a = _random_cyclotomic(rng, n)
        b = _random_cyclotomic(rng, m)
        c = _random_cyclotomic(rng, rng.choice(orders))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_numeric_embedding_is_hom():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.choice([3, 4, 5, 6, 8, 12])
        a = _random_cyclotomic(rng, n)
        b = _random_cyclotomic(rng, n)
        assert abs(numeric(a * b) - numeric(a) * numeric(b)) < 1e-10
        assert abs(numeric(a + b) - (numeric(a) + numeric(b))) < 1e-10


def test_conjugate_matches_numeric_conjugate():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.choice([3, 4, 5, 7, 8, 9, 12])
        a = _random_cyclotomic(rng, n)
        assert abs(numeric(a.conjugate()) - numeric(a).conjugate()) < 1e-10


def test_lift_is_injective_hom():
    rng = random.Random(5)
    for _ in range(200):
        a = _random_cyclotomic(rng, 6)
        b = _random_cyclotomic(rng, 6)
        assert (a * b).lift(12) == a.lift(12) * b.lift(12)
        assert (a + b).lift(12) == a.lift(12) + b.lift(12)
        if a.lift(12) == b.lift(12):
            assert a == b


def test_big_integers_survive():
    big = 10**40
    v = big + E(3)
    w = v - E(3)
    assert w.is_rational() and (w.num, w.den) == ((big, 0), 1)


def test_printer_smoke():
    assert str(Cyclotomic.from_rational(0)) == "0"
    assert str(Cyclotomic.from_rational(Fraction(-3, 2))) == "-3/2"
    assert str(E(3)) == "E(3)"
    assert str(-E(3)) == "-E(3)"
    assert str(1 - 2 * E(3)) == "1 - 2*E(3)"
    assert str(E(4) ** 2) == "-1"


# -- the integer kernel against the Fraction-coordinate oracle --------------

ORACLE_ORDERS = list(range(1, 13)) + [15, 16, 20, 24, 48]


def _oracle_pair(rng):
    """The same random value as a Cyclotomic and as an oracle Cyclotomic.

    Coefficients run past phi(order), and sometimes past order, so the
    fold and the Phi_order reduction both run; some values are rational
    and a few are zero.
    """
    order = rng.choice(ORACLE_ORDERS)
    kind = rng.random()
    if kind < 0.1:
        raw = []
    elif kind < 0.3:
        raw = [Fraction(rng.randint(-9, 9), rng.randint(1, 7))]
    else:
        raw = [
            Fraction(rng.randint(-6, 6), rng.randint(1, 6)) if rng.random() < 0.6 else 0
            for _ in range(rng.randint(1, order + 3))
        ]
    return Cyclotomic(order, raw), oracle.Cyclotomic(order, raw)


def _same(new, old):
    """Equal values in the same field, new in its canonical integer form."""
    canonical = new.den > 0 and math.gcd(new.den, *new.num) == 1
    return canonical and new.order == old.order and new.coeffs == old.coeffs


def test_integer_kernel_matches_oracle():
    rng = random.Random(20261018)
    for _ in range(250):
        a, oa = _oracle_pair(rng)
        b, ob = _oracle_pair(rng)
        assert _same(a, oa)
        assert _same(a + b, oa + ob) and _same(a - b, oa - ob)
        assert _same(a * b, oa * ob)
        assert _same(-a, -oa) and _same(a.conjugate(), oa.conjugate())
        assert (a == b) == (oa == ob) and a == a.lift(a.order * 2)
        m = math.lcm(a.order, 2, 3)
        assert _same(a.lift(m), oa.lift(m))
        assert _same(a.descend(), oa.descend()) and str(a) == str(oa)
        assert hash(a) == hash(a.lift(m)) == hash(a.descend())
        if a.descend().order == 1:
            assert hash(a) == hash(Fraction(a.descend().num[0], a.descend().den))
        if not b.is_zero():
            assert _same(b.inverse(), ob.inverse())
            assert _same(a / b, oa / ob)
            k = rng.randint(-3, 3)
            assert _same(b**k, ob**k)
        else:
            with pytest.raises(ZeroDivisionError):
                a / b
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert _same(a + q, oa + q) and _same(q * a, q * oa) and _same(q - a, q - oa)


def test_galois_action_laws():
    rng = random.Random(0x6A105)
    for n in ORACLE_ORDERS:
        phi = euler_phi(n)
        units = [k for k in range(n) if math.gcd(k, n) == 1]
        for _ in range(6):
            a = [rng.randint(-5, 5) for _ in range(phi)]
            b = [rng.randint(-5, 5) for _ in range(phi)]
            j, k = rng.choice(units), rng.choice(units)
            assert _galois(n, a, 1) == a
            assert _galois(n, _galois(n, a, k), j) == _galois(n, a, j * k % n)
            total = [x + y for x, y in zip(a, b)]
            ga, gb = _galois(n, a, k), _galois(n, b, k)
            assert _galois(n, total, k) == [x + y for x, y in zip(ga, gb)]
            assert _galois(n, _conv(n, a, b), k) == _conv(n, ga, gb)
            den = rng.randint(1, 9)
            conj = _make(n, a, den).conjugate()
            assert conj == _make(n, _galois(n, a, n - 1), den)


def _canonical(v):
    phi = euler_phi(v.order)
    return v.den > 0 and math.gcd(v.den, *v.num) == 1 and len(v.num) == phi


def test_inverse_in_fields_past_the_oracle_orders():
    rng = random.Random(0x1A97)
    values = [1 + E(97), 1 - E(97) + E(97, 40)]
    for n in (60, 97):
        values += [Cyclotomic.from_rational(Fraction(-7, 3)).lift(n), E(n, 5)]
    for _ in range(6):
        raw = [0] * euler_phi(60)
        for i in rng.sample(range(len(raw)), 4):
            raw[i] = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 5))
        values.append(Cyclotomic(60, raw))
    for x in values:
        inv = x.inverse()
        assert inv.order == x.order and _canonical(inv)
        prod = x * inv
        assert prod == 1 and (prod.num, prod.den) == ((1,) + (0,) * (len(x.num) - 1), 1)
        back = inv.inverse()
        assert (back.order, back.num, back.den) == (x.order, x.num, x.den)


# -- scalar fast paths and the printer against the oracle --------------------


def _parts(old):
    """(order, numerators, denominator) of an oracle value."""
    den = math.lcm(1, *(c.denominator for c in old.coeffs))
    return old.order, tuple(int(c * den) for c in old.coeffs), den


def _same_parts(new, old):
    return (new.order, new.num, new.den) == _parts(old)


def _pair(order, coeffs):
    return Cyclotomic(order, coeffs), oracle.Cyclotomic(order, coeffs)


def test_zero_fast_path_keeps_common_order():
    z12, oz12 = _pair(12, [])
    z1, oz1 = _pair(1, [])
    i4, oi4 = _pair(4, [Fraction(2, 3), Fraction(-5, 7)])
    zero4, ozero4 = _pair(4, [])
    # a zero of order 12 does not divide order 4: the sum lives at order 12
    for new, old in ((z12 + i4, oz12 + oi4), (i4 + z12, oi4 + oz12)):
        assert new.order == 12 and _same_parts(new, old)
    # a zero of order 1 divides every order: the other operand comes back
    for order in ORACLE_ORDERS:
        v, ov = _pair(order, [Fraction(k - 2, k + 1) for k in range(order + 1)])
        assert z1 + v is v and v + z1 is v
        assert _same_parts(z1 + v, oz1 + ov) and _same_parts(v + z1, ov + oz1)
    assert _same_parts(zero4 + z12, ozero4 + oz12) and (zero4 + z12).order == 12
    assert _same_parts(z12 + zero4, oz12 + ozero4)
    assert _same_parts(i4 - i4, oi4 - oi4)


def test_rational_plus_irrational_fast_path():
    values = [
        _pair(12, [Fraction(1, 6), 0, Fraction(-3, 4), 2]),
        _pair(5, [Fraction(2, 7), 1, 0, Fraction(-1, 7)]),
        _pair(8, [0, Fraction(5, 9)]),
    ]
    rationals = [Fraction(1, 3), Fraction(-5, 4), Fraction(3, 7), Fraction(-2, 9), Fraction(7)]
    for v, ov in values:
        for q in rationals:  # coprime and shared denominators
            r, orr = _pair(1, [q])
            assert _same_parts(r + v, orr + ov) and _same_parts(v + r, ov + orr)
            assert _same_parts(v - r, ov - orr) and _same_parts(r - v, orr - ov)
            assert _same_parts(v + q, ov + q) and _same_parts(q + v, q + ov)


def test_integer_and_fraction_operands_match_oracle():
    v, ov = _pair(12, [Fraction(1, 6), 0, Fraction(-3, 4), 2])
    r, orr = _pair(1, [Fraction(-2, 3)])
    for q in (0, 1, -1, 3, -7, Fraction(0), Fraction(2, 3), Fraction(-9, 4), Fraction(6, 1)):
        for x, ox in ((v, ov), (r, orr)):
            assert _same_parts(x * q, ox * q) and _same_parts(q * x, q * ox)
            assert _same_parts(x + q, ox + q) and _same_parts(q + x, q + ox)
            assert _same_parts(x - q, ox - q) and _same_parts(q - x, q - ox)


def test_scalar_factor_makes_one_value_and_bools_coerce(monkeypatch):
    v, ov = _pair(12, [Fraction(1, 6), 0, Fraction(-3, 4), 2])
    made, coerced = [], []

    def counting_make(*args):
        made.append(args)
        return _make(*args)

    def counting_coerce(x, _real=exactnum._coerce):
        coerced.append(x)
        return _real(x)

    monkeypatch.setattr(exactnum, "_make", counting_make)
    monkeypatch.setattr(exactnum, "_coerce", counting_coerce)
    for q in (3, -2, Fraction(-5, 6)):
        del made[:]
        v * q
        q * v
        assert len(made) == 2 and not coerced
    for b in (True, False):
        del coerced[:]
        assert _same_parts(v * b, ov * b) and _same_parts(b * v, b * ov)
        assert _same_parts(v + b, ov + b) and _same_parts(b + v, b + ov)
        assert len(coerced) == 4


def test_printer_byte_identical_to_oracle():
    table = [
        (1, [], "0"),
        (1, [Fraction(-3, 4)], "-3/4"),
        (4, [Fraction(-3, 4)], "-3/4"),
        (3, [-2, 1], "-2 + E(3)"),
        (5, [0, -1, 0, 1], "-E(5) + E(5)^3"),
        (5, [0, 1, -1], "E(5) - E(5)^2"),
        (7, [-1, 0, Fraction(1, 2), Fraction(-5, 3)], "-1 + 1/2*E(7)^2 - 5/3*E(7)^3"),
        (8, [Fraction(3, 4), 2, 0, Fraction(-1, 6)], "3/4 + 2*E(8) - 1/6*E(8)^3"),
        (9, [0, Fraction(-7, 2), 0, 0, 0, 1], "-7/2*E(9) + E(9)^5"),
        (6, [1, 1], "2 + E(3)"),  # descends to order 3
        (12, [0, 0, 0, 1], "E(4)"),  # descends to order 4
        (12, [0, 0, Fraction(-2, 5)], "-2/5 - 2/5*E(3)"),
        (10, [0, 0, 0, 0, 0, 0, -1], "-E(5)^3"),
    ]
    for order, coeffs, text in table:
        new, old = _pair(order, coeffs)
        assert str(new) == str(old) == text, (order, coeffs)
        assert repr(new) == repr(old)
    rng = random.Random(11)
    for _ in range(300):
        new, old = _oracle_pair(rng)
        assert str(new) == str(old)
