import random
from fractions import Fraction

import pytest

from orbichern.exactnum import Cyclotomic, euler_phi
from orbichern.groups import FiniteGroup, subgroup_embedding, subgroups
from orbichern.linalg import Matrix
from orbichern.reps import (
    Representation,
    VirtualCharacter,
    character,
    direct_sum,
    dual,
    exterior_power,
    induce,
    induced_character_sum,
    induced_matrix,
    inner_product,
    lambda_minus_one,
    restrict,
    restricted_character,
    tensor,
)

import cyclotomic_oracle as oracle
from randgen import corpus_groups

E = Cyclotomic.root_of_unity


def perm_of_name(name):
    return tuple(int(c) for c in name.strip("()").replace(",", " ").split())


def standard_rep(s3):
    """Two-dimensional summand of the permutation action of S3.

    Basis u = e0 - e1, v = e1 - e2; matrices solved exactly from the
    permutation matrices.
    """
    basis = Matrix.from_rows([[1, 0], [-1, 1], [0, -1]])
    mats = []
    for g in s3.elements():
        perm = perm_of_name(s3.name(g))
        p = Matrix.from_rows(
            [[1 if perm[j] == i else 0 for j in range(3)] for i in range(3)]
        )
        mats.append(basis.solve(p * basis))
    return Representation(s3, mats, check=True)


@pytest.fixture(scope="module")
def s3():
    return FiniteGroup.symmetric(3)


@pytest.fixture(scope="module")
def std(s3):
    return standard_rep(s3)


def test_standard_rep_character(s3, std):
    assert std.dim == 2
    # classes: identity, transpositions, 3-cycles
    assert character(std).values == (
        Cyclotomic.from_rational(2),
        Cyclotomic.from_rational(0),
        Cyclotomic.from_rational(-1),
    )


def test_validation_catches_bad_rep(s3):
    mats = [Matrix.identity(1) for _ in s3.elements()]
    mats[1] = Matrix.from_rows([[2]])
    with pytest.raises(ValueError):
        Representation(s3, mats)


def test_exterior_square_of_standard_is_sign(s3, std):
    lam2 = exterior_power(std, 2)
    assert lam2.validate() is True
    sign_values = []
    for g in s3.elements():
        perm = perm_of_name(s3.name(g))
        p = Matrix.from_rows(
            [[1 if perm[j] == i else 0 for j in range(3)] for i in range(3)]
        )
        sign_values.append(p.det())
    sign = Representation.one_dimensional(s3, sign_values)
    assert character(lam2) == character(sign)
    assert character(lam2).values == (
        Cyclotomic.from_rational(1),
        Cyclotomic.from_rational(-1),
        Cyclotomic.from_rational(1),
    )


def test_exterior_powers_sum_to_binomials(std):
    dims = [character(exterior_power(std, k)).at(std.group.identity) for k in range(3)]
    assert dims == [1, 2, 1]


def test_induced_trivial_from_c2(s3):
    transposition = min(x for x in s3.elements() if s3.order_of(x) == 2)
    c2, emb = subgroup_embedding(s3, [0, transposition])
    ind = induce(emb, Representation.trivial(c2))
    assert ind.dim == 3
    assert ind.validate() is True
    assert character(ind).values == (
        Cyclotomic.from_rational(3),
        Cyclotomic.from_rational(1),
        Cyclotomic.from_rational(0),
    )
    chi = character(Representation.trivial(c2))
    assert induced_character_sum(emb, chi) == character(ind)


def test_induced_matrix_blocks_match_full_induce(s3):
    transposition = min(x for x in s3.elements() if s3.order_of(x) == 2)
    c2, emb = subgroup_embedding(s3, [0, transposition])
    sign = Representation.one_dimensional(c2, [1, -1])
    ind = induce(emb, sign)
    for h in s3.elements():
        assert ind.mats[h] == induced_matrix(emb, sign, h)
    assert ind.validate() is True


def test_induction_from_c3_weight(s3, std):
    c3_elems = [x for x in s3.elements() if s3.order_of(x) in (1, 3)]
    c3, emb = subgroup_embedding(s3, c3_elems)
    # pick the weight character sending the first 3-cycle to zeta_3
    gen = min(x for x in c3.elements() if c3.order_of(x) == 3)
    values = []
    for x in c3.elements():
        k = 0
        y = c3.identity
        while y != x:
            y = c3.mul(y, gen)
            k += 1
        values.append(E(3) ** k)
    weight = Representation.one_dimensional(c3, values)
    ind = induce(emb, weight)
    assert ind.validate() is True
    assert character(ind) == character(std)


def test_dual_conjugates_character(s3, std):
    chi = character(std)
    chid = character(dual(std))
    assert chid.values == tuple(v.conjugate() for v in chi.values)
    c4 = FiniteGroup.cyclic(4)
    w = Representation.cyclic_weight(c4, 1)
    assert character(dual(w)).at(1) == E(4) ** 3


def test_tensor_and_direct_sum_characters(s3, std):
    a = character(tensor(std, std))
    b = character(std) * character(std)
    assert a == b
    c = character(direct_sum(std, std))
    assert c == character(std) + character(std)


def test_lambda_minus_one_c3_weights():
    c3 = FiniteGroup.cyclic(3)
    v = direct_sum(
        Representation.cyclic_weight(c3, 1), Representation.cyclic_weight(c3, 2)
    )
    lam = lambda_minus_one(v)
    # at the generator: (1 - zeta^-1)(1 - zeta^-2) = 3
    assert lam.at(1) == 3
    assert lam.at(0) == 0


def test_lambda_minus_one_matches_det_formula(s3, std):
    lam = lambda_minus_one(std)
    cd = s3.conjugacy()
    for c, g in enumerate(cd.reps):
        m = Matrix.identity(2) - std.mats[s3.inv(g)]
        assert lam.values[c] == m.det()


def test_regular_character(s3):
    chi = character(Representation.regular(s3))
    assert chi.values == (
        Cyclotomic.from_rational(6),
        Cyclotomic.from_rational(0),
        Cyclotomic.from_rational(0),
    )


def test_inner_products(s3, std):
    chi = character(std)
    assert inner_product(chi, chi) == 1
    reg = character(Representation.regular(s3))
    triv = character(Representation.trivial(s3))
    assert inner_product(reg, triv) == 1
    assert inner_product(chi, triv) == 0


def _random_class_function(rng, group):
    cd = group.conjugacy()
    values = [
        Cyclotomic(
            rng.choice([1, 3, 4]),
            [Fraction(rng.randint(-3, 3)) for _ in range(2)],
        )
        for _ in range(cd.num_classes())
    ]
    return VirtualCharacter(group, values)


def test_frobenius_reciprocity_random(s3):
    rng = random.Random(414)
    for elems in [[0, 1], [x for x in s3.elements() if s3.order_of(x) in (1, 3)]]:
        sub, emb = subgroup_embedding(s3, sorted(set(elems) | {0}))
        for _ in range(50):
            chi = _random_class_function(rng, sub)
            psi = _random_class_function(rng, s3)
            lhs = inner_product(induced_character_sum(emb, chi), psi)
            rhs = inner_product(chi, restricted_character(emb, psi))
            assert lhs == rhs


def _induced_per_element(emb, chi):
    """The definitional average with one exact term per element of the big
    group, in the Fraction arithmetic of `cyclotomic_oracle`: a test oracle
    for `induced_character_sum`, which groups equal terms by class."""
    g, t = emb.source, emb.target
    old = [oracle.Cyclotomic(v.order, v.coeffs) for v in chi.values]
    class_of = g.conjugacy().class_of
    out = []
    for h in t.conjugacy().reps:
        acc = oracle.Cyclotomic.zero()
        for x in t.elements():
            s = emb.preimage.get(t.mul(t.mul(t.inv(x), h), x))
            if s is not None:
                acc = acc + old[class_of[s]]
        out.append(acc * Fraction(1, g.size))
    return out


def _seeded_class_function(rng, group):
    """Values of mixed orders, some zero at order 12, the first irrational."""
    values = []
    for c in range(group.conjugacy().num_classes()):
        if c and rng.random() < 0.2:
            values.append(Cyclotomic(12, []))
            continue
        order = rng.choice((3, 4, 8, 12) if not c else (1, 3, 4, 8, 12))
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(euler_phi(order))]
        if not c:
            coeffs[1] = Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
        values.append(Cyclotomic(order, coeffs))
    return VirtualCharacter(group, values)


def test_class_grouped_average_matches_per_element_sum():
    rng = random.Random(0x1DC8)
    pairs = 0
    for group in corpus_groups().values():
        for elems in subgroups(group):
            sub, emb = subgroup_embedding(group, list(elems))
            pairs += 1
            for _ in range(2):
                chi = _seeded_class_function(rng, sub)
                assert not chi.values[0].is_rational()
                new = induced_character_sum(emb, chi).values
                old = _induced_per_element(emb, chi)
                # the same values in the same fields, in lowest terms
                assert [(v.order, v.coeffs) for v in new] == [
                    (v.order, v.coeffs) for v in old
                ]
    assert pairs == 60


def test_restrict_matrices(s3, std):
    transposition = min(x for x in s3.elements() if s3.order_of(x) == 2)
    c2, emb = subgroup_embedding(s3, [0, transposition])
    res = restrict(emb, std)
    assert res.mats[1] == std.mats[transposition]
    assert res.validate() is True


def test_zero_dimensional_rep(s3):
    z = Representation.zero_dimensional(s3)
    assert z.dim == 0
    assert character(z).values == (
        Cyclotomic.from_rational(0),
    ) * 3
    assert character(exterior_power(z, 0)).at(z.group.identity) == 1


# -- validate(): every pair checked, the first violation raised -------------


def test_check_reports_only_the_first_of_several_violations():
    # the identity goes to 2 and no pair multiplies correctly
    with pytest.raises(ValueError, match=r"^identity does not map to the identity matrix$"):
        Representation.one_dimensional(FiniteGroup.cyclic(2), [2, 3])
    with pytest.raises(ValueError, match=r"^multiplicativity fails at pair \(1, 1\)$"):
        Representation.one_dimensional(FiniteGroup.cyclic(3), [1, 2, 3])


def test_validate_returns_true_on_a_representation(s3, std):
    assert std.validate() is True
    assert Representation.cyclic_weight(FiniteGroup.cyclic(48), 5).validate() is True


def test_validate_catches_a_violation_at_the_last_element_of_order_48():
    c48 = FiniteGroup.cyclic(48)
    values = [E(48, k) for k in range(48)]
    values[47] = -values[47]
    rep = Representation.one_dimensional(c48, values, check=False)
    # the first pair with product 47 is (1, 46): (0, 47) multiplies correctly
    with pytest.raises(ValueError, match=r"^multiplicativity fails at pair \(1, 46\)$"):
        rep.validate()


def test_trusted_characters_equal_public_constructions():
    """Characters built through `VirtualCharacter._trusted` carry one
    Cyclotomic per class and equal the public construction."""
    rng = random.Random(0x7C4)
    group = corpus_groups()["S4"]
    sub, emb = subgroup_embedding(group, [x for x in subgroups(group) if len(x) == 4][0])
    chi, psi = _seeded_class_function(rng, group), _seeded_class_function(rng, group)
    small = _seeded_class_function(rng, sub)
    perm = Representation.regular(sub)
    built = [
        chi + psi,
        chi - psi,
        -chi,
        chi * psi,
        character(perm),
        character(induce(emb, perm)),
        restricted_character(emb, chi),
        induced_character_sum(emb, small),
    ]
    for c in built:
        public = VirtualCharacter(c.group, c.values)
        assert c == public
        assert type(c.values) is tuple
        assert len(c.values) == c.group.conjugacy().num_classes()
        assert all(type(v) is Cyclotomic for v in c.values)
    ind = induce(emb, perm)
    for h in group.elements():
        m = induced_matrix(emb, perm, h)
        assert m == Matrix(m.rows, ncols=m.ncols) == ind.mats[h]
