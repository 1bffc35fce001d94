import random

import pytest

from orbichern.exactnum import Cyclotomic
from orbichern.groups import FiniteGroup
from orbichern.linalg import Matrix
from orbichern.reps import Representation, VirtualCharacter, character
from orbichern.complexes import (
    ChainMap,
    EquivariantComplex,
    cohomology,
    heat_supertrace,
    mapping_cone,
    shift,
    supertrace_class,
)

from randgen import corpus_groups, random_complex, random_rep, reynolds


def perm_of_name(name):
    return tuple(int(c) for c in name.strip("()").replace(",", " ").split())


@pytest.fixture(scope="module")
def s3():
    return FiniteGroup.symmetric(3)


@pytest.fixture(scope="module")
def natural(s3):
    """S3 permuting coordinates of a 3-dimensional space."""
    images = [perm_of_name(s3.name(g)) for g in s3.elements()]
    return Representation.permutation(s3, [list(p) for p in images])


@pytest.fixture(scope="module")
def augmentation(s3, natural):
    """natural -> trivial, coordinate sum; kernel is the 2-dim summand."""
    d = Matrix.from_rows([[1, 1, 1]])
    return EquivariantComplex(s3, 0, (natural, Representation.trivial(s3)), (d,))


def test_validation_rejects_nonzero_square():
    g = FiniteGroup.cyclic(2)
    t = Representation.trivial(g)
    d = Matrix.identity(1)
    with pytest.raises(ValueError, match="d o d"):
        EquivariantComplex(g, 0, (t, t, t), (d, d))


def test_validation_rejects_non_equivariant_differential(s3, natural):
    d = Matrix.from_rows([[1, 0, 0]])
    with pytest.raises(ValueError, match="equivariant"):
        EquivariantComplex(s3, 0, (natural, Representation.trivial(s3)), (d,))


def test_supertrace_alternates_by_degree(s3, natural):
    chi = character(natural)
    assert supertrace_class(EquivariantComplex.single(natural, 0)) == chi
    assert supertrace_class(EquivariantComplex.single(natural, 1)) == -chi
    assert supertrace_class(EquivariantComplex.single(natural, -3)) == -chi


def test_cone_supertrace_is_target_minus_source():
    rng = random.Random(7101)
    for name, g in corpus_groups().items():
        a = random_rep(rng, g, 4)
        b = random_rep(rng, g, 4)
        phi = ChainMap(
            EquivariantComplex.single(a),
            EquivariantComplex.single(b),
            (reynolds(rng, a, b),),
        )
        cone = mapping_cone(phi)
        assert cone.validate() is True
        assert supertrace_class(cone) == character(b) - character(a), name


def test_cone_of_identity_is_acyclic():
    rng = random.Random(3414)
    for g in corpus_groups().values():
        c = random_complex(rng, g, max_dim=3, summands=1)
        cone = mapping_cone(ChainMap.identity(c))
        assert cone.validate() is True
        zero = VirtualCharacter(
            g, [Cyclotomic.zero()] * len(g.conjugacy().reps)
        )
        for h in cohomology(cone):
            assert h == zero
        assert supertrace_class(cone) == zero


def test_cone_differential_squares_even_for_longer_sources(s3, natural, augmentation):
    phi = ChainMap.identity(augmentation)
    cone = mapping_cone(phi)
    assert cone.validate() is True
    assert cone.min_degree == -1
    assert cone.piece(0).dim == natural.dim + 1


def test_shift_negates_supertrace_and_stays_valid(augmentation):
    sh = shift(augmentation)
    assert sh.validate() is True
    assert sh.min_degree == augmentation.min_degree - 1
    assert supertrace_class(sh) == -supertrace_class(augmentation)
    sh2 = shift(sh)
    assert sh2.validate() is True
    assert supertrace_class(sh2) == supertrace_class(augmentation)


def test_cohomology_of_augmentation_complex(s3, augmentation):
    h0, h1 = cohomology(augmentation)
    assert [str(v) for v in h0.values] == ["2", "0", "-1"]
    assert all(v.is_zero() for v in h1.values)


def test_cohomology_of_single_is_the_piece(s3, natural):
    (h,) = cohomology(EquivariantComplex.single(natural, 2))
    assert h == character(natural)


def test_euler_characteristic_matches_supertrace():
    rng = random.Random(90125)
    for name, g in corpus_groups().items():
        for _ in range(3):
            c = random_complex(rng, g, max_dim=3, summands=2)
            assert c.validate() is True, name
            hs = cohomology(c)
            euler = None
            for k, h in zip(c.degrees(), hs):
                term = -h if k % 2 else h
                euler = term if euler is None else euler + term
            assert euler == supertrace_class(c), name


def test_heat_supertrace_is_t_independent_and_matches(s3, augmentation):
    cd = s3.conjugacy()
    chi = supertrace_class(augmentation)
    for idx, g in enumerate(cd.reps):
        vals = heat_supertrace(augmentation, g)
        exact = complex(chi.values[idx])
        for v in vals:
            assert abs(v - exact) < 1e-8


def test_heat_supertrace_random_complexes():
    rng = random.Random(271828)
    groups = corpus_groups()
    for name in ("S3", "Q8"):
        g = groups[name]
        c = random_complex(rng, g, max_dim=3, summands=2)
        chi = supertrace_class(c)
        for idx, x in enumerate(g.conjugacy().reps):
            vals = heat_supertrace(c, x, ts=(0.05, 1.0, 20.0))
            exact = complex(chi.values[idx])
            for v in vals:
                assert abs(v - exact) < 1e-8, name


def test_chain_map_validation_catches_non_commuting(s3, natural, augmentation):
    mats = (Matrix.identity(3), Matrix.zero(1, 1))
    with pytest.raises(ValueError, match="commute"):
        ChainMap(augmentation, augmentation, (mats[0], Matrix.from_rows([[2]])))


# -- validate(): every element checked, the first violation raised ----------


def test_validate_returns_true_on_a_complex_and_a_chain_map(augmentation):
    assert augmentation.validate() is True
    phi = ChainMap(augmentation, augmentation, ChainMap.identity(augmentation).mats)
    assert phi.validate() is True


def test_validate_catches_a_violation_at_the_last_element_of_order_48():
    """A line whose action is trivial except at element 47: a complex or a
    chain map into it from the trivial line fails there and only there."""
    c48 = FiniteGroup.cyclic(48)
    triv = Representation.trivial(c48)
    odd = Representation.one_dimensional(c48, [1] * 47 + [-1], check=False)
    one = Matrix.identity(1)
    with pytest.raises(
        ValueError, match=r"^differential at degree 0 is not equivariant at element 47$"
    ):
        EquivariantComplex(c48, 0, (triv, odd), (one,))
    source = EquivariantComplex.single(triv)
    target = EquivariantComplex(c48, 0, (odd,), (), check=False)
    with pytest.raises(ValueError, match=r"^not equivariant at slot 0$"):
        ChainMap(source, target, (one,))


def test_complex_check_reports_only_the_first_violation(s3, natural):
    # d o d is nonzero and d is not equivariant: only the first is named
    triv = Representation.trivial(s3)
    e0 = Matrix.from_rows([[1, 0, 0]])
    with pytest.raises(ValueError, match=r"^d o d is nonzero from degree 0$"):
        EquivariantComplex(s3, 0, (natural, triv, natural), (e0, e0.transpose()))


def test_cohomology_reduces_twice_per_degree_and_never_per_class(monkeypatch):
    import orbichern.linalg as linalg

    calls = []
    forward = linalg._forward_eliminate

    def counted(rows, ncols):
        calls.append(ncols)
        return forward(rows, ncols)

    monkeypatch.setattr(linalg, "_forward_eliminate", counted)
    s4 = corpus_groups()["S4"]
    rng = random.Random(0xC0)
    for _ in range(3):
        cx = random_complex(rng, s4, max_dim=3)
        calls.clear()
        coh = cohomology(cx)
        assert len(coh) == len(cx.pieces)
        assert len(calls) <= 2 * len(cx.pieces)


def test_cohomology_refuses_a_subspace_the_action_does_not_preserve():
    """Unchecked complexes whose differential is not equivariant: the swap
    moves ker d = span(e1) at degree 0, then im d = span(e0) at degree 1."""
    c2 = FiniteGroup.cyclic(2)
    swap = Representation.permutation(c2, [[0, 1], [1, 0]])
    flat = Representation.trivial(c2, 2)
    d = Matrix.from_rows([[1, 0], [0, 0]])
    with pytest.raises(ValueError, match=r"^degree 0: class 1 does not preserve the kernel$"):
        cohomology(EquivariantComplex(c2, 0, (swap, flat), (d,), check=False))
    with pytest.raises(ValueError, match=r"^degree 1: class 1 does not preserve the image$"):
        cohomology(EquivariantComplex(c2, 0, (flat, swap), (d,), check=False))
