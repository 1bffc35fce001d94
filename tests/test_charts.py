import random

import pytest

from orbichern.exactnum import Cyclotomic
from orbichern.groups import FiniteGroup
from orbichern.linalg import Matrix
from orbichern.reps import Representation
from orbichern.charts import (
    EigenData,
    LinearChart,
    eigen_decomposition,
    fixed_subspace,
    inertia_data,
)

from randgen import corpus_groups, random_rep
from test_reps import standard_rep

E = Cyclotomic.root_of_unity


def test_fixed_subspace_identity_is_everything():
    g = FiniteGroup.cyclic(3)
    chart = LinearChart(g, Representation.regular(g))
    assert fixed_subspace(chart, g.identity).ncols == 3


def test_fixed_subspace_sign_action_is_zero():
    g = FiniteGroup.cyclic(2)
    rep = Representation.one_dimensional(
        g, [Cyclotomic.one(), Cyclotomic.from_rational(-1)]
    )
    chart = LinearChart(g, rep)
    assert fixed_subspace(chart, 1).ncols == 0


def test_fixed_subspace_standard_transposition():
    s3 = FiniteGroup.symmetric(3)
    chart = LinearChart(s3, standard_rep(s3))
    transposition = next(g for g in s3.elements() if s3.order_of(g) == 2)
    assert fixed_subspace(chart, transposition).ncols == 1
    three_cycle = next(g for g in s3.elements() if s3.order_of(g) == 3)
    assert fixed_subspace(chart, three_cycle).ncols == 0


def test_eigen_weight_line():
    g = FiniteGroup.cyclic(4)
    chart = LinearChart(g, Representation.cyclic_weight(g, 1))
    data = eigen_decomposition(chart, 1)
    assert data.entries == ((E(4, 1), 1),)


def test_eigen_regular_c3():
    g = FiniteGroup.cyclic(3)
    chart = LinearChart(g, Representation.regular(g))
    data = eigen_decomposition(chart, 1)
    assert data.entries == ((E(3, 0), 1), (E(3, 1), 1), (E(3, 2), 1))


def test_eigen_exponent_order():
    g = FiniteGroup.cyclic(6)
    rep = Representation(
        g,
        [
            Matrix.from_rows([[E(6, k), 0], [0, E(6, (5 * k) % 6)]])
            for k in range(6)
        ],
    )
    data = eigen_decomposition(LinearChart(g, rep), 1)
    assert data.eigenvalues() == [E(6, 1), E(6, 5)]
    assert data.total() == 2


def test_eigen_multiplicities_fill_dimension_on_random_charts():
    rng = random.Random(4004)
    for name, g in corpus_groups().items():
        chart = LinearChart(g, random_rep(rng, g, 6))
        for x in g.conjugacy().reps:
            data = eigen_decomposition(chart, x)
            assert data.total() == chart.dim, name


def test_eigen_conjugation_equivariance():
    rng = random.Random(515)
    for name, g in corpus_groups().items():
        chart = LinearChart(g, random_rep(rng, g, 6))
        for _ in range(4):
            x = rng.randrange(g.size)
            a = rng.randrange(g.size)
            d1 = eigen_decomposition(chart, x, with_bases=False)
            d2 = eigen_decomposition(chart, g.conj(a, x), with_bases=False)
            assert d1.entries == d2.entries, name


def test_inertia_trivial_group_line():
    g = FiniteGroup.cyclic(1)
    chart = LinearChart(g, Representation.trivial(g))
    comps = inertia_data(chart)
    assert len(comps) == 1
    assert comps[0].fixed_dim == 1
    assert comps[0].normal_eigen.entries == ()


def test_inertia_line_mod_c2():
    g = FiniteGroup.cyclic(2)
    rep = Representation.one_dimensional(
        g, [Cyclotomic.one(), Cyclotomic.from_rational(-1)]
    )
    comps = inertia_data(LinearChart(g, rep))
    assert comps[0].element == g.identity
    assert comps[0].fixed_dim == 1
    assert comps[0].normal_eigen.entries == ()
    assert comps[1].fixed_dim == 0
    assert comps[1].normal_eigen.entries == ((Cyclotomic.from_rational(-1), 1),)


def test_inertia_point_mod_s3():
    s3 = FiniteGroup.symmetric(3)
    chart = LinearChart(s3, Representation.zero_dimensional(s3))
    comps = inertia_data(chart)
    assert [len(c.centralizer) for c in comps] == [6, 2, 3]
    assert all(c.fixed_dim == 0 for c in comps)


def test_inertia_random_charts_consistent():
    rng = random.Random(77)
    for name, g in corpus_groups().items():
        chart = LinearChart(g, random_rep(rng, g, 6))
        comps = inertia_data(chart)
        cd = g.conjugacy()
        assert [c.element for c in comps] == list(cd.reps), name
        for c in comps:
            assert c.fixed_dim + c.normal_eigen.total() == chart.dim
            one = Cyclotomic.one()
            assert all(z != one for z in c.normal_eigen.eigenvalues())


def test_eigendata_helpers():
    d = EigenData(((E(4, 1), 2), (E(4, 3), 1)))
    assert d.eigenvalues() == [E(4, 1), E(4, 3)]
    assert [m for z, m in d.entries if z == E(4, 1)] == [2]
    assert Cyclotomic.one() not in d.eigenvalues()
    assert d.total() == 3


def test_inertia_fixed_basis_is_the_fixed_subspace():
    # the charts of acceptance 9: V^g comes from the eigenvalue-1 kernel of
    # the one eigen-decomposition, and must equal ker(rho(g) - 1) itself
    rng = random.Random(0xACC9)
    for name, group in corpus_groups().items():
        chart = LinearChart(group, random_rep(rng, group, max_dim=4))
        random_rep(rng, group, max_dim=4)  # the bundle acceptance 9 draws next
        for comp in inertia_data(chart):
            fixed = fixed_subspace(chart, comp.element)
            assert comp.fixed_dim == fixed.ncols, (name, comp.class_index)
            assert comp.fixed_basis == fixed, (name, comp.class_index)


def test_eigen_search_stops_once_the_dimension_is_filled(monkeypatch):
    """At a generator of C6 on 1 + weight 1 the multiplicities fill the
    dimension at the second root: two eliminations, not six."""
    import orbichern.linalg as linalg
    from orbichern.reps import direct_sum

    calls = []
    forward = linalg._forward_eliminate

    def counted(rows, ncols):
        calls.append(ncols)
        return forward(rows, ncols)

    monkeypatch.setattr(linalg, "_forward_eliminate", counted)
    c6 = FiniteGroup.cyclic(6)
    rep = direct_sum(Representation.trivial(c6), Representation.cyclic_weight(c6, 1))
    chart = LinearChart(c6, rep)
    for with_bases in (False, True):
        calls.clear()
        data = eigen_decomposition(chart, 1, with_bases=with_bases)
        assert data.entries == ((E(6, 0), 1), (E(6, 1), 1))
        assert len(calls) == 2
    assert [b.ncols for b in data.bases] == [1, 1]


def test_eigen_total_check_refuses_an_operator_of_infinite_order():
    c2 = FiniteGroup.cyclic(2)
    shear = Matrix.from_rows([[1, 1], [0, 1]])
    chart = LinearChart(c2, Representation(c2, (Matrix.identity(2), shear), check=False))
    with pytest.raises(
        ArithmeticError, match=r"^eigenvalue multiplicities sum to 1, dimension is 2$"
    ):
        eigen_decomposition(chart, 1, with_bases=False)


def test_inertia_refuses_a_centralizer_that_moves_the_fixed_subspace():
    """An unchecked action of C4: the swap at 1 fixes e0 + e1, which
    diag(1, -1) at 2, in its centralizer, does not preserve."""
    c4 = FiniteGroup.cyclic(4)
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    flip = Matrix.from_rows([[1, 0], [0, -1]])
    eye = Matrix.identity(2)
    chart = LinearChart(c4, Representation(c4, (eye, swap, flip, eye), check=False))
    with pytest.raises(
        ArithmeticError, match=r"^centralizer element 2 does not preserve the fixed subspace$"
    ):
        inertia_data(chart)
