"""Verifier layer: pushforwards, zero sections, degree-0 induction, Todd."""

import random
from fractions import Fraction

import pytest

from orbichern.exactnum import Cyclotomic
from orbichern.linalg import Matrix
from orbichern import exactnum, rrg
from orbichern.groups import (
    FiniteGroup,
    FusionData,
    GroupEmbedding,
    subgroup_embedding,
    subgroups,
)
from orbichern.reps import (
    Representation,
    VirtualCharacter,
    character,
    direct_sum,
    induced_character_sum,
)
from orbichern.complexes import EquivariantComplex, supertrace_class
from orbichern.rrg import (
    GeneralScenario,
    IsoSpatialScenario,
    ZeroSectionScenario,
    check_functoriality,
    check_general_degree0,
    check_iso_spatial,
    check_td_pullback,
    check_zero_section,
    pushforward_characters,
)

from randgen import corpus_groups, cyclic_subgroup, random_complex, random_rep
from test_reps import perm_of_name, standard_rep

E = Cyclotomic.root_of_unity


@pytest.fixture(scope="module")
def s3():
    return FiniteGroup.symmetric(3)


@pytest.fixture(scope="module")
def c2_in_s3(s3):
    return subgroup_embedding(s3, [0, 2])


@pytest.fixture(scope="module")
def c3_in_s3(s3):
    return subgroup_embedding(s3, [0, 3, 4])


def identity_embedding(group):
    return GroupEmbedding(group, group, range(group.size))


def line(group, degree=0):
    return EquivariantComplex.single(Representation.trivial(group), degree)


# -- pushforward ----------------------------------------------------------


def test_pushforward_is_identity_for_identity_embedding(s3):
    emb = identity_embedding(s3)
    chi = VirtualCharacter(s3, (2, Cyclotomic.from_rational(-1), E(3)))
    assert pushforward_characters(emb, chi) == chi


def test_pushforward_trivial_character_counts_cosets(c2_in_s3):
    sub, emb = c2_in_s3
    chi = VirtualCharacter(sub, (1, 1))
    pushed = pushforward_characters(emb, chi)
    assert [str(v) for v in pushed.values] == ["3", "1", "0"]
    assert pushed == induced_character_sum(emb, chi)


def test_pushforward_faithful_cyclic_character(c3_in_s3):
    sub, emb = c3_in_s3
    chi = VirtualCharacter(sub, (1, E(3), E(3) * E(3)))
    pushed = pushforward_characters(emb, chi)
    assert [str(v) for v in pushed.values] == ["2", "0", "-1"]
    assert pushed == induced_character_sum(emb, chi)


def test_pushforward_vanishes_where_nothing_fuses(c2_in_s3):
    sub, emb = c2_in_s3
    pushed = pushforward_characters(emb, VirtualCharacter(sub, (1, -1)))
    assert pushed.values[2].is_zero()  # three-cycles receive nothing


def test_pushforward_weight_knobs_disagree(c2_in_s3):
    sub, emb = c2_in_s3
    chi = VirtualCharacter(sub, (1, 1))
    honest = pushforward_characters(emb, chi)
    assert pushforward_characters(emb, chi, weight="one") != honest
    assert pushforward_characters(emb, chi, weight="inverted") != honest
    with pytest.raises(ValueError, match="weight"):
        pushforward_characters(emb, chi, weight="half")


# -- iso-spatial induction -------------------------------------------------


def test_iso_spatial_trivial_line(s3, c2_in_s3):
    sub, emb = c2_in_s3
    sc = IsoSpatialScenario(emb, Representation.trivial(s3), line(sub))
    report = check_iso_spatial(sc)
    assert report.passed
    assert [e.lhs for e in report.entries] == ["3", "1", "0"]
    assert [e.rhs for e in report.entries] == ["3", "1", "0"]


def test_iso_spatial_identity_embedding(s3):
    emb = identity_embedding(s3)
    rng = random.Random(7)
    sc = IsoSpatialScenario(
        emb, Representation.zero_dimensional(s3), random_complex(rng, s3)
    )
    assert check_iso_spatial(sc).passed


def test_iso_spatial_corrupted_weight_fails(s3, c2_in_s3):
    sub, emb = c2_in_s3
    sc = IsoSpatialScenario(emb, Representation.trivial(s3), line(sub))
    report = check_iso_spatial(sc, weight="one")
    assert not report.passed
    failure = report.first_failure
    assert failure is not None and failure["status"] == "fail"
    assert report.to_dict()["first_failure"] == failure


def test_iso_spatial_random_pairs():
    rng = random.Random(90125)
    groups = corpus_groups()
    for name in ("S3", "D4"):
        group = groups[name]
        x = next(g for g in range(group.size) if g != group.identity)
        elems = sorted({group.power(x, k) for k in range(group.order_of(x))})
        sub, emb = subgroup_embedding(group, elems)
        for _ in range(3):
            sc = IsoSpatialScenario(
                emb,
                Representation.trivial(group),
                random_complex(rng, sub, max_dim=3),
            )
            assert check_iso_spatial(sc).passed


_REAL_PUSHFORWARD = rrg.pushforward_characters
_REAL_FUSION = GroupEmbedding.fusion


def _centralizer_weight_dropped(emb, chi, weight="centralizer"):
    """Mutant: the weighted fusion sum with every weight set to one."""
    return _REAL_PUSHFORWARD(emb, chi, weight="one")


def _fusion_shifted(emb):
    """Mutant: every source class fused into the next target class."""
    real = _REAL_FUSION(emb)
    k = len(real.fibers)
    to_target = tuple((t + 1) % k for t in real.to_target)
    fibers = [[] for _ in range(k)]
    for i, t in enumerate(to_target):
        fibers[t].append(i)
    return FusionData(emb, to_target, tuple(tuple(f) for f in fibers))


def _induction_corpus():
    """Acceptance 1 and 2's 60 subgroup pairs, one character and one complex each."""
    rng = random.Random(0x1DC7)
    out = []
    for group in corpus_groups().values():
        for elems in subgroups(group):
            sub, emb = subgroup_embedding(group, list(elems))
            extra = random_rep(rng, sub, max_dim=2)
            chi = character(direct_sum(Representation.trivial(sub), extra))
            chart = random_rep(rng, group, max_dim=4)
            cx = random_complex(rng, sub, max_dim=3, summands=2)
            out.append((emb, chi, IsoSpatialScenario(emb, chart, cx)))
    return out


def _induction_caught(corpus):
    """Pairs on which the definitional or the iso-spatial check fails."""
    caught = []
    for i, (emb, chi, sc) in enumerate(corpus):
        weighted = rrg.pushforward_characters(emb, chi)
        if weighted.values != induced_character_sum(emb, chi).values:
            caught.append(i)
        elif not check_iso_spatial(sc).passed:
            caught.append(i)
    return caught


@pytest.mark.parametrize(
    "target, name, mutant, exposed",
    [
        # weights are |Z_target(t)| / |Z_source(c)|: all one only when H = G
        (rrg, "pushforward_characters", _centralizer_weight_dropped,
         lambda emb: emb.index > 1),
        (GroupEmbedding, "fusion", _fusion_shifted, lambda emb: True),
    ],
    ids=["centralizer_weight_dropped", "fusion_shifted"],
)
def test_code_mutant_fails_induction_corpus(monkeypatch, target, name, mutant, exposed):
    corpus = _induction_corpus()
    assert len(corpus) == 60
    assert _induction_caught(corpus) == []
    monkeypatch.setattr(target, name, mutant)
    caught = _induction_caught(corpus)
    want = [i for i, (emb, _, _) in enumerate(corpus) if exposed(emb)]
    print("mutant %s caught on %d of %d pairs" % (name, len(caught), len(corpus)))
    assert caught == want


def test_induction_operation_counts(monkeypatch):
    """Kernel calls of one iso-spatial check and one definitional average on
    a fixed S4 pair, pinned near their counts: the definitional average
    sums one term per class, and a rational or zero operand is not lifted.
    """
    s4 = corpus_groups()["S4"]
    x = min(g for g in s4.elements() if s4.order_of(g) == 4)
    sub, emb = subgroup_embedding(s4, cyclic_subgroup(s4, x))
    gen, values, y = emb.preimage[x], [None] * 4, sub.identity
    for k in range(4):
        values[y] = E(4, k)
        y = sub.mul(y, gen)
    chi = character(
        direct_sum(Representation.trivial(sub), Representation.one_dimensional(sub, values))
    )
    rng = random.Random(1)
    sc = IsoSpatialScenario(
        emb, random_rep(rng, s4, max_dim=4), random_complex(rng, sub, max_dim=3, summands=2)
    )
    report, induced = check_iso_spatial(sc), induced_character_sum(emb, chi)  # warm
    assert report.passed and [e.lhs for e in report.entries] == ["12", "0", "0", "8", "2"]
    counts = {"_make": 0, "_lift_num": 0}
    for name in counts:
        def counting(*args, _real=getattr(exactnum, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(exactnum, name, counting)
    again = check_iso_spatial(sc)
    assert [(e.status, e.lhs, e.rhs) for e in again.entries] == [
        (e.status, e.lhs, e.rhs) for e in report.entries
    ]
    assert counts["_make"] <= 120 and counts["_lift_num"] <= 24, counts
    counts.update(_make=0, _lift_num=0)
    assert induced_character_sum(emb, chi) == induced
    assert counts["_make"] <= 16 and counts["_lift_num"] == 0, counts


def _generator_group_key(group):
    """The scenario text of a group as first written: one generator per row."""
    return ";".join(",".join(str(v) for v in row) for row in group.table)


def _generator_matrix_key(mat):
    return "%dx%d:" % (mat.nrows, mat.ncols) + ",".join(
        str(e) for row in mat.rows for e in row
    )


def _generator_rep_key(rep):
    return "|".join(_generator_matrix_key(m) for m in rep.mats)


def _generator_iso_parts(sc):
    emb, cx = sc.emb, sc.complex
    return (
        "iso",
        _generator_group_key(emb.source)
        + ">"
        + _generator_group_key(emb.target)
        + ">"
        + ",".join(str(v) for v in emb.mapping),
        _generator_rep_key(sc.chart),
        "deg%d;" % cx.min_degree
        + "|".join(_generator_rep_key(p) for p in cx.pieces)
        + ";"
        + "|".join(_generator_matrix_key(d) for d in cx.diffs),
    )


def test_scenario_hash_text_matches_generator_keys():
    """The scenario text is byte for byte the one the generator keys built,
    so every printed scenario hash stays the same."""
    for _, _, sc in _induction_corpus():
        old = _generator_iso_parts(sc)
        new = (
            "iso",
            rrg._emb_key(sc.emb),
            rrg._rep_key(sc.chart),
            rrg._complex_key(sc.complex),
        )
        assert "\x1f".join(new).encode() == "\x1f".join(old).encode()
        assert sc.hash() == rrg.content_hash(*old)
    for shape in ((2, 0), (0, 3), (0, 0), (1, 1), (2, 3)):
        mat = Matrix.zero(*shape)
        assert rrg._matrix_key(mat) == _generator_matrix_key(mat)


@pytest.fixture
def fresh_key_caches():
    """Empty the scenario-key caches, so the counts start from nothing."""
    caches = (rrg._group_key, rrg._rep_text)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_scenario_keys_are_built_once_per_object(fresh_key_caches, s3, c2_in_s3):
    """Two scenarios over the same embedding and chart build each group's
    and the chart's text once; the texts match the generator keys."""
    sub, emb = c2_in_s3
    rng = random.Random(0x4E75)
    chart = random_rep(rng, s3, max_dim=3)
    first, second = (
        IsoSpatialScenario(emb, chart, random_complex(rng, sub, max_dim=2, summands=2))
        for _ in range(2)
    )
    pieces = [{id(p) for p in sc.complex.pieces} for sc in (first, second)]
    assert first.hash() == rrg.content_hash(*_generator_iso_parts(first))
    assert rrg._group_key.cache_info().misses == 2
    assert rrg._rep_text.cache_info().misses == 1 + len(pieces[0])
    assert second.hash() == rrg.content_hash(*_generator_iso_parts(second))
    assert first.hash() == rrg.content_hash(*_generator_iso_parts(first))
    assert rrg._group_key.cache_info().misses == 2
    assert rrg._rep_text.cache_info().misses == 1 + len(pieces[0] | pieces[1])


def test_rebound_matrices_get_a_fresh_scenario_key(fresh_key_caches, s3):
    rep = Representation.trivial(s3)
    before = rrg._rep_key(rep)
    assert before == _generator_rep_key(rep)
    rep.mats = Representation.trivial(s3, 2).mats
    assert rrg._rep_key(rep) == _generator_rep_key(rep) != before


# -- zero section -----------------------------------------------------------


def c2_minus_line():
    c2 = FiniteGroup.cyclic(2)
    sub = Representation.zero_dimensional(c2)
    ambient = Representation.one_dimensional(c2, (1, -1))
    inclusion = Matrix.from_rows([[]], ncols=0)
    return c2, sub, ambient, inclusion


def test_zero_section_reflection_line():
    c2, sub, ambient, inclusion = c2_minus_line()
    sc = ZeroSectionScenario(c2, sub, ambient, inclusion, line(c2), 4)
    report = check_zero_section(sc)
    assert report.passed
    assert report.entries[1].lhs == "2"  # 1 - (-1)^{-1}
    assert report.entries[1].rhs == "2"


def test_zero_section_inclusion_names_its_witness():
    c2 = FiniteGroup.cyclic(2)
    sub = Representation.trivial(c2)
    ambient = direct_sum(sub, Representation.one_dimensional(c2, (1, -1)))
    for inclusion, message in (
        (
            Matrix.from_rows([[1]]),
            r"^inclusion matrix has the wrong shape: \(1, 1\), expected \(2, 1\) "
            r"\(ambient dim, sub dim\)$",
        ),
        (
            Matrix.from_rows([[0], [0]]),
            r"^inclusion is not injective: rank 0, sub dim 1$",
        ),
    ):
        with pytest.raises(ValueError, match=message):
            ZeroSectionScenario(c2, sub, ambient, inclusion, line(c2), 4)
    sc = ZeroSectionScenario(c2, sub, ambient, Matrix.from_rows([[1], [0]]), line(c2), 4)
    assert sc.normal.dim == 1


def test_zero_section_euler_omission_fails():
    c2, sub, ambient, inclusion = c2_minus_line()
    sc = ZeroSectionScenario(c2, sub, ambient, inclusion, line(c2), 4)
    report = check_zero_section(sc, euler_factor="omit")
    assert not report.passed
    assert report.first_failure["class"] == 0  # unit eigenvalue at the identity
    assert "series mismatch" in report.first_failure["detail"]


def test_zero_section_failure_reports_witness_coefficients():
    from pathlib import Path

    from orbichern.charts import LinearChart, eigen_decomposition
    from orbichern.cli import load_scenario
    from orbichern.series import (
        NormalModel,
        first_difference,
        invert_unit,
        koszul_ch,
        todd_delocalized,
    )

    fixture = Path(__file__).parent / "fixtures" / "corrupt_euler_omit.json"
    block = load_scenario(str(fixture)).blocks["rrg_zero_section"][0]
    assert block["euler"] == "omit"
    cls, args = block["scenario"]
    sc = cls(*args, block["trunc"])
    report = check_zero_section(sc, euler_factor="omit")
    entry = report.entries[0]
    assert entry.status == "fail"
    assert entry.lhs != entry.rhs
    chart = LinearChart(sc.group, sc.normal)
    g = sc.group.conjugacy().reps[0]
    eigen = eigen_decomposition(chart, g, with_bases=False)
    model = NormalModel.from_eigen(eigen, sc.trunc)
    koszul = koszul_ch(model)
    inverted = invert_unit(todd_delocalized(model))
    witness = first_difference(koszul, inverted)
    assert entry.detail == "series mismatch at exponent %s" % (witness,)
    assert entry.lhs == str(koszul.coefficient(witness))
    assert entry.rhs == str(inverted.coefficient(witness))


def test_zero_section_v_equals_w(s3):
    rep = standard_rep(s3)
    sc = ZeroSectionScenario(
        s3, rep, rep, Matrix.identity(2), line(s3), 4
    )
    assert sc.normal.dim == 0
    report = check_zero_section(sc)
    assert report.passed
    chi = supertrace_class(line(s3))
    assert [e.lhs for e in report.entries] == [str(v) for v in chi.values]
    assert [e.rhs for e in report.entries] == [str(v) for v in chi.values]


def test_zero_section_quotient_is_standard_summand(s3):
    perm = Representation.permutation(
        s3, [list(perm_of_name(s3.name(g))) for g in range(6)]
    )
    inclusion = Matrix.from_rows([[1], [1], [1]])
    sc = ZeroSectionScenario(
        s3, Representation.trivial(s3), perm, inclusion, line(s3), 5
    )
    assert [str(v) for v in character(sc.normal).values] == ["2", "0", "-1"]
    assert check_zero_section(sc).passed


def test_zero_section_mixed_weights_at_degree_six():
    c6 = FiniteGroup.cyclic(6)
    ambient = Representation.one_dimensional(c6, tuple(E(6, k) for k in range(6)))
    for j in (2, 3):
        other = Representation.one_dimensional(
            c6, tuple(E(6, (j * k) % 6) for k in range(6))
        )
        ambient = direct_sum(ambient, other)
    c6_zero = Representation.zero_dimensional(c6)
    inclusion = Matrix.from_rows([[], [], []], ncols=0)
    sc = ZeroSectionScenario(c6, c6_zero, ambient, inclusion, line(c6), 6)
    assert check_zero_section(sc).passed


def test_zero_section_rejects_non_equivariant_inclusion(s3):
    rep = standard_rep(s3)
    bad = Matrix.from_rows([[1], [0]])
    with pytest.raises(ValueError, match="equivariant"):
        ZeroSectionScenario(s3, Representation.trivial(s3), rep, bad, line(s3), 3)


def test_zero_section_rejects_trunc_below_normal_rank():
    c2, sub, ambient, inclusion = c2_minus_line()
    with pytest.raises(ValueError, match="below the normal rank 1"):
        ZeroSectionScenario(c2, sub, ambient, inclusion, line(c2), 0)
    assert check_zero_section(
        ZeroSectionScenario(c2, sub, ambient, inclusion, line(c2), 1)
    ).passed


def test_quotient_rejects_a_rank_deficient_inclusion():
    c2 = FiniteGroup.cyclic(2)
    triv = Representation.trivial(c2)
    sub = direct_sum(triv, triv)
    ambient = direct_sum(sub, triv)
    inclusion = Matrix.from_rows([[1, 2], [0, 0], [1, 2]])
    with pytest.raises(ValueError) as err:
        rrg._quotient_representation(ambient, inclusion, sub)
    assert str(err.value) == "inclusion is not injective: rank 1, sub dim 2"


def _greedy_normal_mats(ambient, inclusion):
    """The normal matrices, the basis completed by trial: one rank per unit vector."""
    wd, vd = inclusion.shape()
    basis = [inclusion.column(c) for c in range(vd)]
    for j in range(wd):
        candidate = tuple(
            Cyclotomic.one() if r == j else Cyclotomic.zero() for r in range(wd)
        )
        trial = Matrix.from_rows(
            [[col[r] for col in basis + [candidate]] for r in range(wd)]
        )
        if trial.rank() == len(basis) + 1:
            basis.append(candidate)
        if len(basis) == wd:
            break
    b = Matrix.from_rows([[col[r] for col in basis] for r in range(wd)])
    return [
        b.solve(ambient.mats[g] * b).submatrix(range(vd, wd), range(vd, wd))
        for g in range(ambient.group.size)
    ]


def test_quotient_chart_matches_greedy_completion():
    rng = random.Random(0x9C07)
    groups = [
        FiniteGroup.symmetric(3),
        FiniteGroup.dihedral(4),
        FiniteGroup.cyclic(4),
        FiniteGroup.quaternion(),
    ]
    entries = [0, 0, 0, 1, -1, 2, Fraction(1, 2), E(3), E(4), 1 + E(8)]
    for _ in range(60):
        group = rng.choice(groups)
        if rng.random() < 0.2:
            sub = Representation.zero_dimensional(group)
        else:
            sub = random_rep(rng, group, 3)
        whole = direct_sum(sub, random_rep(rng, group, 3))
        wd, vd = whole.dim, sub.dim
        while True:
            p = Matrix.from_rows(
                [[rng.choice(entries) for _ in range(wd)] for _ in range(wd)]
            )
            if p.rank() == wd:
                break
        # whole in the basis of the columns of p: sub sits on the first vd
        pinv = p.solve(Matrix.identity(wd))
        ambient = Representation(
            group, [p * m * pinv for m in whole.mats], check=False
        )
        inclusion = p.submatrix(range(wd), range(vd))
        normal = rrg._quotient_representation(ambient, inclusion, sub)
        want = _greedy_normal_mats(ambient, inclusion)
        assert [str(m) for m in normal.mats] == [str(m) for m in want]


# -- general degree zero ------------------------------------------------------


def test_general_degree0_self_embedding_line():
    c2 = FiniteGroup.cyclic(2)
    emb = identity_embedding(c2)
    sub = Representation.zero_dimensional(c2)
    ambient = Representation.one_dimensional(c2, (1, -1))
    inclusion = Matrix.from_rows([[]], ncols=0)
    sc = GeneralScenario(emb, sub, ambient, inclusion, line(c2), 4)
    report = check_general_degree0(sc)
    assert report.passed
    assert report.entries[0].status == "skipped"
    assert report.entries[1].lhs == "2"
    assert report.entries[1].rhs == "2"


def c2_in_c4_scenario():
    c4 = FiniteGroup.cyclic(4)
    sub_group, emb = subgroup_embedding(c4, [0, 2])
    sub = Representation.zero_dimensional(c4)
    ambient = Representation.cyclic_weight(c4, 1)
    inclusion = Matrix.from_rows([[]], ncols=0)
    return GeneralScenario(emb, sub, ambient, inclusion, line(sub_group), 4)


def test_general_degree0_order_two_inside_order_four():
    report = check_general_degree0(c2_in_c4_scenario())
    assert report.passed
    by_class = {e.class_index: e for e in report.entries}
    assert by_class[0].status == "skipped"
    assert by_class[2].lhs == "4"  # (4/2) * (1 - (-1))
    assert by_class[2].rhs == "4"


def test_general_degree0_wrong_inversion_fails():
    c4 = FiniteGroup.cyclic(4)
    emb = identity_embedding(c4)
    sub = Representation.zero_dimensional(c4)
    ambient = Representation.cyclic_weight(c4, 1)
    inclusion = Matrix.from_rows([[]], ncols=0)
    sc = GeneralScenario(emb, sub, ambient, inclusion, line(c4), 4)
    assert check_general_degree0(sc).passed
    report = check_general_degree0(sc, inversion="direct")
    assert not report.passed
    assert report.first_failure["class"] == 1  # eigenvalue E(4) is not real


def test_general_degree0_all_skipped_when_fixed_everywhere():
    c2 = FiniteGroup.cyclic(2)
    emb = identity_embedding(c2)
    sub = Representation.zero_dimensional(c2)
    ambient = Representation.trivial(c2)
    inclusion = Matrix.from_rows([[]], ncols=0)
    sc = GeneralScenario(emb, sub, ambient, inclusion, line(c2), 3)
    report = check_general_degree0(sc)
    assert report.passed
    assert all(e.status == "skipped" for e in report.entries)
    assert all("fixed locus" in e.detail for e in report.entries)


# -- Todd pullback -------------------------------------------------------------


def test_td_pullback_identity_embedding(s3):
    emb = identity_embedding(s3)
    rep = standard_rep(s3)
    sc = GeneralScenario(
        emb,
        Representation.zero_dimensional(s3),
        rep,
        Matrix.from_rows([[], []], ncols=0),
        line(s3),
        4,
    )
    assert check_td_pullback(sc).passed


def test_td_pullback_standard_rep(s3, c2_in_s3):
    sub, emb = c2_in_s3
    rep = standard_rep(s3)
    sc = GeneralScenario(
        emb,
        Representation.zero_dimensional(s3),
        rep,
        Matrix.from_rows([[], []], ncols=0),
        line(sub),
        4,
    )
    report = check_td_pullback(sc)
    assert report.passed
    assert len(report.entries) == 2
    assert report.entries[0].lhs == report.entries[0].rhs


def test_scenario_rejects_non_invariant_sub(s3, c2_in_s3):
    sub, emb = c2_in_s3
    rep = standard_rep(s3)
    with pytest.raises(ValueError, match="equivariant|invariant"):
        GeneralScenario(
            emb,
            Representation.trivial(s3),
            rep,
            Matrix.from_rows([[1], [0]]),
            line(sub),
            4,
        )


def test_scenario_rejects_non_equivariant_differential(s3, c2_in_s3):
    sub, emb = c2_in_s3
    triv = Representation.trivial(sub)
    sign = Representation.one_dimensional(
        sub, (Cyclotomic.one(), -Cyclotomic.one())
    )
    d = Matrix.from_rows([[1]])
    broken = EquivariantComplex(sub, 0, (triv, sign), (d,), check=False)
    with pytest.raises(ValueError, match="equivariant"):
        IsoSpatialScenario(emb, Representation.trivial(s3), broken)


# -- functoriality ---------------------------------------------------------------


def test_functoriality_standard_restriction(s3, c2_in_s3):
    sub, emb = c2_in_s3
    cx = EquivariantComplex.single(standard_rep(s3))
    report = check_functoriality(emb, cx)
    assert report.passed
    assert [e.lhs for e in report.entries] == ["2", "0"]
    assert [e.rhs for e in report.entries] == ["2", "0"]


def test_functoriality_identity_embedding(s3):
    emb = identity_embedding(s3)
    rng = random.Random(11)
    assert check_functoriality(emb, random_complex(rng, s3)).passed


def test_functoriality_random_pairs(s3, c3_in_s3):
    sub, emb = c3_in_s3
    rng = random.Random(23)
    for _ in range(4):
        assert check_functoriality(emb, random_complex(rng, s3, max_dim=3)).passed


# -- reports --------------------------------------------------------------------


def test_report_shape_and_hash_stability(s3, c2_in_s3):
    sub, emb = c2_in_s3
    sc1 = IsoSpatialScenario(emb, Representation.trivial(s3), line(sub))
    sc2 = IsoSpatialScenario(emb, Representation.trivial(s3), line(sub))
    assert sc1.hash() == sc2.hash()
    sc3 = IsoSpatialScenario(emb, Representation.trivial(s3), line(sub, degree=1))
    assert sc1.hash() != sc3.hash()
    report = check_iso_spatial(sc1).to_dict()
    assert set(report) == {"check", "scenario", "passed", "classes", "first_failure"}
    assert report["passed"] is True
    assert report["first_failure"] is None
    assert [c["class"] for c in report["classes"]] == [0, 1, 2]
    assert all(c["status"] == "pass" for c in report["classes"])
