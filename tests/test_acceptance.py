"""End-to-end acceptance runs over the full verification corpus.

Each test prints one verdict line with its wall-clock time; the timed
suites also assert their runtime ceiling.  Corpus: all subgroup pairs of
S3, S4, D4, Q8, and C2 x C4, plus the eigen-model family over mu_12.
"""

import itertools
import pathlib
import random
import time

from orbichern import cli
from orbichern.charts import LinearChart, eigen_decomposition, inertia_data
from orbichern.complexes import (
    ChainMap,
    EquivariantComplex,
    cohomology,
    heat_supertrace,
    mapping_cone,
    supertrace_class,
)
from orbichern.exactnum import Cyclotomic
from orbichern.groups import FiniteGroup, subgroup_embedding, subgroups
from orbichern.groupoids import (
    FiniteGroupoid,
    GeneralizedMorphism,
    StrictFunctor,
    classify_embedding,
    factorize,
    find_isomorphism,
    inertia_of_morphism,
    morita_decompose_inertia,
)
from orbichern.linalg import Matrix
from orbichern.reps import (
    Representation,
    VirtualCharacter,
    character,
    direct_sum,
    induced_character_sum,
    induced_matrix,
    lambda_minus_one,
    restrict,
)
from orbichern.rrg import (
    PASS,
    SKIPPED,
    GeneralScenario,
    IsoSpatialScenario,
    check_functoriality,
    check_general_degree0,
    check_iso_spatial,
    check_td_pullback,
    pushforward_characters,
)
from orbichern.series import NormalModel, delocalized_chern, zero_section_identity

from randgen import corpus_groups, random_complex, random_rep, random_two_term
from test_reps import perm_of_name, standard_rep

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def corpus_pairs():
    """Every (ambient group, subgroup embedding) pair in the corpus."""
    for gname, group in corpus_groups().items():
        for elems in subgroups(group):
            sub, emb = subgroup_embedding(group, list(elems))
            yield gname, group, sub, emb


def _verdict(num, label, ok, dt, limit=None):
    state = "PASS" if ok else "FAIL"
    if limit is None:
        print("[acceptance %d] %s: %s (%.1fs)" % (num, label, state, dt))
    else:
        print(
            "[acceptance %d] %s: %s (%.1fs < %.0fs)"
            % (num, label, state, dt, limit)
        )


def test_induced_characters_agree_on_three_routes():
    rng = random.Random(0xACC1)
    t0 = time.perf_counter()
    failures = []
    pairs = 0
    for gname, group, sub, emb in corpus_pairs():
        pairs += 1
        ch = group.conjugacy()
        basis = [Representation.trivial(sub)]
        basis += [random_rep(rng, sub, max_dim=2) for _ in range(2)]
        base_chis = [character(r) for r in basis]
        matrix_route = [
            [induced_matrix(emb, r, h).trace() for h in ch.reps] for r in basis
        ]
        for _ in range(100):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            chi = base_chis[0] * coeffs[0]
            for c, b in zip(coeffs[1:], base_chis[1:]):
                chi = chi + b * c
            definitional = induced_character_sum(emb, chi)
            weighted = pushforward_characters(emb, chi, weight="centralizer")
            for c in range(len(ch.reps)):
                traced = Cyclotomic.zero()
                for k, traces in zip(coeffs, matrix_route):
                    traced = traced + traces[c] * k
                if not (traced == weighted.values[c] == definitional.values[c]):
                    failures.append((gname, sub.size, c))
    dt = time.perf_counter() - t0
    ok = not failures and pairs == 60 and dt < 60.0
    _verdict(1, "induction routes (matrices / weighted fusion / average) agree", ok, dt, 60.0)
    assert pairs == 60
    assert not failures, failures[:5]
    assert dt < 60.0


def test_iso_spatial_pushforward_across_corpus():
    rng = random.Random(0xACC2)
    t0 = time.perf_counter()
    failures = []
    for gname, group, sub, emb in corpus_pairs():
        for _ in range(3):
            cx = random_complex(rng, sub, max_dim=3, summands=2)
            chart = random_rep(rng, group, max_dim=4)
            report = check_iso_spatial(IsoSpatialScenario(emb, chart, cx))
            if not report.passed:
                failures.append((gname, sub.size, report.first_failure))
    dt = time.perf_counter() - t0
    ok = not failures and dt < 120.0
    _verdict(2, "iso-spatial pushforward on random complexes", ok, dt, 120.0)
    assert not failures, failures[:5]
    assert dt < 120.0


def test_zero_section_identity_on_all_eigen_models():
    mu12 = [Cyclotomic.root_of_unity(12, k) for k in range(12)]
    t0 = time.perf_counter()
    count = 0
    failures = []
    for k in range(1, 5):
        for combo in itertools.combinations_with_replacement(range(12), k):
            lines = [(mu12[c], j) for j, c in enumerate(combo)]
            report = zero_section_identity(NormalModel(lines, 6, num_vars=k))
            if not report.passed:
                failures.append((combo, report.first_mismatch))
            count += 1
    dt = time.perf_counter() - t0
    ok = not failures and count == 1819 and dt < 30.0
    _verdict(3, "Koszul = Euler * Todd^-1 on all mu_12 models (<= 4 lines, D = 6)", ok, dt, 30.0)
    assert count == 1819
    assert not failures, failures[:5]
    assert dt < 30.0


def test_dual_exterior_supertrace_is_eigenvalue_product():
    rng = random.Random(0xACC4)
    t0 = time.perf_counter()
    one = Cyclotomic.one()
    for gname, group in corpus_groups().items():
        reps = [Representation.trivial(group)]
        reps += [random_rep(rng, group, max_dim=4) for _ in range(2)]
        cd = group.conjugacy()
        for rep in reps:
            chart = LinearChart(group, rep)
            lam = lambda_minus_one(rep)
            for c, g in enumerate(cd.reps):
                eigen = eigen_decomposition(chart, g, with_bases=False)
                prod = one
                for zeta, mult in eigen.entries:
                    factor = one - zeta.inverse()
                    for _ in range(mult):
                        prod = prod * factor
                assert lam.values[c] == prod, (gname, c)
    # rotation weights (1, 2) of C3 on C^2: the dual supertrace is 3
    c3 = FiniteGroup.cyclic(3)
    plane = direct_sum(
        Representation.cyclic_weight(c3, 1), Representation.cyclic_weight(c3, 2)
    )
    lam = lambda_minus_one(plane)
    gen_class = c3.conjugacy().class_of[1]
    assert lam.values[gen_class] == Cyclotomic.from_rational(3)
    dt = time.perf_counter() - t0
    _verdict(4, "dual exterior supertrace = prod (1 - zeta^-1), C3 plane gives 3", True, dt)


def test_heat_supertrace_is_constant_and_matches_cohomology():
    rng = random.Random(0xACC5)
    t0 = time.perf_counter()
    small = [
        FiniteGroup.symmetric(3),
        FiniteGroup.dihedral(4),
        FiniteGroup.quaternion(),
        FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)),
        FiniteGroup.cyclic(6),
        FiniteGroup.cyclic(12),
    ]
    assert all(g.size <= 12 for g in small)
    worst = 0.0
    for i in range(50):
        group = small[i % len(small)]
        cx = random_complex(rng, group, max_dim=3, summands=2)
        cd = group.conjugacy()
        g = cd.reps[rng.randrange(len(cd.reps))]
        values = heat_supertrace(cx, g, ts=(0.1, 1.0, 10.0))
        target = 0j
        for k, chi in zip(cx.degrees(), cohomology(cx)):
            sign = 1 if k % 2 == 0 else -1
            target += sign * complex(chi.at(g))
        for v in values:
            worst = max(worst, abs(v - target))
    dt = time.perf_counter() - t0
    ok = worst < 1e-8 and dt < 30.0
    _verdict(5, "heat supertrace constant in t and equal to cohomology", ok, dt, 30.0)
    assert worst < 1e-8, worst
    assert dt < 30.0


def test_cone_additivity_and_acyclic_vanishing():
    rng = random.Random(0xACC6)
    t0 = time.perf_counter()
    for gname, group in corpus_groups().items():
        # additivity: supertrace of a cone is target minus source
        for _ in range(3):
            src = random_two_term(rng, group, max_dim=3, degree=0)
            dst = random_two_term(rng, group, max_dim=3, degree=0)
            zero = ChainMap(
                src,
                dst,
                tuple(
                    Matrix.zero(dst.piece(k).dim, src.piece(k).dim)
                    for k in src.degrees()
                ),
            )
            cone = mapping_cone(zero)
            attached = supertrace_class(dst) - supertrace_class(src)
            assert supertrace_class(cone) == attached, gname
        # the cone of the identity is acyclic and all its invariants vanish
        cx = random_complex(rng, group, max_dim=3, summands=2)
        cone = mapping_cone(ChainMap.identity(cx))
        assert all(v.is_zero() for v in supertrace_class(cone).values)
        for chi in cohomology(cone):
            assert all(v.is_zero() for v in chi.values), gname
        chart = LinearChart(group, random_rep(rng, group, max_dim=3))
        deloc = delocalized_chern(chart, cone, 3)
        assert all(comp.is_zero() for comp in deloc.components), gname
    dt = time.perf_counter() - t0
    _verdict(6, "cone supertrace is target minus source; acyclic cones vanish", True, dt)


def test_groupoid_embeddings_factorizations_and_inertia():
    t0 = time.perf_counter()
    failures = []
    for gname, group, sub, emb in corpus_pairs():
        pt_sub = FiniteGroupoid.from_group(sub)
        pt_grp = FiniteGroupoid.from_group(group)
        functor = StrictFunctor(pt_sub, pt_grp, [0], list(emb.mapping))
        f = GeneralizedMorphism.from_functor(functor)
        if not classify_embedding(f.graph()).embedding:
            failures.append(("graph", gname, sub.size))
        first, second = factorize(f)
        if not classify_embedding(first).iso_spatial:
            failures.append(("first", gname, sub.size))
        if not classify_embedding(second).stabilizer_preserving:
            failures.append(("second", gname, sub.size))
        if not find_isomorphism(first.compose(second), f):
            failures.append(("roundtrip", gname, sub.size))
    # natural action of S3 on three points: two [pt / C2] inertia pieces
    s3 = FiniteGroup.symmetric(3)
    images = [list(perm_of_name(s3.name(g))) for g in range(s3.size)]
    parts = morita_decompose_inertia(s3, 3, images)
    assert len(parts) == 2
    for part in parts:
        assert part.equivalence.is_morita()
        assert len(part.point_models) == 1
        model = part.point_models[0]
        assert model.stabilizer.size == 2
        assert model.equivalence.is_morita()
    # stabilizer preservation survives passage to inertia
    c2 = FiniteGroup.cyclic(2)
    two = FiniteGroupoid.translation(c2, 2, [[0, 1], [0, 1]])
    four = FiniteGroupoid.translation(c2, 4, [[0, 1, 2, 3], [0, 1, 2, 3]])
    arr = [g * 4 + x for g in range(2) for x in range(2)]
    incl = GeneralizedMorphism.from_functor(StrictFunctor(two, four, [0, 1], arr))
    assert classify_embedding(incl).stabilizer_preserving
    assert classify_embedding(inertia_of_morphism(incl)).stabilizer_preserving
    dt = time.perf_counter() - t0
    ok = not failures and dt < 60.0
    _verdict(7, "graphs embed, factorizations round-trip, inertia splits", ok, dt, 60.0)
    assert not failures, failures[:5]
    assert dt < 60.0


def _general_suite():
    """Hand-built subgroup-pair scenarios with invariant sub-charts."""
    c2 = FiniteGroup.cyclic(2)
    c4 = FiniteGroup.cyclic(4)
    s3 = FiniteGroup.symmetric(3)
    out = []

    _, emb24 = subgroup_embedding(c4, [0, 2])
    w1 = Representation.cyclic_weight(c4, 1)
    line = EquivariantComplex.single(Representation.trivial(emb24.source))
    out.append(
        (
            "rotation line over C2 in C4",
            GeneralScenario(
                emb24,
                Representation.zero_dimensional(c4),
                w1,
                Matrix.zero(1, 0),
                line,
                4,
            ),
        )
    )

    # the same pair with the full chart invariant: nothing normal remains
    out.append(
        (
            "trivial quotient over C2 in C4",
            GeneralScenario(
                emb24,
                w1,
                w1,
                Matrix.identity(1),
                line,
                4,
            ),
        )
    )

    w13 = direct_sum(w1, Representation.cyclic_weight(c4, 3))
    out.append(
        (
            "two rotation lines over C2 in C4",
            GeneralScenario(
                emb24,
                Representation.zero_dimensional(c4),
                w13,
                Matrix.zero(2, 0),
                line,
                4,
            ),
        )
    )

    three = sorted({g for g in range(s3.size) if s3.order_of(g) in (1, 3)})
    sub3, emb3 = subgroup_embedding(s3, three)
    out.append(
        (
            "reflection plane over C3 in S3",
            GeneralScenario(
                emb3,
                Representation.zero_dimensional(s3),
                standard_rep(s3),
                Matrix.zero(2, 0),
                EquivariantComplex.single(Representation.trivial(sub3)),
                4,
            ),
        )
    )
    return out


def test_general_degree_zero_and_todd_pullback_suite():
    t0 = time.perf_counter()
    suite = _general_suite()
    for label, sc in suite:
        report0 = check_general_degree0(sc)
        assert report0.passed, (label, report0.first_failure)
        assert any(e.status == PASS for e in report0.entries), label
        reportt = check_td_pullback(sc)
        assert reportt.passed, (label, reportt.first_failure)
    # the rotation line pinned value: both routes give exactly 4 at h = -1
    _, sc = suite[0]
    report = check_general_degree0(sc)
    h_class = sc.emb.target.conjugacy().class_of[2]
    entry = next(e for e in report.entries if e.class_index == h_class)
    assert entry.status == PASS
    assert entry.lhs == "4" and entry.rhs == "4"
    dt = time.perf_counter() - t0
    _verdict(8, "degree-zero induction and Todd pullback suite (pinned value 4)", True, dt)


def test_delocalized_chern_is_the_character_and_restricts():
    rng = random.Random(0xACC9)
    t0 = time.perf_counter()
    for gname, group in corpus_groups().items():
        action = random_rep(rng, group, max_dim=4)
        chart = LinearChart(group, action)
        bundle = random_rep(rng, group, max_dim=4)
        cx = EquivariantComplex.single(bundle)
        deloc = delocalized_chern(chart, cx, 3)
        chi = character(bundle)
        comps = inertia_data(chart)
        assert len(deloc.components) == len(comps)
        for comp, series in zip(comps, deloc.components):
            assert series.constant_term == chi.values[comp.class_index], gname
            assert all(sum(e) == 0 for e in series.coeffs), gname
        for elems in subgroups(group):
            sub, emb = subgroup_embedding(group, list(elems))
            chart_h = LinearChart(sub, restrict(emb, action))
            cx_h = EquivariantComplex.single(restrict(emb, bundle))
            deloc_h = delocalized_chern(chart_h, cx_h, 3)
            # the same restriction, as supertraces of the complex
            assert check_functoriality(emb, cx).passed, (gname, sub.size)
            fusion = emb.fusion()
            for comp, series in zip(inertia_data(chart_h), deloc_h.components):
                fused = fusion.to_target[comp.class_index]
                assert (
                    series.constant_term
                    == deloc.components[fused].constant_term
                ), (gname, sub.size)
    dt = time.perf_counter() - t0
    _verdict(9, "ch of a bundle is its delocalized character and restricts along fusion", True, dt)


CORRUPTED = [
    ("rrg-iso", "corrupt_weight_one.json"),
    ("rrg-iso", "corrupt_weight_inverted.json"),
    ("rrg-general", "corrupt_inversion_direct.json"),
    ("rrg-zero-section", "corrupt_euler_omit.json"),
    ("rrg-iso", "corrupt_nonequivariant_diff.json"),
    ("groupoid-check", "corrupt_action.json"),
]


def test_corrupted_scenarios_fail_with_exit_one(capsys):
    t0 = time.perf_counter()
    assert len(CORRUPTED) >= 5
    codes = []
    for command, name in CORRUPTED:
        codes.append(cli.main([command, str(FIXTURES / name)]))
    capsys.readouterr()
    dt = time.perf_counter() - t0
    ok = all(code == 1 for code in codes)
    _verdict(10, "all corrupted scenario files fail with exit code 1", ok, dt)
    assert codes == [1] * len(CORRUPTED), codes
