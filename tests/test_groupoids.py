"""Groupoid calculus: bibundles, embeddings, graphs, inertia, Morita pieces."""

import re

import pytest

from orbichern.groups import FiniteGroup, subgroup_embedding
from orbichern.groupoids import (
    FiniteGroupoid,
    GeneralizedMorphism,
    StrictFunctor,
    classify_embedding,
    factorize,
    find_isomorphism,
    inertia,
    inertia_of_morphism,
    morita_decompose_inertia,
)

from test_reps import perm_of_name


def perm_images(group):
    return [list(perm_of_name(group.name(g))) for g in range(group.size)]


@pytest.fixture(scope="module")
def s3():
    return FiniteGroup.symmetric(3)


@pytest.fixture(scope="module")
def pt_s3(s3):
    return FiniteGroupoid.from_group(s3)


@pytest.fixture(scope="module")
def c2_in_s3(s3, pt_s3):
    sub, emb = subgroup_embedding(s3, [0, 2])
    pt = FiniteGroupoid.from_group(sub)
    functor = StrictFunctor(pt, pt_s3, [0], list(emb.mapping))
    return sub, emb, pt, GeneralizedMorphism.from_functor(functor)


def test_translation_groupoid_counts(s3):
    t = FiniteGroupoid.translation(s3, 3, perm_images(s3))
    assert t.num_objects == 3
    assert t.num_arrows == 18
    # three unit loops + one per transposition
    assert int((t.source == t.target).sum()) == 6
    fixed = [g * 3 + x for g, row in enumerate(perm_images(s3)) for x in range(3) if row[x] == x]
    assert inertia(t).loops == tuple(fixed)


def test_translation_rejects_non_action(s3):
    images = perm_images(s3)
    images[3] = images[0]  # breaks compatibility with multiplication
    with pytest.raises(ValueError, match="not an action: composition fails at g=") as err:
        FiniteGroupoid.translation(s3, 3, images)
    g, h, x = (int(v) for v in re.findall(r"g=(\d+), h=(\d+), point (\d+)", str(err.value))[0])
    split, joint = images[g][images[h][x]], images[s3.mul(g, h)][x]
    assert split != joint
    assert str(err.value).endswith("g.(h.x) = %d, (gh).x = %d" % (split, joint))
    with pytest.raises(ValueError, match="not an action: element 0 sends points 0 and 1 both to 0"):
        FiniteGroupoid.translation(s3, 3, [[0, 0, 1]] + [r for r in perm_images(s3)][1:])
    with pytest.raises(ValueError, match="not an action: element 1 sends point 2 to 3, which is not a point"):
        FiniteGroupoid.translation(s3, 3, [[0, 1, 2], [1, 0, 3]] + perm_images(s3)[2:])
    c2 = FiniteGroup.cyclic(2)
    with pytest.raises(ValueError, match="not an action: identity 0 sends point 0 to 1"):
        FiniteGroupoid.translation(c2, 2, [[1, 0], [0, 1]])


def test_axiom_validation_catches_tampering():
    q8 = FiniteGroup.quaternion()
    g = FiniteGroupoid.from_group(q8)
    assert g.num_objects == 1 and g.num_arrows == 8
    comp = dict(g.comp)
    comp[(1, 1)], comp[(2, 2)] = comp[(2, 2)], comp[(1, 1)]
    with pytest.raises(ValueError):
        FiniteGroupoid(1, g.source, g.target, comp, g.units, g.inverses)


def test_subgroup_point_inclusion_flags(c2_in_s3):
    _, _, _, f = c2_in_s3
    assert f.size == 6
    flags = classify_embedding(f)
    assert flags.embedding
    assert flags.iso_spatial
    assert not flags.stabilizer_preserving
    assert not f.is_morita()  # three left cosets over a single object


def test_pullback_comparison_counts(c2_in_s3):
    _, _, _, f = c2_in_s3
    comparison = classify_embedding(f).comparison
    assert comparison.gt_count == 6 * 2 * 6
    assert comparison.ht_count == 6 * 6 * 6
    assert comparison.is_injective()
    assert comparison.is_saturated()
    assert not comparison.is_bijective()


def trivial_pair():
    """C2 acting trivially on two points inside four points."""
    c2 = FiniteGroup.cyclic(2)
    g = FiniteGroupoid.translation(c2, 2, [[0, 1], [0, 1]])
    h = FiniteGroupoid.translation(c2, 4, [[0, 1, 2, 3], [0, 1, 2, 3]])
    arr = [gg * 4 + x for gg in range(2) for x in range(2)]
    functor = StrictFunctor(g, h, [0, 1], arr)
    return g, h, GeneralizedMorphism.from_functor(functor)


def test_classify_validates_an_unflagged_bibundle():
    _, _, f = trivial_pair()
    broken = GeneralizedMorphism(
        f.src,
        f.dst,
        f.rho,
        f.sigma,
        lambda a, z: (f.left.at(a, z) + 1) % f.size,
        f.right.at,
        check=False,
    )
    with pytest.raises(ValueError) as want:
        broken.validate()
    assert "left action breaks anchors" in str(want.value)
    with pytest.raises(ValueError, match="^%s$" % re.escape(str(want.value))):
        classify_embedding(broken)


def test_inclusion_of_invariant_points_not_iso_spatial():
    _, _, f = trivial_pair()
    flags = classify_embedding(f)
    assert flags.embedding
    assert not flags.iso_spatial  # misses the other two points
    assert flags.stabilizer_preserving


def test_identity_morphism_has_every_flag(pt_s3):
    f = GeneralizedMorphism.identity(pt_s3)
    flags = classify_embedding(f)
    assert flags.embedding and flags.iso_spatial and flags.stabilizer_preserving
    assert f.is_morita()


def test_free_quotient_is_morita():
    c2 = FiniteGroup.cyclic(2)
    h = FiniteGroupoid.translation(c2, 2, [[0, 1], [1, 0]])
    pt = FiniteGroupoid.from_group(FiniteGroup.cyclic(1))
    functor = StrictFunctor(pt, h, [0], [h.units[0]])
    f = GeneralizedMorphism.from_functor(functor)
    assert f.is_morita()


def test_compose_with_identity_is_isomorphic(c2_in_s3, pt_s3):
    _, _, pt2, f = c2_in_s3
    assert find_isomorphism(f.compose(GeneralizedMorphism.identity(pt_s3)), f)
    assert find_isomorphism(GeneralizedMorphism.identity(pt2).compose(f), f)


def test_compose_matches_composite_functor():
    s4 = FiniteGroup.symmetric(4)
    name = {s4.name(g): g for g in range(24)}
    v4 = sorted([name["(0, 1, 2, 3)"], name["(1, 0, 3, 2)"],
                 name["(2, 3, 0, 1)"], name["(3, 2, 1, 0)"]])
    subv, embv = subgroup_embedding(s4, v4)
    c2_elems = [g for g in range(subv.size) if subv.mul(g, g) == subv.identity][:2]
    subc, embc = subgroup_embedding(subv, sorted(set(c2_elems) | {subv.identity}))
    pt2 = FiniteGroupoid.from_group(subc)
    ptv = FiniteGroupoid.from_group(subv)
    pt24 = FiniteGroupoid.from_group(s4)
    f1 = StrictFunctor(pt2, ptv, [0], list(embc.mapping))
    f2 = StrictFunctor(ptv, pt24, [0], list(embv.mapping))
    lhs = GeneralizedMorphism.from_functor(f1).compose(
        GeneralizedMorphism.from_functor(f2)
    )
    rhs = GeneralizedMorphism.from_functor(f1.then(f2))
    assert lhs.size == rhs.size == 24
    assert find_isomorphism(lhs, rhs)


def test_graph_is_an_embedding(c2_in_s3):
    _, _, _, f = c2_in_s3
    gr = f.graph()
    assert gr.size == 2 * 6  # one point per (arrow upstairs, carrier point)
    assert classify_embedding(gr).embedding

    _, _, t = trivial_pair()
    gt = t.graph()
    flags = classify_embedding(gt)
    assert flags.embedding
    assert not flags.iso_spatial  # diagonal inside a 2 x 4 object set


def test_graph_then_projection_recovers_morphism(c2_in_s3, pt_s3):
    _, _, _, f = c2_in_s3
    gr = f.graph()
    prod = gr.dst
    h = pt_s3
    n_h_objects = h.num_objects
    n_h_arrows = h.num_arrows
    obj_map = [x % n_h_objects for x in range(prod.num_objects)]
    arr_map = [a % n_h_arrows for a in range(prod.num_arrows)]
    projection = StrictFunctor(prod, h, obj_map, arr_map)
    back = gr.compose(GeneralizedMorphism.from_functor(projection))
    assert find_isomorphism(back, f)


def test_factorize_splits_into_flagged_pieces(c2_in_s3):
    _, _, _, f = c2_in_s3
    first, second = factorize(f)
    assert classify_embedding(first).iso_spatial
    assert classify_embedding(second).stabilizer_preserving
    assert find_isomorphism(first.compose(second), f)

    _, _, t = trivial_pair()
    tf, ts = factorize(t)
    tsf = classify_embedding(ts)
    assert classify_embedding(tf).iso_spatial
    assert tsf.stabilizer_preserving and not tsf.iso_spatial
    assert find_isomorphism(tf.compose(ts), t)


def test_factorize_rejects_non_embedding():
    c2 = FiniteGroup.cyclic(2)
    pt2 = FiniteGroupoid.from_group(c2)
    pt1 = FiniteGroupoid.from_group(FiniteGroup.cyclic(1))
    collapse = StrictFunctor(pt2, pt1, [0], [0, 0])
    f = GeneralizedMorphism.from_functor(collapse)
    with pytest.raises(ValueError, match="embedding"):
        factorize(f)


def test_bibundle_validation_catches_tampering(c2_in_s3, pt_s3):
    _, _, pt2, f = c2_in_s3
    right = dict(f.right)
    keys = sorted(k for k in right if k[1] == 1)
    right[keys[0]], right[keys[1]] = right[keys[1]], right[keys[0]]
    with pytest.raises(ValueError):
        GeneralizedMorphism(pt2, pt_s3, f.rho, f.sigma, f.left, right)


def test_inertia_counts(s3):
    for group in (s3, FiniteGroup.quaternion()):
        ig = inertia(FiniteGroupoid.from_group(group))
        assert ig.groupoid.num_objects == group.size
        assert ig.groupoid.num_arrows == group.size ** 2
    it = inertia(FiniteGroupoid.translation(s3, 3, perm_images(s3)))
    assert it.groupoid.num_objects == 6
    assert it.groupoid.num_arrows == 36


def test_inertia_of_unit_groupoid_is_itself():
    c1 = FiniteGroup.cyclic(1)
    t = FiniteGroupoid.translation(c1, 4, [[0, 1, 2, 3]])
    ig = inertia(t)
    assert ig.groupoid.num_objects == t.num_objects
    assert ig.groupoid.num_arrows == t.num_arrows


def test_inertia_carries_base_data(pt_s3):
    ig = inertia(pt_s3)
    assert ig.beta.obj_map == tuple(0 for _ in range(6))
    base_at = pt_s3.comp.at
    for k, gamma in enumerate(ig.beta.arr_map):
        i, j = ig.groupoid.source[k], ig.groupoid.target[k]
        assert ig.arrow(i, gamma) == k
        conj = base_at(base_at(gamma, ig.loops[i]), pt_s3.inverses[gamma])
        assert ig.loops[j] == conj
    for i, loop in enumerate(ig.loops):
        assert ig.beta.arr_map[ig.tau[i]] == loop


def test_inertia_of_identity_is_identity_on_inertia():
    for group in (FiniteGroup.cyclic(3), FiniteGroup.symmetric(3)):
        pt = FiniteGroupoid.from_group(group)
        ig = inertia(pt)
        lifted = inertia_of_morphism(GeneralizedMorphism.identity(pt), ig, ig)
        assert find_isomorphism(lifted, GeneralizedMorphism.identity(ig.groupoid))


def test_inertia_morphism_realizes_class_fusion(s3, pt_s3, c2_in_s3):
    sub, emb, pt2, f = c2_in_s3
    iz = inertia_of_morphism(f)
    assert iz.size == sub.size * s3.size
    fusion = emb.fusion()
    ch = s3.conjugacy()
    for g in range(sub.size):
        paired = {iz.sigma[z] for z in range(iz.size) if iz.rho[z] == g}
        target_class = fusion.to_target[sub.conjugacy().class_of[g]]
        assert paired == {x for x in range(s3.size) if ch.class_of[x] == target_class}


def test_inertia_preserves_stabilizer_flag():
    _, _, f = trivial_pair()
    assert classify_embedding(f).stabilizer_preserving
    lifted = inertia_of_morphism(f)
    assert classify_embedding(lifted).stabilizer_preserving


def test_inertia_does_not_preserve_iso_spatial(c2_in_s3):
    _, _, _, f = c2_in_s3
    assert classify_embedding(f).iso_spatial
    lifted = inertia_of_morphism(f)
    flags = classify_embedding(lifted)
    assert flags.embedding
    assert not flags.iso_spatial  # no loop lands on a 3-cycle


def test_inertia_respects_composition(s3):
    c3_elems = [g for g in range(6) if s3.name(g) in ("(0, 1, 2)", "(1, 2, 0)", "(2, 0, 1)")]
    subc, embc = subgroup_embedding(s3, c3_elems)
    pt1 = FiniteGroupoid.from_group(FiniteGroup.cyclic(1))
    pt3 = FiniteGroupoid.from_group(subc)
    pt6 = FiniteGroupoid.from_group(s3)
    f1 = GeneralizedMorphism.from_functor(
        StrictFunctor(pt1, pt3, [0], [subc.identity])
    )
    f2 = GeneralizedMorphism.from_functor(
        StrictFunctor(pt3, pt6, [0], list(embc.mapping))
    )
    i1, i3, i6 = inertia(pt1), inertia(pt3), inertia(pt6)
    lhs = inertia_of_morphism(f1.compose(f2), i1, i6)
    rhs = inertia_of_morphism(f1, i1, i3).compose(inertia_of_morphism(f2, i3, i6))
    assert find_isomorphism(lhs, rhs)


def test_non_conjugate_inclusions_are_not_isomorphic():
    d4 = FiniteGroup.dihedral(4)
    center = [g for g in range(8)
              if all(d4.mul(g, x) == d4.mul(x, g) for x in range(8))]
    central = next(g for g in center if g != d4.identity and d4.mul(g, g) == d4.identity)
    reflection = next(
        g for g in range(8)
        if d4.mul(g, g) == d4.identity and g != d4.identity and g not in center
    )
    c2 = FiniteGroup.cyclic(2)
    pt2 = FiniteGroupoid.from_group(c2)
    ptd = FiniteGroupoid.from_group(d4)
    fa = GeneralizedMorphism.from_functor(
        StrictFunctor(pt2, ptd, [0], [d4.identity, central])
    )
    fb = GeneralizedMorphism.from_functor(
        StrictFunctor(pt2, ptd, [0], [d4.identity, reflection])
    )
    assert find_isomorphism(fa, fb) is None
    assert find_isomorphism(fa, fa)


def test_morita_decomposition_of_natural_action(s3):
    parts = morita_decompose_inertia(s3, 3, perm_images(s3))
    assert len(parts) == 2  # three-cycles fix nothing
    for part in parts:
        assert part.equivalence.is_morita()
        assert len(part.point_models) == 1
        model = part.point_models[0]
        assert model.stabilizer.size == 2
        assert model.equivalence.is_morita()
    assert parts[0].model_group.size == 6 and len(parts[0].loop_objects) == 3
    assert parts[1].model_group.size == 2 and len(parts[1].loop_objects) == 3


def test_morita_decomposition_of_point(s3):
    parts = morita_decompose_inertia(s3, 1, [[0]] * 6)
    assert [p.model_group.size for p in parts] == [6, 2, 3]
    for part in parts:
        assert part.equivalence.is_morita()
        assert part.point_models[0].stabilizer.size == part.model_group.size


def test_morita_decomposition_of_free_action():
    c2 = FiniteGroup.cyclic(2)
    parts = morita_decompose_inertia(c2, 2, [[0, 1], [1, 0]])
    assert len(parts) == 1
    part = parts[0]
    assert part.equivalence.is_morita()
    assert len(part.point_models) == 1
    assert part.point_models[0].stabilizer.size == 1


# -- flat tables against their definitions ---------------------------------------


def group_comp(group):
    return {(a, b): group.mul(a, b) for a in range(group.size) for b in range(group.size)}


def translation_comp(group, images):
    p = len(images[0])
    return {
        (g2 * p + images[g1][x], g1 * p + x): group.mul(g2, g1) * p + x
        for g2 in range(group.size)
        for g1 in range(group.size)
        for x in range(p)
    }


def product_comp(comp_a, comp_b, arrows_b):
    return {
        (p1 * arrows_b + q1, p2 * arrows_b + q2): c1 * arrows_b + c2
        for (p1, p2), c1 in comp_a.items()
        for (q1, q2), c2 in comp_b.items()
    }


def inertia_comp(base, comp):
    """Inertia arrows (loop i, gamma), numbered loop by loop and gamma by
    gamma; (delta at loop j) o (gamma from loop i to j) = (i, delta o gamma)."""
    m = base.num_arrows
    loops = [a for a in range(m) if base.source[a] == base.target[a]]
    arrows = [(i, gamma) for i, loop in enumerate(loops)
              for gamma in range(m) if base.source[gamma] == base.source[loop]]
    index = {arrow: k for k, arrow in enumerate(arrows)}
    lands = [loops.index(comp[(comp[(gamma, loops[i])], base.inverses[gamma])])
             for i, gamma in arrows]
    return loops, {
        (k2, k1): index[(i1, comp[(delta, gamma)])]
        for k2, (i2, delta) in enumerate(arrows)
        for k1, (i1, gamma) in enumerate(arrows)
        if lands[k1] == i2
    }


def definition_case(name):
    s3 = FiniteGroup.symmetric(3)
    if name == "S3":
        return FiniteGroupoid.from_group(s3), group_comp(s3)
    if name == "Q8":
        q8 = FiniteGroup.quaternion()
        return FiniteGroupoid.from_group(q8), group_comp(q8)
    images = perm_images(s3)
    return FiniteGroupoid.translation(s3, 3, images), translation_comp(s3, images)


@pytest.mark.parametrize("name", ["S3", "Q8", "S3 on 3 points"])
def test_constructed_tables_match_definitions(name):
    base, comp = definition_case(name)
    assert dict(base.comp) == comp
    prod = FiniteGroupoid.product(base, base)
    assert dict(prod.comp) == product_comp(comp, comp, base.num_arrows)
    objects = sorted({0, base.num_objects - 1})
    kept = [a for a in range(base.num_arrows)
            if base.source[a] in objects and base.target[a] in objects]
    sub, incl = base.full_subgroupoid(objects)
    assert list(incl.arr_map) == kept
    index = {a: i for i, a in enumerate(kept)}
    assert dict(sub.comp) == {
        (index[a], index[b]): index[c]
        for (a, b), c in comp.items()
        if a in index and b in index
    }
    ig = inertia(base)
    loops, expected = inertia_comp(base, comp)
    assert list(ig.loops) == loops
    assert dict(ig.groupoid.comp) == expected


def test_sampled_associativity_catches_swapped_rows():
    from orbichern.groupoids import _TRIPLES_FULL

    pt = FiniteGroupoid.from_group(FiniteGroup.symmetric(4))
    prod = FiniteGroupoid.product(pt, pt)
    assert prod.num_objects == 1 and prod.num_arrows ** 3 > _TRIPLES_FULL
    comp = dict(prod.comp)
    unit = prod.units[0]
    b1, b2 = 1, 2
    # rows b1 and b2 swap everywhere the unit and inverse laws do not look
    skip = {unit, prod.inverses[b1], prod.inverses[b2]}
    for a in range(prod.num_arrows):
        if a not in skip:
            comp[(a, b1)], comp[(a, b2)] = comp[(a, b2)], comp[(a, b1)]
    with pytest.raises(ValueError, match="composition is not associative"):
        FiniteGroupoid(1, prod.source, prod.target, comp, prod.units, prod.inverses)


def test_sampled_action_checks_catch_swapped_rows():
    from orbichern.groupoids import _TRIPLES_FULL

    pt = FiniteGroupoid.from_group(FiniteGroup.symmetric(4))
    gr = GeneralizedMorphism.identity(pt).graph()
    prod = gr.dst
    assert gr.size == 576 and prod.num_objects == 1
    assert gr.size * len(prod.comp) > _TRIPLES_FULL
    right = dict(gr.right)
    unit = prod.units[0]
    for b in range(prod.num_arrows):
        if b != unit:
            right[(0, b)], right[(1, b)] = right[(1, b)], right[(0, b)]
    with pytest.raises(ValueError, match="right action is not associative"):
        GeneralizedMorphism(gr.src, prod, gr.rho, gr.sigma, gr.left, right)


# -- non-composable keys are named -----------------------------------------------


def test_composition_on_non_composable_pairs_names_the_first():
    s3 = FiniteGroup.symmetric(3)
    t = FiniteGroupoid.translation(s3, 3, perm_images(s3))
    comp = dict(t.comp)
    strays = sorted((a, b) for a in range(t.num_arrows) for b in range(t.num_arrows)
                    if t.source[a] != t.target[b])[-2:]
    for key in reversed(strays):  # the least is named, not the first inserted
        comp[key] = 0
    with pytest.raises(ValueError, match=re.escape(
        "composition defined on 2 non-composable pairs, the first (%d, %d)" % strays[0]
    )):
        FiniteGroupoid(3, t.source, t.target, comp, t.units, t.inverses)


def test_missing_composite_is_named_without_strays():
    s3 = FiniteGroup.symmetric(3)
    g = FiniteGroupoid.from_group(s3)
    comp = dict(g.comp)
    del comp[(4, 2)]
    with pytest.raises(ValueError, match=re.escape("missing composite for composable pair (4, 2)")):
        FiniteGroupoid(1, g.source, g.target, comp, g.units, g.inverses)


def test_actions_on_non_composable_pairs_name_the_first():
    _, _, f = trivial_pair()
    g, h = f.src, f.dst
    left = dict(f.left)
    left_strays = sorted((a, z) for a in range(g.num_arrows) for z in range(f.size)
                         if g.source[a] != f.rho[z])[:3]
    for key in reversed(left_strays):
        left[key] = 0
    with pytest.raises(ValueError, match=re.escape(
        "left action defined on 3 non-composable pairs, the first (%d, %d)" % left_strays[0]
    )):
        GeneralizedMorphism(g, h, f.rho, f.sigma, left, f.right)
    right = dict(f.right)
    right_strays = sorted((z, b) for z in range(f.size) for b in range(h.num_arrows)
                          if h.target[b] != f.sigma[z])[1:3]
    for key in reversed(right_strays):
        right[key] = 0
    with pytest.raises(ValueError, match=re.escape(
        "right action defined on 2 non-composable pairs, the first (%d, %d)" % right_strays[0]
    )):
        GeneralizedMorphism(g, h, f.rho, f.sigma, f.left, right)


# -- tables built on first read against brute force ---------------------------


def comma_tables(functor):
    """Carrier, left and right of the comma bibundle, from dict tables."""
    g, h = functor.src, functor.dst
    comp = dict(h.comp)
    points = [(x, b) for x in range(g.num_objects) for b in range(h.num_arrows)
              if h.target[b] == functor.obj_map[x]]
    index = {p: i for i, p in enumerate(points)}
    left = {(a, z): index[(g.target[a], comp[(functor.arr_map[a], b)])]
            for z, (x, b) in enumerate(points)
            for a in range(g.num_arrows) if g.source[a] == x}
    right = {(z, b2): index[(x, comp[(b, b2)])]
             for z, (x, b) in enumerate(points)
             for b2 in range(h.num_arrows) if h.target[b2] == h.source[b]}
    return points, left, right


def graph_tables(f):
    g, h = f.src, f.dst
    comp, fl, fr = dict(g.comp), dict(f.left), dict(f.right)
    points = [(a, z) for a in range(g.num_arrows) for z in range(f.size)
              if f.rho[z] == g.source[a]]
    index = {p: i for i, p in enumerate(points)}
    mh = h.num_arrows
    left = {(a2, i): index[(comp[(a2, a)], z)]
            for i, (a, z) in enumerate(points)
            for a2 in range(g.num_arrows) if g.source[a2] == g.target[a]}
    right = {(i, a2 * mh + b): index[(comp[(a, a2)], fr[(fl[(g.inverses[a2], z)], b)])]
             for i, (a, z) in enumerate(points)
             for a2 in range(g.num_arrows) if g.target[a2] == g.source[a]
             for b in range(mh) if h.target[b] == f.sigma[z]}
    return points, left, right


def compose_tables(f1, f2):
    pairs = [(z, w) for z in range(f1.size) for w in range(f2.size)
             if f1.sigma[z] == f2.rho[w]]
    index = {p: i for i, p in enumerate(pairs)}
    r1, l2 = dict(f1.right), dict(f2.left)
    cls = list(range(len(pairs)))

    def find(i):
        while cls[i] != i:
            i = cls[i]
        return i

    for i, (z, w) in enumerate(pairs):
        for b in range(f1.dst.num_arrows):
            if f1.dst.target[b] == f1.sigma[z]:
                j = index[(r1[(z, b)], l2[(f1.dst.inverses[b], w)])]
                lo, hi = sorted((find(i), find(j)))
                cls[hi] = lo
    roots = sorted({find(i) for i in range(len(pairs))})
    number = {r: k for k, r in enumerate(roots)}
    orbit = [number[find(i)] for i in range(len(pairs))]
    reps = [pairs[r] for r in roots]
    l1, r2 = dict(f1.left), dict(f2.right)
    left = {(a, c): orbit[index[(l1[(a, z)], w)]]
            for c, (z, w) in enumerate(reps)
            for a in range(f1.src.num_arrows) if f1.src.source[a] == f1.rho[z]}
    right = {(c, b): orbit[index[(z, r2[(w, b)])]]
             for c, (z, w) in enumerate(reps)
             for b in range(f2.dst.num_arrows) if f2.dst.target[b] == f2.sigma[w]}
    return reps, left, right


def arrow_triples(ig):
    """(loop i, loop j, base arrow gamma) per arrow of an inertia groupoid."""
    return zip(ig.groupoid.source.tolist(), ig.groupoid.target.tolist(), ig.beta.arr_map)


def inertia_tables(f, isrc, idst):
    g = f.src
    fl, fr = dict(f.left), dict(f.right)
    points = [(z, i) for z in range(f.size) for i, loop in enumerate(isrc.loops)
              if g.source[loop] == f.rho[z]]
    index = {p: c for c, p in enumerate(points)}
    down = []
    for z, i in points:
        moved = fl[(isrc.loops[i], z)]
        down.append(next(j for j, loop in enumerate(idst.loops)
                         if f.dst.source[loop] == f.sigma[z] and fr[(z, loop)] == moved))
    left = {(k, c): index[(fl[(gamma, z)], j)]
            for c, (z, i) in enumerate(points)
            for k, (i0, j, gamma) in enumerate(arrow_triples(isrc)) if i0 == i}
    right = {(c, k): index[(fr[(z, eta)], i)]
             for c, (z, i) in enumerate(points)
             for k, (_, j, eta) in enumerate(arrow_triples(idst)) if j == down[c]}
    return points, down, left, right


def corpus():
    """Validated bibundles of the tests above: C2 in S3, trivial C2 points,
    the identity of S3 on 3 points, and C3 in S3."""
    s3 = FiniteGroup.symmetric(3)
    pt6 = FiniteGroupoid.from_group(s3)
    c2, emb2 = subgroup_embedding(s3, [0, 2])
    c3_elems = [g for g in range(6) if s3.name(g) in ("(0, 1, 2)", "(1, 2, 0)", "(2, 0, 1)")]
    c3, emb3 = subgroup_embedding(s3, c3_elems)
    functors = [
        StrictFunctor(FiniteGroupoid.from_group(c2), pt6, [0], list(emb2.mapping)),
        StrictFunctor(FiniteGroupoid.from_group(c3), pt6, [0], list(emb3.mapping)),
        StrictFunctor.identity(FiniteGroupoid.translation(s3, 3, perm_images(s3))),
    ]
    _, _, trivial = trivial_pair()
    return functors, [GeneralizedMorphism.from_functor(fn) for fn in functors] + [trivial]


def assert_bibundle(f, rho, sigma, left, right):
    assert f.validate()
    assert f.rho.tolist() == list(rho) and f.sigma.tolist() == list(sigma)
    assert dict(f.left) == left
    assert dict(f.right) == right


def test_tables_read_after_construction_match_brute_force():
    functors, morphisms = corpus()
    for functor in functors:
        f = GeneralizedMorphism.from_functor(functor)
        points, left, right = comma_tables(functor)
        assert_bibundle(f, [x for x, _ in points],
                        [functor.dst.source[b] for _, b in points], left, right)
    for f in morphisms:
        g, h = f.src, f.dst
        prod = FiniteGroupoid.product(g, h)
        assert prod.validate()
        assert dict(prod.comp) == product_comp(dict(g.comp), dict(h.comp), h.num_arrows)
        gr = f.graph()
        assert gr.dst.validate()
        assert dict(gr.dst.comp) == dict(prod.comp)
        points, left, right = graph_tables(f)
        assert_bibundle(gr, [g.target[a] for a, _ in points],
                        [g.source[a] * h.num_objects + f.sigma[z] for a, z in points],
                        left, right)
        ident = GeneralizedMorphism.identity(h)
        for f1, f2 in ((f, ident), (GeneralizedMorphism.identity(g), f)):
            reps, left, right = compose_tables(f1, f2)
            assert_bibundle(f1.compose(f2), [f1.rho[z] for z, _ in reps],
                            [f2.sigma[w] for _, w in reps], left, right)
        objects = sorted(set(f.sigma.tolist()))
        piece, incl = h.full_subgroupoid(objects)
        assert piece.validate()
        index = {a: i for i, a in enumerate(incl.arr_map)}
        assert dict(piece.comp) == {(index[a], index[b]): index[c]
                                    for (a, b), c in dict(h.comp).items()
                                    if a in index and b in index}
        first, second = factorize(f)
        obj_index = {x: i for i, x in enumerate(objects)}
        assert_bibundle(first, f.rho.tolist(), [obj_index[y] for y in f.sigma.tolist()],
                        dict(f.left),
                        {(z, index[a]): w for (z, a), w in dict(f.right).items() if a in index})
        points, left, right = comma_tables(incl)
        assert_bibundle(second, [x for x, _ in points],
                        [h.source[b] for _, b in points], left, right)
        isrc, idst = inertia(g), inertia(h)
        lam = inertia_of_morphism(f, isrc, idst)
        assert isrc.groupoid.validate() and idst.groupoid.validate()
        points, down, left, right = inertia_tables(f, isrc, idst)
        assert_bibundle(lam, [i for _, i in points], down, left, right)


def test_rebinding_inputs_changes_no_deferred_table():
    s3 = FiniteGroup.symmetric(3)
    functors, _ = corpus()
    want_prod = FiniteGroupoid.product(functors[0].src, functors[0].dst)
    want_graph = GeneralizedMorphism.from_functor(functors[0]).graph()
    want = (dict(want_prod.comp), dict(want_graph.left), dict(want_graph.right),
            dict(want_graph.dst.comp))
    # fresh inputs of the same shape, so the results below are still unread
    sub, emb = subgroup_embedding(s3, [0, 2])
    g, h = FiniteGroupoid.from_group(sub), FiniteGroupoid.from_group(s3)
    f = GeneralizedMorphism.from_functor(StrictFunctor(g, h, [0], list(emb.mapping)))
    prod = FiniteGroupoid.product(g, h)
    gr = f.graph()
    other = GeneralizedMorphism.identity(FiniteGroupoid.from_group(FiniteGroup.cyclic(6)))
    f.left, f.right = other.left, other.right
    g.comp, h.comp = other.dst.comp, other.dst.comp
    assert (dict(prod.comp), dict(gr.left), dict(gr.right), dict(gr.dst.comp)) == want
