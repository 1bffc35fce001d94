import tracemalloc

import pytest

from orbichern.groups import (
    MAX_ORDER,
    FiniteGroup,
    GroupEmbedding,
    subgroup_embedding,
    subgroups,
)


def s3():
    return FiniteGroup.symmetric(3)


def commuting(g, a):
    """The elements of ``g`` that commute with ``a``, by the table."""
    return [x for x in g.elements() if g.mul(x, a) == g.mul(a, x)]


def abelian(g):
    return all(commuting(g, a) == list(g.elements()) for a in g.elements())


def test_symmetric_group_basics():
    g = s3()
    assert g.size == 6
    assert g.identity == 0
    for a in g.elements():
        assert g.mul(a, g.inv(a)) == g.identity
    assert not abelian(g)
    assert abelian(FiniteGroup.cyclic(5))


def test_s3_conjugacy_classes():
    # S3: sizes 1, 3, 2 with centralizer orders 6, 2, 3.
    cd = s3().conjugacy()
    assert cd.num_classes() == 3
    assert cd.sizes == (1, 3, 2)
    assert tuple(len(z) for z in cd.centralizers) == (6, 2, 3)
    for c in range(3):
        assert cd.sizes[c] * len(cd.centralizers[c]) == 6
    # reps are the smallest member of each class
    for c, r in enumerate(cd.reps):
        members = [x for x in range(6) if cd.class_of[x] == c]
        assert min(members) == r


def test_s4_class_data():
    cd = FiniteGroup.symmetric(4).conjugacy()
    assert sorted(cd.sizes) == [1, 3, 6, 6, 8]
    assert sum(cd.sizes) == 24


def test_quaternion_and_dihedral():
    q8 = FiniteGroup.quaternion()
    assert q8.size == 8
    assert q8.conjugacy().num_classes() == 5
    assert sorted(q8.conjugacy().sizes) == [1, 1, 2, 2, 2]
    d4 = FiniteGroup.dihedral(4)
    assert d4.size == 8
    assert d4.conjugacy().num_classes() == 5


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: FiniteGroup.dihedral(2), "dihedral group needs n >= 3"),
        (lambda: FiniteGroup.dihedral(1), "dihedral group needs n >= 3"),
        (lambda: FiniteGroup.dihedral(0), "dihedral group needs n >= 3"),
        (lambda: FiniteGroup.symmetric(-3), "symmetric group needs n >= 0"),
    ],
    ids=["D2", "D1", "D0", "S-3"],
)
def test_small_dihedral_and_negative_symmetric_are_refused(build, message):
    """The 2-gon's rotation and reflection generate only C2, not the Klein
    four-group, so below n = 3 a 'dihedral' group would have the wrong
    order; S_n for n < 0 is no group at all."""
    with pytest.raises(ValueError, match="^%s$" % message):
        build()
    assert FiniteGroup.dihedral(3).size == 6
    assert FiniteGroup.symmetric(0).size == 1


def test_direct_product():
    g = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))
    assert g.size == 8
    assert abelian(g)
    assert g.conjugacy().num_classes() == 8
    assert sorted(g.order_of(a) for a in g.elements()) == [1, 2, 2, 2, 4, 4, 4, 4]


def test_bad_tables_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 0], [1, 1]])
    # latin square but not associative (and no consistent two-sided structure)
    with pytest.raises(ValueError):
        FiniteGroup(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        )


def test_embedding_validation():
    g = s3()
    c2, emb = subgroup_embedding(g, [0, sorted(x for x in g.elements() if g.order_of(x) == 2)[0]])
    assert c2.size == 2
    assert emb.index == 3
    with pytest.raises(ValueError):
        GroupEmbedding(c2, g, [0, 0])


def test_coset_reps_partition():
    g = s3()
    transposition = min(x for x in g.elements() if g.order_of(x) == 2)
    _, emb = subgroup_embedding(g, [0, transposition])
    reps, coset_of = emb.cosets()
    assert len(reps) == 3
    assert reps[0] == 0
    seen = set()
    for r in reps:
        coset = {g.mul(r, m) for m in emb.mapping}
        assert not coset & seen
        seen |= coset
        assert min(coset) == r
    assert seen == set(range(6))


def test_fusion_s3():
    g = s3()
    transposition = min(x for x in g.elements() if g.order_of(x) == 2)
    _, emb = subgroup_embedding(g, [0, transposition])
    fus = emb.fusion()
    # identity class -> identity class; the involution -> transposition class
    assert fus.to_target[0] == 0
    assert fus.to_target[1] == g.conjugacy().class_of[transposition]
    assert fus.fibers[g.conjugacy().class_of[transposition]] == (1,)


def test_subgroup_counts():
    assert len(subgroups(s3())) == 6
    assert len(subgroups(FiniteGroup.symmetric(4))) == 30
    assert len(subgroups(FiniteGroup.dihedral(4))) == 10
    assert len(subgroups(FiniteGroup.quaternion())) == 6
    assert (
        len(subgroups(FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))))
        == 8
    )


def test_subgroups_are_closed_and_embed():
    g = FiniteGroup.dihedral(4)
    for elems in subgroups(g):
        sub, emb = subgroup_embedding(g, elems)
        assert sub.size == len(elems)
        assert g.size % sub.size == 0
        for a in range(sub.size):
            for b in range(sub.size):
                assert emb.mapping[sub.mul(a, b)] == g.mul(emb.mapping[a], emb.mapping[b])


def test_centralizer_function():
    g = s3()
    cd = g.conjugacy()
    assert cd.centralizers[cd.class_of[g.identity]] == tuple(range(6))
    t = min(x for x in g.elements() if g.order_of(x) == 2)
    assert len(cd.centralizers[cd.class_of[t]]) == 2
    for group in (g, FiniteGroup.symmetric(4), FiniteGroup.quaternion()):
        cd = group.conjugacy()
        for c, r in enumerate(cd.reps):
            assert cd.centralizers[c] == tuple(commuting(group, r))


def test_library_groups_stop_at_the_order_cap():
    assert MAX_ORDER == 48
    assert FiniteGroup.cyclic(48).size == 48
    with pytest.raises(ValueError, match="^group order must be between 1 and 48$"):
        FiniteGroup.cyclic(49)
    with pytest.raises(ValueError, match="^closure exceeds the order cap$"):
        FiniteGroup.dihedral(25)


@pytest.mark.parametrize("name", ["cyclic", "symmetric", "direct_product", "from_mult"])
def test_constructors_refuse_an_order_past_the_cap_before_any_table(name):
    """Even one order past the cap, a table costs tens of kilobytes; the
    refusal costs about one, because the order is checked before anything
    is enumerated."""
    c7 = FiniteGroup.cyclic(7)
    build = {
        "cyclic": lambda: FiniteGroup.cyclic(49),
        "symmetric": lambda: FiniteGroup.symmetric(5),
        "direct_product": lambda: FiniteGroup.direct_product(c7, c7),
        "from_mult": lambda: FiniteGroup.from_mult(range(49), lambda x, y: (x + y) % 49),
    }[name]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^group order must be between 1 and 48$"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024, peak


def test_landings_match_a_brute_force_walk():
    """`GroupEmbedding.landings` against a walk through the group's own
    mul and inv, on every subgroup pair of S4, D4 and Q8."""
    for group in (FiniteGroup.symmetric(4), FiniteGroup.dihedral(4), FiniteGroup.quaternion()):
        for elems in subgroups(group):
            sub, emb = subgroup_embedding(group, list(elems))
            cg = sub.conjugacy()
            want = []
            for h in group.conjugacy().reps:
                counts = [0] * cg.num_classes()
                for x in group.elements():
                    y = group.mul(group.mul(group.inv(x), h), x)
                    if y in emb.mapping:
                        counts[cg.class_of[emb.mapping.index(y)]] += 1
                want.append(tuple(counts))
            assert emb.landings() == tuple(want), (elems,)
            assert emb.landings() is emb.landings()
