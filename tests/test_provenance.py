"""Validation by provenance: trusted constructors flag what they build.

An object is flagged (``validated``) when a ``check=True`` construction
passed, or when a trusted constructor built it from inputs that are all
flagged.  The audit below runs the full ``validate()`` on every flagged
output over S3, Q8, S4 and their subgroup pairs, so an unsound trusted
constructor fails here.  The propagation cases show that an unflagged
input gives an unflagged output that is still checked where it is
consumed, and the counting cases that consumers skip flagged objects
while an explicit ``validate()`` always runs.
"""

import itertools
import re

import numpy as np
import pytest

from orbichern import rrg
from orbichern.exactnum import Cyclotomic
from orbichern.groups import FiniteGroup, subgroup_embedding, subgroups
from orbichern.linalg import Matrix
from orbichern.reps import (
    Representation,
    direct_sum,
    dual,
    exterior_power,
    induce,
    restrict,
    tensor,
)
from orbichern.complexes import ChainMap, EquivariantComplex, mapping_cone, shift
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

from randgen import coset_action
from test_reps import perm_of_name

GROUPS = ("S3", "Q8", "S4")
# induced representations stay small enough to validate in full
MAX_INDEX = 4


def make_group(name):
    return FiniteGroup.quaternion() if name == "Q8" else FiniteGroup.symmetric(int(name[1]))


def action(group):
    """A faithful permutation action: the natural one for S_n, the
    regular one for Q8 (its only faithful permutation action of small
    degree)."""
    if group.names is not None and group.name(0).startswith("("):
        return [list(perm_of_name(group.name(g))) for g in group.elements()]
    return coset_action(group, [group.identity])


def sign(group, images):
    """The sign of a permutation action, a checked one-dimensional rep."""
    values = []
    for img in images:
        seen, parity = set(), 0
        for x in range(len(img)):
            y, length = x, 0
            while y not in seen:
                seen.add(y)
                y, length = img[y], length + 1
            parity += max(length - 1, 0)
        values.append(Cyclotomic.from_rational(-1 if parity % 2 else 1))
    return Representation.one_dimensional(group, values)


def audited(obj):
    """``obj`` after asserting that it is flagged and passes in full."""
    assert obj.validated, obj
    assert obj.validate() is True
    return obj


def pairs(group):
    for elems in subgroups(group):
        yield subgroup_embedding(group, elems)


@pytest.mark.parametrize("name", GROUPS)
def test_trusted_representation_constructors(name):
    group = make_group(name)
    images = action(group)
    perm = Representation.permutation(group, images)
    sgn = sign(group, images)
    assert perm.validated and sgn.validated
    audited(Representation.trivial(group))
    audited(Representation.trivial(group, 2))
    audited(Representation.zero_dimensional(group))
    if group.size <= 8:
        audited(Representation.regular(group))
    audited(direct_sum(perm, sgn))
    audited(tensor(perm, sgn))
    audited(dual(perm))
    for k in (0, 2):
        audited(exterior_power(perm, k))
    for sub, emb in pairs(group):
        res = audited(restrict(emb, perm))
        if emb.index <= MAX_INDEX:
            audited(induce(emb, Representation.trivial(sub)))
            audited(induce(emb, restrict(emb, sgn)))
            if res.dim * emb.index <= 2 * MAX_INDEX:
                audited(induce(emb, res))


def two_term(group):
    """A checked complex: the coordinate sum of a permutation action onto
    the trivial line."""
    perm = Representation.permutation(group, action(group))
    ones = Matrix.from_rows([[1] * perm.dim])
    return EquivariantComplex(group, 0, (perm, Representation.trivial(group)), (ones,))


@pytest.mark.parametrize("name", GROUPS)
def test_trusted_complex_constructors(name):
    group = make_group(name)
    c = two_term(group)
    assert c.validated
    audited(EquivariantComplex.single(c.pieces[0], 1))
    audited(shift(c))
    ident = audited(ChainMap.identity(c))
    cone = audited(mapping_cone(ident))
    audited(mapping_cone(audited(ChainMap.identity(cone))))
    # a cone of a checked chain map that is not the identity
    line = EquivariantComplex(
        group, 0, (Representation.trivial(group),) * 2, (Matrix.zero(1, 1),)
    )
    phi = ChainMap(line, line, (Matrix.identity(1), Matrix.from_rows([[2]])))
    assert phi.validated
    audited(mapping_cone(phi))


def regular(group):
    """The regular action of ``group`` on itself, ``g . x = g x``."""
    return [list(row) for row in group.table]


def groupoid_outputs(group, sub, emb):
    """Every trusted groupoid constructor once, on the pair pt/H -> pt/G."""
    pt_sub = FiniteGroupoid.from_group(sub)
    pt_grp = FiniteGroupoid.from_group(group)
    functor = StrictFunctor(pt_sub, pt_grp, [0], list(emb.mapping))
    assert functor.validated
    out = [pt_sub, pt_grp, FiniteGroupoid.product(pt_sub, pt_grp)]
    for g in (sub, group):
        out.append(FiniteGroupoid.translation(g, g.size, regular(g)))
    out.append(StrictFunctor.identity(pt_grp))
    out.append(functor.then(out[-1]))
    bibundle = GeneralizedMorphism.from_functor(functor)
    first, second = factorize(bibundle)
    out += [bibundle, bibundle.graph(), first, second, first.compose(second)]
    out.append(GeneralizedMorphism.identity(pt_sub).compose(bibundle))
    isrc, idst = inertia(pt_sub), inertia(pt_grp)
    out += [isrc.groupoid, isrc.beta, idst.groupoid, idst.beta]
    out.append(inertia_of_morphism(bibundle, isrc, idst))
    out.append(inertia_of_morphism(bibundle))
    base = FiniteGroupoid.translation(
        group, group.size // sub.size, coset_action(group, emb.mapping)
    )
    piece, incl = base.full_subgroupoid([0, base.num_objects - 1])
    out += [base, piece, incl, inertia(base).groupoid, inertia(base).beta]
    return out


@pytest.mark.parametrize("name", GROUPS)
def test_trusted_groupoid_constructors(name):
    group = make_group(name)
    for sub, emb in pairs(group):
        for obj in groupoid_outputs(group, sub, emb):
            audited(obj)


def single_entry_mutants(images):
    """``images`` with one entry replaced by another point, or by the one
    index past the last point."""
    p = len(images[0])
    for g, row in enumerate(images):
        for x, y in enumerate(row):
            for z in range(p + 1):
                if z != y:
                    mutant = [list(r) for r in images]
                    mutant[g][x] = z
                    yield mutant


def row_swaps(images):
    """``images`` with two entries of one row exchanged: every row stays a
    permutation, so these mutants reach the identity and composition
    checks."""
    for g, row in enumerate(images):
        for x in range(len(row)):
            for y in range(x + 1, len(row)):
                mutant = [list(r) for r in images]
                mutant[g][x], mutant[g][y] = row[y], row[x]
                yield mutant


@pytest.mark.parametrize("name", ("S3", "Q8"))
def test_translation_refuses_or_builds_a_valid_groupoid(name):
    """Every single-entry mutant and every row swap of the natural and
    regular actions either fails the action checks of `translation` or
    gives a groupoid that passes its full check: those checks are what
    the flag relies on."""
    group = make_group(name)
    actions = [regular(group)]
    if name == "S3":
        actions.append(action(group))
    built, refusals = 0, []
    for images in actions:
        for mutant in itertools.chain(single_entry_mutants(images), row_swaps(images)):
            try:
                groupoid = FiniteGroupoid.translation(group, len(mutant[0]), mutant)
            except ValueError as exc:
                refusals.append(str(exc))
            else:
                audited(groupoid)
                built += 1
    # 270 and 512 single-entry mutants, 108 and 224 row swaps
    assert built + len(refusals) == {"S3": 378, "Q8": 736}[name]
    assert all(m.startswith("not an action: ") for m in refusals)
    assert any(m.startswith("not an action: composition fails") for m in refusals)


@pytest.mark.parametrize("name", GROUPS)
def test_morita_components_are_flagged(name):
    group = make_group(name)
    images = action(group)
    for comp in morita_decompose_inertia(group, len(images[0]), images):
        audited(comp.equivalence)
        assert comp.equivalence.is_morita()
        for pm in comp.point_models:
            audited(pm.equivalence)
            audited(pm.piece)


# -- propagation: an unflagged input gives an unflagged output ---------------


@pytest.fixture(scope="module")
def s3_pair():
    s3 = FiniteGroup.symmetric(3)
    sub, emb = subgroup_embedding(s3, [0, 2])
    return s3, sub, emb


def non_homomorphism(group):
    """A one-dimensional 'representation' sending everything but the
    identity to -1, built unchecked."""
    values = [1 if g == group.identity else -1 for g in group.elements()]
    return Representation.one_dimensional(group, values, check=False)


def test_restrict_and_induce_of_unchecked_rep_stay_unflagged(s3_pair):
    s3, sub, emb = s3_pair
    bad = non_homomorphism(s3)
    assert not bad.validated
    down = restrict(emb, bad)
    assert not down.validated
    # on C2 the restriction happens to be the sign: unflagged, yet valid
    assert down.validate() is True
    up = induce(emb, Representation.one_dimensional(sub, [1, 2], check=False))
    assert not up.validated
    for rep, pair in ((bad, "(1, 2)"), (up, "(1, 1)")):
        message = "multiplicativity fails at pair %s" % pair
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            rrg._require_valid(rep)
    assert not direct_sum(Representation.trivial(s3), bad).validated
    assert not tensor(bad, Representation.trivial(s3)).validated
    assert not dual(bad).validated
    assert not exterior_power(bad, 1).validated
    assert not Representation.cyclic_weight(FiniteGroup.cyclic(3), 1).validated


def test_cone_of_unchecked_complex_stays_unflagged(s3_pair):
    s3, sub, _ = s3_pair
    triv = Representation.trivial(sub)
    sgn = Representation.one_dimensional(sub, [1, -1])
    broken = EquivariantComplex(sub, 0, (triv, sgn), (Matrix.from_rows([[1]]),), check=False)
    assert not broken.validated
    assert not EquivariantComplex.single(non_homomorphism(sub)).validated
    assert not shift(broken).validated
    ident = ChainMap.identity(broken)
    assert not ident.validated
    cone = mapping_cone(ident)
    assert not cone.validated
    with pytest.raises(
        ValueError, match=r"^differential at degree -1 is not equivariant at element 1$"
    ):
        rrg._require_valid(cone)
    # one unflagged input among flagged ones is enough
    good = two_term(s3)
    phi = ChainMap(good, good, ChainMap.identity(good).mats, check=False)
    assert not mapping_cone(phi).validated


def test_groupoid_constructors_check_unflagged_inputs(monkeypatch):
    g = FiniteGroupoid.from_group(FiniteGroup.quaternion())
    comp = dict(g.comp)
    plain = FiniteGroupoid(1, g.source, g.target, comp, g.units, g.inverses, check=False)
    assert not plain.validated
    calls = count_calls(monkeypatch, FiniteGroupoid)
    prod = FiniteGroupoid.product(g, plain)
    ig = inertia(plain)
    assert calls == [prod, ig.groupoid] and prod.validated and ig.groupoid.validated
    assert not StrictFunctor.identity(plain).validated
    comp[(1, 1)], comp[(2, 2)] = comp[(2, 2)], comp[(1, 1)]
    tampered = FiniteGroupoid(1, g.source, g.target, comp, g.units, g.inverses, check=False)
    for build, message in (
        (lambda: FiniteGroupoid.product(g, tampered),
         "arrow 1 composed with its inverse is not a unit"),
        (lambda: inertia(tampered), "composite (10, 1) has wrong endpoints"),
        (lambda: GeneralizedMorphism.identity(tampered), "left action is not associative"),
    ):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            build()


# -- consumers skip flagged objects; validate() always runs -----------------


def count_calls(monkeypatch, cls):
    """Record the object of every ``cls.validate`` call, then run it."""
    calls = []
    original = cls.validate

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(cls, "validate", counted)
    return calls


def test_require_valid_skips_flagged_objects(monkeypatch, s3_pair):
    s3, sub, emb = s3_pair
    chart = Representation.permutation(s3, action(s3))
    line = EquivariantComplex.single(Representation.trivial(sub))
    cx = mapping_cone(ChainMap.identity(line))
    big = two_term(s3)
    assert chart.validated and cx.validated and big.validated
    rep_calls = count_calls(monkeypatch, Representation)
    cx_calls = count_calls(monkeypatch, EquivariantComplex)
    rrg._require_valid(chart)
    rrg._require_valid(cx)
    assert rrg.check_iso_spatial(rrg.IsoSpatialScenario(emb, chart, cx)).passed
    assert rrg.check_functoriality(emb, big).passed
    assert rep_calls == [] and cx_calls == []
    assert chart.validate() is True and cx.validate() is True
    assert rep_calls == [chart] and cx_calls == [cx]
    unflagged = EquivariantComplex(s3, 0, big.pieces, big.diffs, check=False)
    rrg._require_valid(unflagged)
    assert cx_calls[-1] is unflagged


def test_functoriality_validates_an_unflagged_complex_once(monkeypatch, s3_pair):
    s3, _, emb = s3_pair
    big = two_term(s3)
    unflagged = EquivariantComplex(s3, 0, big.pieces, big.diffs, check=False)
    cx_calls = count_calls(monkeypatch, EquivariantComplex)
    assert rrg.check_functoriality(emb, unflagged).passed
    assert cx_calls == [unflagged]


def test_require_valid_flags_a_pass(monkeypatch, s3_pair):
    s3, sub, emb = s3_pair
    chart = Representation.permutation(s3, action(s3))
    line = EquivariantComplex.single(Representation.trivial(sub))
    unflagged = EquivariantComplex(sub, 0, line.pieces, line.diffs, check=False)
    cx_calls = count_calls(monkeypatch, EquivariantComplex)
    first = rrg.IsoSpatialScenario(emb, chart, unflagged)
    assert unflagged.validated and cx_calls == [unflagged]
    rrg.IsoSpatialScenario(emb, chart, unflagged)
    assert cx_calls == [unflagged]
    assert rrg.check_iso_spatial(first).passed
    # rebinding a slot clears the flag, so the next consumer checks again
    unflagged.diffs = line.diffs
    assert not unflagged.validated
    rrg._require_valid(unflagged)
    assert unflagged.validated and cx_calls == [unflagged, unflagged]
    # a failed check leaves the flag unset
    broken = EquivariantComplex(s3, 0, (non_homomorphism(s3),), (), check=False)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^multiplicativity fails at pair \(1, 2\)$"):
            rrg._require_valid(broken)
        assert not broken.validated


def test_checked_chain_map_validates_unflagged_complexes(monkeypatch, s3_pair):
    s3, _, _ = s3_pair
    src = EquivariantComplex(s3, 0, (non_homomorphism(s3),), (), check=False)
    with pytest.raises(ValueError, match=r"^multiplicativity fails at pair \(1, 2\)$"):
        ChainMap(src, src, (Matrix.identity(1),))
    good = two_term(s3)
    unflagged = EquivariantComplex(s3, 0, good.pieces, good.diffs, check=False)
    mats = ChainMap.identity(good).mats
    cx_calls = count_calls(monkeypatch, EquivariantComplex)
    assert ChainMap(good, good, mats).validated and cx_calls == []
    assert ChainMap(unflagged, good, mats).validated and cx_calls == [unflagged]
    assert ChainMap(good, unflagged, mats).validated and cx_calls == [unflagged] * 2


def test_is_morita_skips_flagged_bibundles(monkeypatch):
    q8 = FiniteGroup.quaternion()
    pt = FiniteGroupoid.from_group(q8)
    ident = GeneralizedMorphism.identity(pt)
    calls = count_calls(monkeypatch, GeneralizedMorphism)
    assert ident.validated and ident.is_morita()
    assert calls == []
    assert ident.validate() is True
    assert calls == [ident]
    plain = GeneralizedMorphism(
        pt, pt, ident.rho, ident.sigma, ident.left, ident.right, check=False
    )
    assert plain.is_morita()
    assert calls[-1] is plain


def test_embedding_pipeline_checks_no_bibundle(monkeypatch, s3_pair):
    """From the checked groups on, one ``groupoid_embeddings`` benchmark
    item checks no groupoid and no bibundle: `from_group` and
    `translation` are trusted, and the calculus derives everything else."""
    s3, sub, emb = s3_pair
    calls = count_calls(monkeypatch, GeneralizedMorphism)
    groupoid_calls = count_calls(monkeypatch, FiniteGroupoid)
    pt_sub, pt_grp = FiniteGroupoid.from_group(sub), FiniteGroupoid.from_group(s3)
    functor = StrictFunctor(pt_sub, pt_grp, [0], list(emb.mapping))
    bibundle = GeneralizedMorphism.from_functor(functor)
    assert classify_embedding(bibundle.graph()).embedding
    first, second = factorize(bibundle)
    assert find_isomorphism(first.compose(second), bibundle) is not None
    inertia_of_morphism(bibundle)
    assert calls == [] and groupoid_calls == []
    comps = morita_decompose_inertia(s3, 3, action(s3))
    assert all(comp.equivalence.is_morita() for comp in comps)
    assert calls == [] and groupoid_calls == []


# -- flags cannot go stale --------------------------------------------------


def test_tables_are_read_only(s3_pair):
    s3, sub, emb = s3_pair
    g = FiniteGroupoid.from_group(s3)
    functor = StrictFunctor(FiniteGroupoid.from_group(sub), g, [0], list(emb.mapping))
    f = GeneralizedMorphism.from_functor(functor)
    tables = (g.source, g.target, g.units, g.inverses, g.comp.flat)
    for arr in tables + (f.rho, f.sigma, f.left.flat, f.right.flat):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    assert g.validated and g.validate() is True and f.validate() is True
    # the tables are private copies: an array the caller kept stays its own
    source = np.zeros(s3.size, dtype=np.int64)
    pt = FiniteGroupoid(1, source, g.target, g.comp, g.units, g.inverses)
    source[0] = 1
    assert pt.source[0] == 0 and pt.validate() is True


# -- rebinding a data slot clears the flag ----------------------------------


def test_rebinding_a_representation_slot_clears_the_flag(s3_pair):
    s3, _, _ = s3_pair
    rep = Representation.trivial(s3)
    assert rep.validated
    rep.mats = Representation.one_dimensional(s3, [-1] * s3.size, check=False).mats
    assert not rep.validated
    message = "identity does not map to the identity matrix"
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        rep.validate()
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        rrg._require_valid(rep)
    # the flag itself may be set again; a fresh check passes on valid data
    rep.mats = Representation.trivial(s3).mats
    assert not rep.validated
    rrg._require_valid(rep)


def test_rebinding_a_complex_or_chain_map_slot_clears_the_flag(s3_pair):
    s3, sub, _ = s3_pair
    cx = two_term(s3)
    assert cx.validated
    cx.diffs = (Matrix.from_rows([[1] + [0] * (cx.pieces[0].dim - 1)]),)
    assert not cx.validated
    with pytest.raises(
        ValueError, match=r"^differential at degree 0 is not equivariant at element \d+$"
    ):
        rrg._require_valid(cx)
    line = EquivariantComplex.single(Representation.trivial(sub))
    ident = ChainMap.identity(line)
    assert ident.validated
    ident.mats = (Matrix.from_rows([[2]]),)
    assert not ident.validated


def test_complex_check_covers_unflagged_pieces(s3_pair):
    s3, sub, _ = s3_pair
    with pytest.raises(ValueError, match=r"^multiplicativity fails at pair"):
        EquivariantComplex(s3, 0, (non_homomorphism(s3),), ())
    plain = Representation.one_dimensional(sub, [1, -1], check=False)
    assert EquivariantComplex(sub, 0, (plain,), ()).validated


def test_workload_shaped_complexes_check_no_piece(monkeypatch, s3_pair):
    """Complexes built as the subgroup_characters benchmark builds them:
    unchecked complexes over checked or derived pieces, and the cone of the
    identity of one.  Their check reads no piece."""
    s3, sub, emb = s3_pair
    good = two_term(s3)
    plain = EquivariantComplex(s3, 0, good.pieces, good.diffs, check=False)
    induced = induce(emb, Representation.one_dimensional(sub, [1, -1]))
    line = EquivariantComplex(s3, 0, (induced, induced), (Matrix.identity(3),), check=False)
    cone = mapping_cone(ChainMap.identity(line))
    rep_calls = count_calls(monkeypatch, Representation)
    for cx in (plain, line, cone):
        assert not cx.validated
        assert all(p.validated for p in cx.pieces)
        assert cx.validate() is True
    assert rep_calls == []
