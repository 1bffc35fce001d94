"""Riemann-Roch verifiers over finite linear charts.

Each checker evaluates one exact identity along two or three independent
computational routes and reports per conjugacy class: induction of
supertraces against the centralizer-weighted pushforward, the Koszul /
Todd zero-section identity together with its K-theoretic shadow, the
degree-zero induction formula at isolated fixed points, Todd pullback
along fused classes, and compatibility of supertraces with restriction.

Reports carry one entry per class (pass / fail / skipped), a stable
content hash of the scenario, and the first failing witness; they
serialize to plain dictionaries for the command layer.  Deliberate
corruption knobs (`weight`, `euler_factor`, `inversion`) let negative
fixtures prove the checks can fail.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from .exactnum import Cyclotomic
from .linalg import Matrix
from .reps import (
    Representation,
    VirtualCharacter,
    induced_character_sum,
    induced_matrix,
    lambda_minus_one,
    restrict,
    restricted_character,
)
from .complexes import EquivariantComplex, supertrace_class
from .charts import LinearChart, eigen_decomposition, fixed_subspace
from .series import (
    NormalModel,
    first_difference,
    invert_unit,
    koszul_ch,
    todd_delocalized,
    zero_section_identity,
)

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


def _require_valid(obj):
    """Run ``validate()``, which raises at the first violation, unless the
    object is flagged as validated; a pass flags it, so the next scenario
    over the same object skips the check.  Rebinding a slot clears the
    flag again (`reps._Flagged`)."""
    if not obj.validated:
        obj.validate()
        obj.validated = True


class ClassEntry:
    """Outcome of one conjugacy-class check."""

    __slots__ = ("class_index", "status", "lhs", "rhs", "detail")

    def __init__(self, class_index, status, lhs=None, rhs=None, detail=None):
        self.class_index = class_index
        self.status = status
        self.lhs = lhs
        self.rhs = rhs
        self.detail = detail

    def to_dict(self):
        out = {"class": self.class_index, "status": self.status}
        if self.lhs is not None:
            out["lhs"] = self.lhs
        if self.rhs is not None:
            out["rhs"] = self.rhs
        if self.detail is not None:
            out["detail"] = self.detail
        return out


class CheckReport:
    """Per-class results of one verifier, merged in class order."""

    __slots__ = ("check", "scenario_hash", "entries")

    def __init__(self, check, scenario_hash, entries):
        self.check = check
        self.scenario_hash = scenario_hash
        self.entries = sorted(entries, key=lambda e: e.class_index)

    @property
    def passed(self):
        return all(e.status != FAIL for e in self.entries)

    def __bool__(self):
        return self.passed

    @property
    def first_failure(self):
        for e in self.entries:
            if e.status == FAIL:
                return e.to_dict()
        return None

    def to_dict(self):
        return {
            "check": self.check,
            "scenario": self.scenario_hash,
            "passed": self.passed,
            "classes": [e.to_dict() for e in self.entries],
            "first_failure": self.first_failure,
        }

    def __repr__(self):
        return "CheckReport(%s: %s)" % (
            self.check,
            "pass" if self.passed else "FAIL",
        )


# -- scenario content hashing -------------------------------------------


# Entries are joined from lists, not from generators or map(str, ...): on
# CPython 3.11 a list comprehension of str(v) is the fastest of the three.


def _group_key(group):
    return ";".join([",".join([str(v) for v in row]) for row in group.table])


def _matrix_key(mat):
    return "%dx%d:" % (mat.nrows, mat.ncols) + ",".join(
        [str(e) for row in mat.rows for e in row]
    )


def _rep_key(rep):
    return "|".join(_matrix_key(m) for m in rep.mats)


def _complex_key(cx):
    return "deg%d;" % cx.min_degree + "|".join(
        _rep_key(p) for p in cx.pieces
    ) + ";" + "|".join(_matrix_key(d) for d in cx.diffs)


def _emb_key(emb):
    return _group_key(emb.source) + ">" + _group_key(emb.target) + ">" + ",".join(
        [str(v) for v in emb.mapping]
    )


def content_hash(*parts):
    text = "\x1f".join(parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- scenarios -----------------------------------------------------------


def _quotient_representation(ambient, inclusion, sub):
    """Action induced on the cokernel of an equivariant inclusion."""
    wd, vd = ambient.dim, sub.dim
    if inclusion.shape() != (wd, vd):
        raise ValueError(
            "inclusion matrix has the wrong shape: %s, expected %s (ambient dim, sub dim)"
            % (inclusion.shape(), (wd, vd))
        )
    # one reduction of [inclusion | I]: its pivots below vd are the
    # inclusion's, then each unit vector outside the span of the columns
    # before it, the greedy completion to a basis
    eye = Matrix.identity(wd)
    both = inclusion.hstack(eye)
    pivots = both.rref()[1]
    rank = sum(1 for p in pivots if p < vd)
    if rank != vd:
        raise ValueError(
            "inclusion is not injective: rank %d, sub dim %d" % (rank, vd)
        )
    for g in range(ambient.group.size):
        if ambient.mats[g] * inclusion != inclusion * sub.mats[g]:
            raise ValueError("inclusion is not equivariant at element %d" % g)
    if vd == wd:
        return Representation.zero_dimensional(ambient.group)
    b = both.submatrix(range(wd), pivots)
    binv = b.solve(eye)
    mats = []
    for g in range(ambient.group.size):
        conj = binv * ambient.mats[g] * b
        rows = [
            tuple(conj.rows[i][j] for j in range(vd, wd)) for i in range(vd, wd)
        ]
        for i in range(vd, wd):
            for j in range(vd):
                if not conj.rows[i][j].is_zero():
                    raise ValueError("inclusion image is not invariant")
        mats.append(Matrix.from_rows(rows) if rows else Matrix.from_rows([], ncols=0))
    return Representation(ambient.group, mats, check=False)


class IsoSpatialScenario:
    """Subgroup pair over a shared chart, plus a complex to push forward."""

    __slots__ = ("emb", "chart", "complex")

    def __init__(self, emb, chart, complex):
        if chart.group is not emb.target:
            raise ValueError("chart must carry an action of the big group")
        if complex.group is not emb.source:
            raise ValueError("complex must live over the small group")
        _require_valid(chart)
        _require_valid(complex)
        self.emb = emb
        self.chart = chart
        self.complex = complex

    def hash(self):
        return content_hash(
            "iso", _emb_key(self.emb), _rep_key(self.chart), _complex_key(self.complex)
        )


class ZeroSectionScenario:
    """A chart sitting inside an ambient chart with the same group."""

    __slots__ = ("group", "sub", "ambient", "inclusion", "complex", "trunc", "normal")

    def __init__(self, group, sub, ambient, inclusion, complex, trunc):
        if sub.group is not group or ambient.group is not group:
            raise ValueError("sub and ambient must carry actions of the same group")
        if complex.group is not group:
            raise ValueError("complex must live over the same group")
        if trunc < 0:
            raise ValueError("truncation degree must be nonnegative")
        _require_valid(complex)
        self.group = group
        self.sub = sub
        self.ambient = ambient
        self.inclusion = inclusion
        self.complex = complex
        self.trunc = int(trunc)
        self.normal = _quotient_representation(ambient, inclusion, sub)
        # at the identity every normal line has eigenvalue 1, so the Euler
        # monomial there has the normal rank as its degree
        if self.trunc < self.normal.dim:
            raise ValueError(
                "truncation degree %d is below the normal rank %d, the degree of the Euler monomial"
                % (self.trunc, self.normal.dim)
            )

    def hash(self):
        return content_hash(
            "zero",
            _group_key(self.group),
            _rep_key(self.sub),
            _rep_key(self.ambient),
            _matrix_key(self.inclusion),
            _complex_key(self.complex),
            str(self.trunc),
        )


class GeneralScenario:
    """Subgroup pair with an invariant sub-chart of an ambient chart."""

    __slots__ = ("emb", "sub", "ambient", "inclusion", "complex", "trunc", "normal")

    def __init__(self, emb, sub, ambient, inclusion, complex, trunc):
        if sub.group is not emb.target or ambient.group is not emb.target:
            raise ValueError("sub and ambient must carry actions of the big group")
        if complex.group is not emb.source:
            raise ValueError("complex must live over the small group")
        if trunc < 0:
            raise ValueError("truncation degree must be nonnegative")
        _require_valid(complex)
        self.emb = emb
        self.sub = sub
        self.ambient = ambient
        self.inclusion = inclusion
        self.complex = complex
        self.trunc = int(trunc)
        self.normal = _quotient_representation(ambient, inclusion, sub)

    def hash(self):
        return content_hash(
            "general",
            _emb_key(self.emb),
            _rep_key(self.sub),
            _rep_key(self.ambient),
            _matrix_key(self.inclusion),
            _complex_key(self.complex),
            str(self.trunc),
        )


# -- pushforward ----------------------------------------------------------


def pushforward_characters(emb, chi, weight="centralizer"):
    """Centralizer-weighted sum of a class function over fusion fibers.

    The value at a big-group class (h) is the sum over small-group
    classes (g_i) fusing into it of |Z_H(h)| / |Z_G(g_i)| times chi(g_i);
    classes that receive nothing get zero.  `weight` admits the
    deliberately wrong conventions "one" and "inverted".
    """
    if chi.group is not emb.source:
        raise ValueError("character does not live over the embedding source")
    cg = emb.source.conjugacy()
    ch = emb.target.conjugacy()
    fusion = emb.fusion()
    values = [Cyclotomic.zero() for _ in ch.reps]
    for c, t in enumerate(fusion.to_target):
        if weight == "centralizer":
            w = Fraction(ch.centralizer_order(t), cg.centralizer_order(c))
        elif weight == "one":
            w = Fraction(1)
        elif weight == "inverted":
            w = Fraction(cg.centralizer_order(c), ch.centralizer_order(t))
        else:
            raise ValueError("unknown weight convention %r" % (weight,))
        values[t] = values[t] + chi.values[c] * w
    return VirtualCharacter(emb.target, values)


def _induced_supertrace_at(emb, cx, h):
    """Alternating trace of explicit induced block matrices at one element."""
    total = Cyclotomic.zero()
    for k in cx.degrees():
        piece = cx.piece(k)
        if piece.dim == 0:
            continue
        value = induced_matrix(emb, piece, h).trace()
        total = total + (value if k % 2 == 0 else -value)
    return total


def check_iso_spatial(sc, weight="centralizer"):
    """Induction of a supertrace along three routes, compared per class.

    Route one traces explicit induced block matrices at each class
    representative; route two is the weighted fusion sum; route three is
    the definitional average over the whole big group.
    """
    chi = supertrace_class(sc.complex)
    pushed = pushforward_characters(sc.emb, chi, weight=weight)
    definitional = induced_character_sum(sc.emb, chi)
    ch = sc.emb.target.conjugacy()
    entries = []
    for c, h in enumerate(ch.reps):
        lhs = _induced_supertrace_at(sc.emb, sc.complex, h)
        agree = lhs == pushed.values[c] == definitional.values[c]
        detail = None
        if not agree and pushed.values[c] != definitional.values[c]:
            detail = "definitional route gives %s" % (definitional.values[c],)
        entries.append(
            ClassEntry(
                c,
                PASS if agree else FAIL,
                str(lhs),
                str(pushed.values[c]),
                detail,
            )
        )
    return CheckReport("iso-spatial", sc.hash(), entries)


def check_zero_section(sc, euler_factor="include"):
    """Koszul = Euler * Todd^-1 per class, plus its degree-zero shadow.

    For each class the normal eigen-model feeds the series identity
    (coefficientwise, exact), and the constant Koszul coefficient is
    compared with the alternating exterior-power character computed from
    matrix minors.  `euler_factor="omit"` drops the Euler monomial to
    exercise the failure path.  An entry's lhs/rhs are the two series'
    coefficients at the first differing exponent when the series differ,
    and the two shadow values otherwise.
    """
    chart = LinearChart(sc.group, sc.normal)
    chi = supertrace_class(sc.complex)
    lam = lambda_minus_one(sc.normal)
    cd = sc.group.conjugacy()
    entries = []
    for c, g in enumerate(cd.reps):
        eigen = eigen_decomposition(chart, g, with_bases=False)
        model = NormalModel.from_eigen(eigen, sc.trunc)
        if euler_factor == "include":
            series_report = zero_section_identity(model)
            ok = series_report.passed
            witness = series_report.first_mismatch
            lhs_series, rhs_series = series_report.lhs, series_report.rhs
        elif euler_factor == "omit":
            lhs_series = koszul_ch(model)
            rhs_series = invert_unit(todd_delocalized(model))
            witness = first_difference(lhs_series, rhs_series)
            ok = witness is None
        else:
            raise ValueError("unknown euler_factor %r" % (euler_factor,))
        koszul_constant = lhs_series.constant_term
        lhs = chi.values[c] * lam.values[c]
        rhs = chi.values[c] * koszul_constant
        shadow_ok = lhs == rhs
        status = PASS if (ok and shadow_ok) else FAIL
        detail = None
        if not ok:
            # the witness: both series' coefficients at the first differing exponent
            detail = "series mismatch at exponent %s" % (witness,)
            lhs = lhs_series.coefficient(witness)
            rhs = rhs_series.coefficient(witness)
        elif not shadow_ok:
            detail = "shadow mismatch"
        entries.append(ClassEntry(c, status, str(lhs), str(rhs), detail))
    return CheckReport("zero-section", sc.hash(), entries)


def _dual_euler_factor(eigen, inversion):
    """det(1 - g^{-1}) on the dual, as a product over eigenvalues."""
    value = Cyclotomic.one()
    for zeta, mult in eigen.entries:
        base = zeta.inverse() if inversion == "dual" else zeta
        for _ in range(mult):
            value = value * (Cyclotomic.one() - base)
    return value


def check_general_degree0(sc, inversion="dual"):
    """Degree-zero induction formula at isolated fixed points.

    Big-group classes whose ambient fixed space is nonzero are reported
    as skipped.  For the rest, the definitional induced character of the
    lambda-twisted supertrace is compared with the fusion-weighted sum
    of supertraces times dual Euler factors from eigen-data.
    `inversion="direct"` drops the dual (a wrong convention that must
    fail whenever some eigenvalue is not real).
    """
    if inversion not in ("dual", "direct"):
        raise ValueError("unknown inversion %r" % (inversion,))
    emb = sc.emb
    h_group = emb.target
    normal_g = restrict(emb, sc.normal)
    ambient_chart = LinearChart(h_group, sc.ambient)
    g_chart = LinearChart(emb.source, normal_g)
    chi = supertrace_class(sc.complex)
    twisted = chi * lambda_minus_one(normal_g)
    induced = induced_character_sum(emb, twisted)
    cg = emb.source.conjugacy()
    ch = h_group.conjugacy()
    fusion = emb.fusion()
    entries = []
    for c, h in enumerate(ch.reps):
        if fixed_subspace(ambient_chart, h).ncols != 0:
            entries.append(
                ClassEntry(c, SKIPPED, detail="positive-dimensional fixed locus")
            )
            continue
        rhs = Cyclotomic.zero()
        for gc in fusion.fibers[c]:
            eigen = eigen_decomposition(g_chart, cg.reps[gc], with_bases=False)
            w = Fraction(ch.centralizer_order(c), cg.centralizer_order(gc))
            rhs = rhs + chi.values[gc] * _dual_euler_factor(eigen, inversion) * w
        lhs = induced.values[c]
        entries.append(
            ClassEntry(c, PASS if lhs == rhs else FAIL, str(lhs), str(rhs))
        )
    return CheckReport("general-degree0", sc.hash(), entries)


def check_td_pullback(sc):
    """Eigen-data, and hence Todd series, agree across fused classes."""
    emb = sc.emb
    normal_g = restrict(emb, sc.normal)
    g_chart = LinearChart(emb.source, normal_g)
    h_chart = LinearChart(emb.target, sc.normal)
    cg = emb.source.conjugacy()
    ch = emb.target.conjugacy()
    fusion = emb.fusion()
    entries = []
    for c, g in enumerate(cg.reps):
        t = fusion.to_target[c]
        eigen_small = eigen_decomposition(g_chart, g, with_bases=False)
        eigen_image = eigen_decomposition(h_chart, emb.mapping[g], with_bases=False)
        eigen_fused = eigen_decomposition(h_chart, ch.reps[t], with_bases=False)
        same = eigen_small == eigen_image == eigen_fused
        td_small = todd_delocalized(NormalModel.from_eigen(eigen_small, sc.trunc))
        td_fused = todd_delocalized(NormalModel.from_eigen(eigen_fused, sc.trunc))
        ok = same and td_small == td_fused
        entries.append(
            ClassEntry(
                c,
                PASS if ok else FAIL,
                repr(eigen_small.entries),
                repr(eigen_fused.entries),
                None if same else "eigen multiset changed across fusion",
            )
        )
    return CheckReport("td-pullback", sc.hash(), entries)


def check_functoriality(emb, cx):
    """Supertraces commute with restriction along a subgroup inclusion.

    No CLI command reaches this verifier: it is library API, which
    acceptance 9 of ``tests/test_acceptance.py`` drives on every subgroup
    pair of its corpus.
    """
    if cx.group is not emb.target:
        raise ValueError("complex must live over the big group")
    _require_valid(cx)
    # cx has passed, so its restriction is a complex: no second check
    restricted = EquivariantComplex(
        emb.source,
        cx.min_degree,
        tuple(restrict(emb, p) for p in cx.pieces),
        cx.diffs,
        check=False,
    )
    lhs = supertrace_class(restricted)
    rhs = restricted_character(emb, supertrace_class(cx))
    entries = []
    for c in range(len(lhs.values)):
        ok = lhs.values[c] == rhs.values[c]
        entries.append(
            ClassEntry(c, PASS if ok else FAIL, str(lhs.values[c]), str(rhs.values[c]))
        )
    scenario_hash = content_hash("functorial", _emb_key(emb), _complex_key(cx))
    return CheckReport("functoriality", scenario_hash, entries)
