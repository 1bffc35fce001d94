"""Command-line front end: scenario files in, verdict tables or JSON out.

A scenario is a single JSON document declaring groups, embeddings,
representations, complexes, charts, eigen-line models, group actions,
and command blocks that wire those pieces into runnable checks.  Every
cross-reference is resolved and validated at load time with a JSON
pointer in the error message; blocks may opt out with
``"skip_validation": true``, in which case the violation surfaces as a
failing report entry at run time instead of a load error.

Exit codes: 0 all checks pass, 1 any verification failure, 2 load or
usage errors, 3 an internal error (an exception the program did not
expect, reported on one line without a traceback).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .exactnum import Cyclotomic, euler_phi
from .linalg import Matrix
from .groups import MAX_ORDER, FiniteGroup, GroupEmbedding, subgroup_embedding
from .reps import (
    Representation,
    character,
    induced_character_sum,
)
from .complexes import EquivariantComplex
from .charts import LinearChart, inertia_data
from .series import NormalModel, delocalized_chern, todd_delocalized
from .groupoids import (
    FiniteGroupoid,
    GeneralizedMorphism,
    StrictFunctor,
    classify_embedding,
    factorize,
    find_isomorphism,
    inertia,
    inertia_of_morphism,
    morita_decompose_inertia,
    _morita_components,
)
from .rrg import (
    GeneralScenario,
    IsoSpatialScenario,
    ZeroSectionScenario,
    check_general_degree0,
    check_iso_spatial,
    check_td_pullback,
    check_zero_section,
    pushforward_characters,
)

SCHEMA_VERSION = 1
DEFAULT_TRUNC = 4
# cap on the monomials of one truncated series, C(vars + trunc, trunc)
MAX_MONOMIALS = 256
# caps on one expression: the digits of an integer, the depth of parentheses
MAX_DIGITS = 1000
MAX_NESTING = 100
# cap on the degree phi(L) of the field Q(zeta_L) of one file: L is the lcm
# of the orders of its values and of the exponents of its represented groups
MAX_FIELD_DEGREE = 16

# formula knobs: the allowed values, the default first
_KNOBS = {
    "weight": ("centralizer", "one", "inverted"),
    "euler_factor": ("include", "omit"),
    "inversion": ("dual", "direct"),
}


# -- cyclotomic expression grammar -----------------------------------------
#
#   expr     := ['-'] term (('+'|'-') term)*
#   term     := factor ('*' factor)*
#   factor   := rational | 'E(' int ')' ['^' int] | '(' expr ')'
#   rational := ['-'] int ['/' int]


class CycParseError(ValueError):
    """Malformed cyclotomic expression; carries the offending offset."""

    def __init__(self, message, position):
        super().__init__("parse error at position %d: %s" % (position, message))
        self.position = position


def _field_fits(order):
    """Whether Q(zeta_order) has degree at most MAX_FIELD_DEGREE; since
    phi(n) >= sqrt(n / 2), a larger order is refused before phi runs."""
    return order <= 2 * MAX_FIELD_DEGREE**2 and euler_phi(order) <= MAX_FIELD_DEGREE


class _Scanner:
    __slots__ = ("text", "pos", "depth", "order")

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.order = 1  # lcm of the E(n) read so far

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            raise CycParseError("expected '%s'" % ch, self.pos)
        self.pos += 1

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise CycParseError("expected an integer", start)
        if self.pos - start > MAX_DIGITS:
            raise CycParseError("integer longer than %d digits" % MAX_DIGITS, start)
        return int(self.text[start : self.pos]), start

    def expr(self):
        if self.peek() == "-":
            self.pos += 1
            acc = -self.term()
        else:
            acc = self.term()
        while True:
            op = self.peek()
            if op == "+":
                self.pos += 1
                acc = acc + self.term()
            elif op == "-":
                self.pos += 1
                acc = acc - self.term()
            else:
                return acc

    def term(self):
        acc = self.factor()
        while self.peek() == "*":
            self.pos += 1
            acc = acc * self.factor()
        return acc

    def factor(self):
        ch = self.peek()
        start = self.pos
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise CycParseError("parentheses nested deeper than %d" % MAX_NESTING, start)
            self.pos += 1
            self.depth += 1
            inner = self.expr()
            self.take(")")
            self.depth -= 1
            return inner
        if ch == "E":
            self.pos += 1
            self.take("(")
            n, _ = self.integer()
            self.take(")")
            if n < 1:
                raise CycParseError("E(%d) is not a root of unity" % n, start)
            order = math.lcm(self.order, n)
            if not _field_fits(order):
                raise CycParseError(
                    "root of unity takes the field past degree %d" % MAX_FIELD_DEGREE, start
                )
            self.order = order
            k = 1
            if self.peek() == "^":
                self.pos += 1
                k, _ = self.integer()
            return Cyclotomic.root_of_unity(n, k)
        if ch == "-" or ch.isdigit():
            return self.rational()
        raise CycParseError("expected a factor", self.pos)

    def rational(self):
        self.skip_ws()
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        num, _ = self.integer()
        den = 1
        if self.peek() == "/":
            self.pos += 1
            den, den_start = self.integer()
            if den == 0:
                raise CycParseError("zero denominator", den_start)
        return Cyclotomic.from_rational(Fraction(sign * num, den))


def parse_cyclotomic(text) -> Cyclotomic:
    """Evaluate a cyclotomic expression string, exactly."""
    if not isinstance(text, str):
        raise CycParseError("expected a string", 0)
    sc = _Scanner(text)
    value = sc.expr()
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise CycParseError("unexpected trailing input", sc.pos)
    return value


# -- scenario loading --------------------------------------------------------


class LoadError(ValueError):
    """Schema or invariant violation, located by a JSON pointer."""

    def __init__(self, message, pointer):
        super().__init__("%s (at %s)" % (message, pointer or "/"))
        self.pointer = pointer


class _Field:
    """One JSON value of the scenario being loaded, at its pointer.

    Each read takes the value as one kind, or raises LoadError at the
    value's own pointer; ``build`` refuses the ValueError of a library
    constructor there too.  A member is absent only when its key is: a
    ``null`` is a value, of no kind that a read takes.
    """

    __slots__ = ("sc", "value", "ptr")

    def __init__(self, sc, value, ptr):
        self.sc = sc
        self.value = value
        self.ptr = ptr

    def fail(self, message):
        raise LoadError(message, self.ptr)

    def _at(self, key, value):
        return _Field(self.sc, value, "%s/%s" % (self.ptr, key))

    def obj(self):
        if not isinstance(self.value, dict):
            self.fail("expected an object")
        return self

    def get(self, key, default=None):
        """Member ``key`` of an object; when absent, ``default`` at the
        member's pointer, or None without a default."""
        if key in self.value:
            return self._at(key, self.value[key])
        return None if default is None else self._at(key, default)

    def need(self, key):
        member = self.get(key)
        if member is None:
            self._at(key, None).fail("missing %r" % key)
        return member

    def members(self):
        """(name, field) for each member of an object."""
        return [(k, self._at(k, v)) for k, v in self.obj().value.items()]

    def list(self, length=None, message=None):
        """The entries of a list, refused with ``message`` unless there
        are ``length`` of them."""
        if not isinstance(self.value, list):
            self.fail("expected a list")
        if length is not None and len(self.value) != length:
            self.fail(message)
        return [self._at(i, v) for i, v in enumerate(self.value)]

    def int(self, low=None, message=None):
        """An integer, never a bool, refused with ``message`` below ``low``."""
        value = self.value
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail("expected an integer")
        if low is not None and value < low:
            self.fail(message)
        return value

    def ints(self, below, length=None, message=None):
        """A list of indices into range(below)."""
        entries = self.list(length, message)
        for f in entries:
            if not 0 <= f.int() < below:
                f.fail("expected an index below %d" % below)
        return [f.value for f in entries]

    def text(self):
        if not isinstance(self.value, str):
            self.fail("expected a string")
        return self.value

    def ref(self, table, key=None):
        """The entry of a declaration table named here, or by member ``key``."""
        f = self if key is None else self.need(key)
        if not isinstance(f.value, str) or f.value not in table:
            f.fail("unknown reference %r" % (f.value,))
        return table[f.value]

    def widen(self, order):
        """Take ``order`` into the file's field, or refuse it here."""
        field = math.lcm(self.sc.field, order)
        if not _field_fits(field):
            self.fail("field Q(zeta_%d) exceeds the cap of degree %d" % (field, MAX_FIELD_DEGREE))
        self.sc.field = field

    def cyc(self):
        """A cyclotomic expression, taken into the file's field."""
        if not isinstance(self.value, str):
            self.fail("expected an expression string")
        try:
            value = parse_cyclotomic(self.value)
        except CycParseError as exc:
            self.fail(str(exc))
        self.widen(value.order)
        return value

    def matrix(self, nrows, ncols):
        """A row-major matrix of expressions; ``[]`` also stands for a
        matrix without columns."""
        if ncols == 0 and self.value == []:
            return Matrix.zero(nrows, 0)
        width = "expected %d columns" % ncols
        rows = self.list(nrows, "expected %d rows" % nrows)
        return Matrix.from_rows([[e.cyc() for e in r.list(ncols, width)] for r in rows], ncols)

    def trunc(self):
        """A truncation degree: a nonnegative integer."""
        return self.int(0, "truncation degree must be nonnegative")

    def knob(self, key):
        """Formula knob ``key`` of a block, its default when absent."""
        allowed = _KNOBS[key]
        member = self.get(key)
        if member is None:
            return allowed[0]
        if member.value not in allowed:
            member.fail("%s must be one of: %s" % (key, ", ".join(allowed)))
        return member.value

    def build(self, make, *args):
        """``make(*args)``, its ValueError refused here."""
        try:
            return make(*args)
        except ValueError as exc:
            raise LoadError(str(exc), self.ptr)


class Scenario:
    """Resolved object graph behind one scenario file."""

    __slots__ = (
        "groups",
        "perm_actions",
        "embeddings",
        "representations",
        "complexes",
        "charts",
        "models",
        "actions",
        "blocks",
        "trunc",
        "field",
    )

    def __init__(self):
        self.groups = {}
        self.perm_actions = {}
        self.embeddings = {}
        self.representations = {}
        self.complexes = {}
        self.charts = {}
        self.models = {}
        self.actions = {}
        self.blocks = {}
        self.trunc = DEFAULT_TRUNC
        self.field = 1  # L of MAX_FIELD_DEGREE, so far


def _load_group(body):
    """The group and, when permutations declare it, their closure."""
    table = body.get("table")
    if table is not None:
        # refuse the order before anything is read of the table
        if isinstance(table.value, list) and len(table.value) > MAX_ORDER:
            table.fail("group order exceeds the scenario cap of %d" % MAX_ORDER)
        rows = table.list()
        n = len(rows)
        rows = [r.ints(n, n, "multiplication table is not square") for r in rows]
        names = body.get("names")
        if names is not None:
            names = [f.text() for f in names.list(n, "need one name per element")]
        return body.build(FiniteGroup, rows, names), None
    perms = body.get("permutations")
    if perms is not None:
        gens = perms.list()
        if not gens:
            perms.fail("need at least one generator")
        d = len(gens[0].list())
        message = "not a permutation of 0..%d" % (d - 1)
        return body.build(FiniteGroup.from_generators, d, [p.ints(d, d, message) for p in gens])
    # each refuses an order past the cap before building; D_n for a larger
    # n than the cap stops its closure at the cap, as D_48 does
    for key, make in (
        ("cyclic", FiniteGroup.cyclic),
        ("symmetric", FiniteGroup.symmetric),
        ("dihedral", lambda n: FiniteGroup.dihedral(min(n, MAX_ORDER))),
    ):
        n = body.get(key)
        if n is not None:
            return n.build(make, n.int()), None
    if "quaternion" in body.value:
        return FiniteGroup.quaternion(), None
    body.fail("group needs one of: table, permutations, cyclic, symmetric, dihedral, quaternion")


def _load_embedding(body):
    sc = body.sc
    target = body.ref(sc.groups, "target")
    elements = body.get("elements")
    if elements is not None:
        sub, emb = body.build(subgroup_embedding, target, elements.ints(target.size))
        register = body.get("register_source")
        if register is not None:
            if register.text() in sc.groups:
                register.fail("group name %r already taken" % register.value)
            sc.groups[register.value] = sub
        return emb
    mapping = body.get("mapping")
    if mapping is not None:
        source = body.ref(sc.groups, "source")
        images = mapping.ints(target.size, source.size, "need one image per source element")
        return body.build(GroupEmbedding, source, target, images)
    body.fail("embedding needs either elements or source+mapping")


def _load_representation(body):
    group = body.ref(body.sc.groups, "group")
    # a chart's eigenvalues are roots of unity of the group's element orders
    body.get("group").widen(math.lcm(*map(group.order_of, group.elements())))
    n = group.size
    mats = body.get("matrices")
    if mats is not None:
        mats = mats.list(n, "need one matrix per group element (%d)" % n)
        dim = len(mats[0].list())
        return body.build(Representation, group, [m.matrix(dim, dim) for m in mats])
    values = body.get("values")
    if values is not None:
        values = values.list(n, "need one value per group element (%d)" % n)
        return body.build(Representation.one_dimensional, group, [v.cyc() for v in values])
    if body.value.get("trivial"):
        return Representation.trivial(group)
    if body.value.get("zero"):
        return Representation.zero_dimensional(group)
    perm = body.get("permutation")
    if perm is not None:
        rows = perm.list(n, "need one image row per group element")
        k = len(rows[group.identity].list())
        message = "image row must list %d point indices" % k
        return body.build(Representation.permutation, group, [r.ints(k, k, message) for r in rows])
    body.fail("representation needs one of: matrices, values, permutation, trivial, zero")


def _load_complex(body):
    group = body.ref(body.sc.groups, "group")
    entries = body.need("pieces").list()
    if not entries:
        body.get("pieces").fail("a complex needs at least one piece")
    pieces = [p.ref(body.sc.representations) for p in entries]
    for p, rep in zip(entries, pieces):
        if rep.group is not group:
            p.fail("piece lives over a different group")
    n = len(pieces) - 1
    diffs = body.get("differentials", [None] * n).list(n, "need exactly %d differentials" % n)
    diffs = [
        Matrix.zero(b.dim, a.dim) if d.value is None else d.matrix(b.dim, a.dim)
        for d, a, b in zip(diffs, pieces, pieces[1:])
    ]
    check = not body.value.get("skip_validation", False)
    min_degree = body.get("min_degree", 0).int()
    return body.build(EquivariantComplex, group, min_degree, pieces, diffs, check)


def _load_action(body):
    sc = body.sc
    group = body.ref(sc.groups, "group")
    if body.value.get("natural"):
        order = sc.perm_actions.get(body.value["group"])
        if order is None:
            body.get("natural").fail("natural action needs a group declared by permutations")
        return group, len(order[0]), [list(p) for p in order]
    points = body.need("points").int(0, "points must be nonnegative")
    images = body.need("images").list(group.size, "need one image row per group element")
    message = "image row must list %d point indices" % points
    return group, points, [row.ints(points, points, message) for row in images]


def _cap(trunc, nvars, pointer, what="truncation degree"):
    """Refuse a truncation whose series in ``nvars`` variables would hold
    more than MAX_MONOMIALS monomials, C(nvars + trunc, trunc)."""
    if math.comb(nvars + trunc, trunc) > MAX_MONOMIALS:
        raise LoadError(
            "%s %d in %d variables exceeds the cap of %d monomials"
            % (what, trunc, nvars, MAX_MONOMIALS),
            pointer,
        )


def _load_chart(body):
    group, action = body.ref(body.sc.groups, "group"), body.ref(body.sc.representations, "action")
    return body.build(LinearChart, group, action)


def _load_model(body):
    roots = []
    for line in body.need("lines").list():
        z = line.cyc()
        # every root of unity in Q(zeta_n) has order dividing lcm(2, n)
        if z.is_zero() or z ** math.lcm(2, z.order) != 1:
            line.fail("model line is not a root of unity")
        roots.append(z)
    trunc = body.get("trunc")
    if trunc is not None:
        _cap(trunc.trunc(), len(roots), trunc.ptr)
        trunc = trunc.value
    return tuple(roots), trunc


def parse_scenario(data) -> Scenario:
    """Resolve and validate a decoded scenario document."""
    sc = Scenario()
    doc = _Field(sc, data, "").obj()
    version = doc.get("schema_version")
    if version is not None and version.int() != SCHEMA_VERSION:
        version.fail("unsupported schema_version %r" % version.value)
    if "trunc" in data:
        sc.trunc = doc.get("trunc").trunc()
    for name, body in doc.get("groups", {}).members():
        sc.groups[name], order = _load_group(body.obj())
        if order is not None:
            sc.perm_actions[name] = order
    for key, load in (
        ("embeddings", _load_embedding),
        ("representations", _load_representation),
        ("complexes", _load_complex),
        ("charts", _load_chart),
        ("models", _load_model),
        ("actions", _load_action),
    ):
        named = getattr(sc, key)
        for name, body in doc.get(key, {}).members():
            named[name] = load(body.obj())
    for key, load, _, _ in _COMMAND_TABLE.values():
        if key is not None:
            sc.blocks[key] = [_load_block(load, b.obj()) for b in doc.get(key, []).list()]
    return sc


def _load_block(load, body):
    """Load one block with its command's loader.

    The loader gets the file truncation that applies to the block and
    keeps it as ``trunc`` if the block uses one.  A block with ``vars``
    builds series in that many variables and is held to the monomial cap;
    a block with an rrg ``scenario`` has it built here, unless it skips
    validation, and a run at the same truncation reuses it.
    """
    own = body.get("trunc")
    trunc, trunc_at = (body.sc.trunc, "/trunc") if own is None else (own.trunc(), own.ptr)
    label = body.get("label")
    block = {"label": label and label.text(), "pointer": body.ptr}
    block.update(load(body, trunc))
    if "vars" in block:
        # a model's own truncation was capped where the model loads
        _cap(block["trunc"], block["vars"], trunc_at)
    if "scenario" in block and not body.value.get("skip_validation", False):
        trunc = block.get("trunc")
        block["built"] = (trunc, body.build(_rrg_scenario, block, trunc))
    return block


def _load_induce(body, trunc):
    sc = body.sc
    emb = body.ref(sc.embeddings, "embedding")
    rep = body.ref(sc.representations, "representation")
    if rep.group is not emb.source:
        body.get("representation").fail("representation must live over the embedding source")
    return {"emb": emb, "rep": rep}


def _load_chern(body, trunc):
    chart = body.ref(body.sc.charts, "chart")
    cx = body.ref(body.sc.complexes, "complex")
    if cx.group is not chart.group:
        body.get("complex").fail("complex must live over the chart group")
    return {"chart": chart, "cx": cx, "trunc": trunc}


def _load_todd(body, trunc):
    roots, model_trunc = body.ref(body.sc.models, "model")
    if "trunc" not in body.value and model_trunc is not None:
        trunc = model_trunc
    return {"roots": roots, "trunc": trunc, "vars": len(roots)}


def _load_rrg_iso(body, trunc):
    sc = body.sc
    emb = body.ref(sc.embeddings, "embedding")
    chart = body.ref(sc.representations, "chart")
    cx = body.ref(sc.complexes, "complex")
    return {
        "weight": body.knob("weight"),
        "scenario": (IsoSpatialScenario, (emb, chart, cx)),
    }


def _load_rrg_zero_section(body, trunc):
    sc = body.sc
    group = body.ref(sc.groups, "group")
    sub = body.ref(sc.representations, "sub")
    ambient = body.ref(sc.representations, "ambient")
    cx = body.ref(sc.complexes, "complex")
    incl = body.get("inclusion", []).matrix(ambient.dim, sub.dim)
    return {
        "euler": body.knob("euler_factor"),
        "trunc": trunc,
        "vars": max(ambient.dim - sub.dim, 0),
        "scenario": (ZeroSectionScenario, (group, sub, ambient, incl, cx)),
    }


def _load_rrg_general(body, trunc):
    sc = body.sc
    emb = body.ref(sc.embeddings, "embedding")
    sub = body.ref(sc.representations, "sub")
    ambient = body.ref(sc.representations, "ambient")
    cx = body.ref(sc.complexes, "complex")
    incl = body.get("inclusion", []).matrix(ambient.dim, sub.dim)
    return {
        "inversion": body.knob("inversion"),
        "trunc": trunc,
        "vars": max(ambient.dim - sub.dim, 0),
        "scenario": (GeneralScenario, (emb, sub, ambient, incl, cx)),
    }


def _load_groupoid_check(body, trunc):
    if "action" in body.value:
        return {"action": body.ref(body.sc.actions, "action")}
    if "embedding" in body.value:
        return {"gemb": body.ref(body.sc.embeddings, "embedding")}
    body.fail("groupoid check needs an action or an embedding")


def load_scenario(path) -> Scenario:
    """Read, decode, and fully validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise LoadError("not UTF-8 text: %s" % exc, "")
        except RecursionError:
            raise LoadError("invalid JSON: nested too deeply", "")
        except ValueError as exc:  # a decode error, or an integer past the digit limit
            raise LoadError("invalid JSON: %s" % exc, "")
    return parse_scenario(data)


# -- command execution -------------------------------------------------------


def _block_name(kind, index, block):
    label = block.get("label")
    return label if label else "%s[%d]" % (kind, index)


def _error_block(name, message):
    return {"name": name, "passed": False, "error": message, "classes": []}


def _run_induce(name, block, trunc):
    emb, rep = block["emb"], block["rep"]
    chi = character(rep)
    slow = induced_character_sum(emb, chi)
    fast = pushforward_characters(emb, chi)
    classes = [
        {"class": c, "status": "pass" if a == b else "fail", "lhs": str(a), "rhs": str(b)}
        for c, (a, b) in enumerate(zip(slow.values, fast.values))
    ]
    passed = all(e["status"] == "pass" for e in classes)
    return {"name": name, "passed": passed, "classes": classes}


def _run_chern(name, block, trunc):
    cx, chart = block["cx"], block["chart"]
    if not cx.validated:
        try:
            cx.validate()
        except ValueError as exc:
            return _error_block(name, str(exc))
    ch = delocalized_chern(chart, cx, trunc)
    comps = inertia_data(chart)
    rows = []
    for comp, series in zip(comps, ch.components):
        rows.append(
            {
                "class": comp.class_index,
                "element": chart.group.name(comp.element),
                "fixed_dim": comp.fixed_dim,
                "series": str(series),
            }
        )
    return {"name": name, "passed": True, "trunc": trunc, "components": rows}


def _run_todd(name, block, trunc):
    roots = block["roots"]
    model = NormalModel(
        [(z, i) for i, z in enumerate(roots)], trunc, num_vars=len(roots)
    )
    series = todd_delocalized(model)
    return {
        "name": name,
        "passed": True,
        "trunc": trunc,
        "lines": [str(z) for z in roots],
        "series": str(series),
    }


def _rrg_scenario(block, trunc):
    """The block's rrg scenario at ``trunc``, or without one when ``trunc``
    is None; the one built at load is reused at its own truncation."""
    built_trunc, sc = block.get("built", (None, None))
    if sc is not None and built_trunc == trunc:
        return sc
    cls, args = block["scenario"]
    return cls(*args) if trunc is None else cls(*args, trunc)


def _run_checks(name, block, trunc, checks):
    """Build the block's rrg scenario and run ``checks`` on it."""
    try:
        sc = _rrg_scenario(block, trunc)
    except ValueError as exc:
        return _error_block(name, str(exc))
    reports = [report.to_dict() for report in checks(sc)]
    passed = all(r["passed"] for r in reports)
    return {"name": name, "passed": passed, "checks": reports}


def _run_rrg_iso(name, block, trunc):
    return _run_checks(
        name, block, trunc, lambda s: [check_iso_spatial(s, weight=block["weight"])]
    )


def _run_rrg_zero_section(name, block, trunc):
    return _run_checks(
        name, block, trunc, lambda s: [check_zero_section(s, euler_factor=block["euler"])]
    )


def _run_rrg_general(name, block, trunc):
    return _run_checks(
        name,
        block,
        trunc,
        lambda s: [
            check_general_degree0(s, inversion=block["inversion"]),
            check_td_pullback(s),
        ],
    )


def _groupoid_items_for_action(action):
    """The three checks of an action in order; the first failure ends them."""
    group, points, images = action
    items = []
    check = "action-axioms"
    try:
        base = FiniteGroupoid.translation(group, points, images)
        detail = "%d objects, %d arrows" % (base.num_objects, base.num_arrows)
        items.append({"check": check, "status": "pass", "detail": detail})
        check = "inertia-axioms"
        ig = inertia(base)
        detail = "%d loop objects" % ig.groupoid.num_objects
        items.append({"check": check, "status": "pass", "detail": detail})
        check = "morita-decomposition"
        comps = _morita_components(group, points, images, ig)
        for comp in comps:
            if not comp.equivalence.is_morita():
                raise ValueError("component at class %d is not Morita" % comp.class_index)
        items.append({"check": check, "status": "pass", "detail": "%d components" % len(comps)})
    except (ValueError, AssertionError) as exc:
        items.append({"check": check, "status": "fail", "detail": str(exc)})
    return items


def _verdict(check, ok):
    return {"check": check, "status": "pass" if ok else "fail"}


def _groupoid_items_for_embedding(emb):
    src = FiniteGroupoid.from_group(emb.source)
    dst = FiniteGroupoid.from_group(emb.target)
    functor = StrictFunctor(src, dst, [0], list(emb.mapping))
    morphism = GeneralizedMorphism.from_functor(functor)
    flags = classify_embedding(morphism)
    items = [
        {"check": "bibundle-axioms", "status": "pass", "detail": "carrier size %d" % morphism.size},
        _verdict("graph-embedding", classify_embedding(morphism.graph()).embedding),
    ]
    # the comma bibundle of an injective homomorphism is injective, and it is
    # saturated since the one object has every loop: always an embedding
    first, second = factorize(morphism)
    ok = (
        classify_embedding(first).iso_spatial
        and classify_embedding(second).stabilizer_preserving
        and find_isomorphism(first.compose(second), morphism) is not None
    )
    items.append(_verdict("factorize-round-trip", ok))
    if flags.stabilizer_preserving:
        inherited = classify_embedding(inertia_of_morphism(morphism))
        items.append(_verdict("inertia-stabilizers", inherited.stabilizer_preserving))
    else:
        reason = "not stabilizer preserving"
        items.append({"check": "inertia-stabilizers", "status": "skipped", "detail": reason})
    return items


def _run_groupoid_check(name, block, trunc):
    if "action" in block:
        items = _groupoid_items_for_action(block["action"])
    else:
        items = _groupoid_items_for_embedding(block["gemb"])
    passed = all(i["status"] != "fail" for i in items)
    return {"name": name, "passed": passed, "items": items}


def _run_inertia(name, block, trunc):
    group, points, images = block["action"]
    try:
        comps = morita_decompose_inertia(group, points, images)
    except ValueError as exc:
        return _error_block(name, str(exc))
    rows = []
    for comp in comps:
        rows.append(
            {
                "class": comp.class_index,
                "element": group.name(comp.element),
                "loops": len(comp.loop_objects),
                "model_group_order": comp.model_group.size,
                "orbits": [
                    {
                        "base_point": pm.base_point,
                        "stabilizer_order": pm.stabilizer.size,
                    }
                    for pm in comp.point_models
                ],
            }
        )
    return {"name": name, "passed": True, "components": rows}


def _action_blocks(scenario):
    return [
        {"label": label, "action": act} for label, act in sorted(scenario.actions.items())
    ]


def _inertia_blocks(scenario):
    """Every declared action, or else each group acting on one point."""
    return _action_blocks(scenario) or [
        {"label": label, "action": (g, 1, [[0]] * g.size)}
        for label, g in sorted(scenario.groups.items())
    ]


# command: (key of its block list in the scenario file, block loader,
# runner, blocks to run when the file lists none).  Entries are functions
# of this module; they reach the imported checks by global name at call
# time, so a caller that rebinds those names here (a span tracer) sees
# every call.
_COMMAND_TABLE = {
    "inertia": (None, None, _run_inertia, _inertia_blocks),
    "induce": ("induce", _load_induce, _run_induce, None),
    "chern": ("chern", _load_chern, _run_chern, None),
    "todd": ("todd", _load_todd, _run_todd, None),
    "rrg-iso": ("rrg_iso", _load_rrg_iso, _run_rrg_iso, None),
    "rrg-zero-section": (
        "rrg_zero_section", _load_rrg_zero_section, _run_rrg_zero_section, None
    ),
    "rrg-general": ("rrg_general", _load_rrg_general, _run_rrg_general, None),
    "groupoid-check": (
        "groupoid_checks", _load_groupoid_check, _run_groupoid_check, _action_blocks
    ),
}
COMMANDS = list(_COMMAND_TABLE)


def run(command, scenario, trunc=None):
    """Execute one command over a scenario; returns (exit code, report).

    ``trunc`` overrides the truncation degree of every block that has
    one.  It is held to the monomial cap of each block before any block
    runs; a LoadError points at the first block it exceeds.
    """
    key, _, runner, default = _COMMAND_TABLE[command]
    blocks = scenario.blocks.get(key) or (default(scenario) if default else [])
    truncs = [b.get("trunc") for b in blocks]
    if trunc is not None:
        for block in blocks:
            if "vars" in block:
                _cap(trunc, block["vars"], block["pointer"], "--trunc")
        truncs = [t if t is None else trunc for t in truncs]
    results = [
        runner(_block_name(command, i, b), b, t)
        for i, (b, t) in enumerate(zip(blocks, truncs))
    ]
    passed = all(r["passed"] for r in results)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "passed": passed,
        "blocks": results,
    }
    return (0 if passed else 1), report


# -- rendering ----------------------------------------------------------------


def _render_classes(lines, classes):
    for e in classes:
        parts = ["  class %d: %s" % (e["class"], e["status"])]
        if "lhs" in e:
            parts.append("lhs=%s" % e["lhs"])
        if "rhs" in e:
            parts.append("rhs=%s" % e["rhs"])
        if "detail" in e:
            parts.append("(%s)" % e["detail"])
        lines.append("  ".join(parts))


def render_text(report) -> str:
    lines = []
    for block in report["blocks"]:
        head = "%s %s: %s" % (
            report["command"],
            block["name"],
            "pass" if block["passed"] else "fail",
        )
        if "error" in block:
            head += "  (%s)" % block["error"]
        lines.append(head)
        if "classes" in block and block["classes"]:
            _render_classes(lines, block["classes"])
        for chk in block.get("checks", []):
            lines.append(
                "  %s [scenario %s]: %s"
                % (chk["check"], chk["scenario"], "pass" if chk["passed"] else "fail")
            )
            _render_classes(lines, chk["classes"])
        for row in block.get("components", []):
            if "series" in row:
                lines.append(
                    "  class %d (%s), fixed dim %d: %s"
                    % (row["class"], row["element"], row["fixed_dim"], row["series"])
                )
            else:
                lines.append(
                    "  class %d (%s): %d loops, model group order %d, orbits %s"
                    % (
                        row["class"],
                        row["element"],
                        row["loops"],
                        row["model_group_order"],
                        "+".join(
                            "pt/%d" % o["stabilizer_order"] for o in row["orbits"]
                        ),
                    )
                )
        if "series" in block:
            lines.append("  %s" % block["series"])
        for item in block.get("items", []):
            row = "  %s: %s" % (item["check"], item["status"])
            if item.get("detail"):
                row += "  (%s)" % item["detail"]
            lines.append(row)
    if not report["blocks"]:
        lines.append("%s: nothing to do" % report["command"])
    lines.append("OK" if report["passed"] else "FAILED")
    return "\n".join(lines) + "\n"


def render_json(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# -- entry point --------------------------------------------------------------


def _build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="orbichern",
        description="Exact orbifold character calculus over scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in COMMANDS:
        p = sub.add_parser(name, help="run the %s command" % name)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument(
            "--trunc", type=int, default=None, help="series truncation degree"
        )
        p.add_argument(
            "--json", action="store_true", help="emit the machine-readable report"
        )
    return parser


def main(argv=None) -> int:
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.trunc is not None and args.trunc < 0:
        print("error: --trunc must be nonnegative", file=sys.stderr)
        return 2
    try:
        return _execute(args)
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


def _execute(args):
    """Load, run and render one command; returns its exit code."""
    try:
        scenario = load_scenario(args.scenario)
    except (LoadError, OSError) as exc:
        print("load error: %s" % exc, file=sys.stderr)
        return 2
    try:
        code, report = run(args.command, scenario, args.trunc)
    except LoadError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    out = render_json(report) if args.json else render_text(report)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
