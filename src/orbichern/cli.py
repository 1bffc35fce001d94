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


def _want(value, kind, pointer, what):
    if not isinstance(value, kind):
        raise LoadError("expected %s" % what, pointer)
    return value


def _want_int(value, pointer):
    if isinstance(value, bool) or not isinstance(value, int):
        raise LoadError("expected an integer", pointer)
    return value


def _widen(sc, order, pointer):
    """Take ``order`` into the file's field, or refuse it at ``pointer``."""
    field = math.lcm(sc.field, order)
    if not _field_fits(field):
        raise LoadError(
            "field Q(zeta_%d) exceeds the cap of degree %d" % (field, MAX_FIELD_DEGREE),
            pointer,
        )
    sc.field = field


def _parse_entry(sc, text, pointer):
    try:
        value = parse_cyclotomic(_want(value=text, kind=str, pointer=pointer, what="an expression string"))
    except CycParseError as exc:
        raise LoadError(str(exc), pointer)
    _widen(sc, value.order, pointer)
    return value


def _parse_matrix(sc, rows, ncols, pointer):
    rows = _want(rows, list, pointer, "a list of rows")
    out = []
    for i, row in enumerate(rows):
        row = _want(row, list, "%s/%d" % (pointer, i), "a row list")
        out.append(
            tuple(
                _parse_entry(sc, e, "%s/%d/%d" % (pointer, i, j))
                for j, e in enumerate(row)
            )
        )
    widths = {len(r) for r in out}
    if len(widths) > 1:
        raise LoadError("ragged rows", pointer)
    if ncols is not None and out and len(out[0]) != ncols:
        raise LoadError("expected %d columns" % ncols, pointer)
    return Matrix.from_rows(out, ncols=ncols if (ncols is not None) else None)


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


def _capped(order, pointer):
    """Refuse a group order above the cap, before any table exists."""
    if order > MAX_ORDER:
        raise LoadError("group order exceeds the scenario cap of %d" % MAX_ORDER, pointer)


def _load_group(name, body, ptr):
    body = _want(body, dict, ptr, "an object")
    try:
        if "table" in body:
            table = _want(body["table"], list, ptr + "/table", "a list of rows")
            _capped(len(table), ptr + "/table")
            names = body.get("names")
            return FiniteGroup(table, names=names), None
        if "permutations" in body:
            perms = _want(
                body["permutations"], list, ptr + "/permutations", "a list"
            )
            if not perms:
                raise LoadError("need at least one generator", ptr + "/permutations")
            degree = len(_want(perms[0], list, ptr + "/permutations/0", "a list"))
            return FiniteGroup.from_generators(degree, perms)
        # the branches that read an order n point their refusals at it
        if "cyclic" in body:
            ptr += "/cyclic"
            n = _want_int(body["cyclic"], ptr)
            _capped(n, ptr)
            return FiniteGroup.cyclic(n), None
        if "symmetric" in body:
            ptr += "/symmetric"
            n = _want_int(body["symmetric"], ptr)
            _capped(math.factorial(min(max(n, 0), 5)), ptr)
            return FiniteGroup.symmetric(n), None
        if "dihedral" in body:
            ptr += "/dihedral"
            n = _want_int(body["dihedral"], ptr)
            _capped(2 * n, ptr)
            return FiniteGroup.dihedral(n), None
        if "quaternion" in body:
            return FiniteGroup.quaternion(), None
    except LoadError:
        raise
    except (ValueError, TypeError, IndexError) as exc:
        raise LoadError(str(exc), ptr)
    raise LoadError(
        "group needs one of: table, permutations, cyclic, symmetric, dihedral, quaternion",
        ptr,
    )


def _load_embedding(sc, body, ptr):
    body = _want(body, dict, ptr, "an object")
    target = _ref(sc.groups, body, "target", ptr)
    try:
        if "elements" in body:
            elements = _want(body["elements"], list, ptr + "/elements", "a list")
            sub, emb = subgroup_embedding(target, elements)
            register = body.get("register_source")
            if register is not None:
                if register in sc.groups:
                    raise LoadError(
                        "group name %r already taken" % register,
                        ptr + "/register_source",
                    )
                sc.groups[register] = sub
            return emb
        if "mapping" in body:
            source = _ref(sc.groups, body, "source", ptr)
            mapping = _want(body["mapping"], list, ptr + "/mapping", "a list")
            return GroupEmbedding(source, target, mapping)
    except LoadError:
        raise
    except (ValueError, TypeError, IndexError, KeyError) as exc:
        raise LoadError(str(exc), ptr)
    raise LoadError("embedding needs either elements or source+mapping", ptr)


def _load_representation(sc, body, ptr):
    body = _want(body, dict, ptr, "an object")
    group = _ref(sc.groups, body, "group", ptr)
    # a chart's eigenvalues are roots of unity of the group's element orders
    _widen(sc, math.lcm(*map(group.order_of, group.elements())), ptr + "/group")
    try:
        if "matrices" in body:
            mats_json = _want(body["matrices"], list, ptr + "/matrices", "a list")
            if len(mats_json) != group.size:
                raise LoadError(
                    "need one matrix per group element (%d)" % group.size,
                    ptr + "/matrices",
                )
            dim = len(_want(mats_json[0], list, ptr + "/matrices/0", "a matrix"))
            mats = [
                _parse_matrix(sc, m, dim if dim == 0 else None, "%s/matrices/%d" % (ptr, i))
                for i, m in enumerate(mats_json)
            ]
            return Representation(group, mats)
        if "values" in body:
            vals = _want(body["values"], list, ptr + "/values", "a list")
            if len(vals) != group.size:
                raise LoadError(
                    "need one value per group element (%d)" % group.size,
                    ptr + "/values",
                )
            parsed = tuple(
                _parse_entry(sc, v, "%s/values/%d" % (ptr, i)) for i, v in enumerate(vals)
            )
            return Representation.one_dimensional(group, parsed)
        if body.get("trivial"):
            return Representation.trivial(group)
        if body.get("zero"):
            return Representation.zero_dimensional(group)
        if "permutation" in body:
            images = _want(body["permutation"], list, ptr + "/permutation", "a list")
            return Representation.permutation(group, images)
    except LoadError:
        raise
    except (ValueError, TypeError, IndexError) as exc:
        raise LoadError(str(exc), ptr)
    raise LoadError(
        "representation needs one of: matrices, values, permutation, trivial, zero",
        ptr,
    )


def _load_complex(sc, body, ptr):
    body = _want(body, dict, ptr, "an object")
    group = _ref(sc.groups, body, "group", ptr)
    pieces_json = _want(body.get("pieces"), list, ptr + "/pieces", "a list")
    if not pieces_json:
        raise LoadError("a complex needs at least one piece", ptr + "/pieces")
    pieces = [
        _lookup(sc.representations, pname, "%s/pieces/%d" % (ptr, i))
        for i, pname in enumerate(pieces_json)
    ]
    for i, p in enumerate(pieces):
        if p.group is not group:
            raise LoadError("piece lives over a different group", "%s/pieces/%d" % (ptr, i))
    diffs_json = body.get("differentials", [None] * (len(pieces) - 1))
    diffs_json = _want(diffs_json, list, ptr + "/differentials", "a list")
    if len(diffs_json) != len(pieces) - 1:
        raise LoadError(
            "need exactly %d differentials" % (len(pieces) - 1),
            ptr + "/differentials",
        )
    diffs = []
    for k, d in enumerate(diffs_json):
        shape = (pieces[k + 1].dim, pieces[k].dim)
        if d is None:
            diffs.append(Matrix.zero(*shape))
        else:
            m = _parse_matrix(sc, d, shape[1], "%s/differentials/%d" % (ptr, k))
            if m.shape() != shape:
                raise LoadError(
                    "differential %d has shape %s, expected %s" % (k, m.shape(), shape),
                    "%s/differentials/%d" % (ptr, k),
                )
            diffs.append(m)
    check = not body.get("skip_validation", False)
    try:
        return EquivariantComplex(
            group, _want_int(body.get("min_degree", 0), ptr + "/min_degree"),
            pieces, diffs, check=check,
        )
    except ValueError as exc:
        raise LoadError(str(exc), ptr)


def _load_action(sc, body, ptr):
    body = _want(body, dict, ptr, "an object")
    gname = body.get("group")
    group = _ref(sc.groups, body, "group", ptr)
    if body.get("natural"):
        order = sc.perm_actions.get(gname)
        if order is None:
            raise LoadError(
                "natural action needs a group declared by permutations",
                ptr + "/natural",
            )
        return group, len(order[0]), [list(p) for p in order]
    points = _want_int(body.get("points"), ptr + "/points")
    if points < 0:
        raise LoadError("points must be nonnegative", ptr + "/points")
    images = _want(body.get("images"), list, ptr + "/images", "a list")
    if len(images) != group.size:
        raise LoadError("need one image row per group element", ptr + "/images")
    rows = []
    for i, row in enumerate(images):
        row = _want(row, list, "%s/images/%d" % (ptr, i), "a list")
        if len(row) != points or any(
            not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < points
            for x in row
        ):
            raise LoadError(
                "image row must list %d point indices" % points,
                "%s/images/%d" % (ptr, i),
            )
        rows.append(list(row))
    return group, points, rows


def _lookup(table, name, ptr):
    if not isinstance(name, str) or name not in table:
        raise LoadError("unknown reference %r" % name, ptr)
    return table[name]


def _ref(table, body, key, ptr):
    name = body.get(key)
    if name is None:
        raise LoadError("missing %r" % key, ptr)
    return _lookup(table, name, "%s/%s" % (ptr, key))


def _inclusion_matrix(sc, body, ambient, sub, ptr):
    m = _parse_matrix(sc, body.get("inclusion", []), sub.dim, ptr + "/inclusion")
    if m.nrows == 0 and sub.dim == 0:
        return Matrix.zero(ambient.dim, 0)
    return m


def _trunc(value, pointer):
    """A truncation degree written in the file: a nonnegative integer."""
    if _want_int(value, pointer) < 0:
        raise LoadError("truncation degree must be nonnegative", pointer)
    return value


def _cap(trunc, nvars, pointer, what="truncation degree"):
    """Refuse a truncation whose series in ``nvars`` variables would hold
    more than MAX_MONOMIALS monomials, C(nvars + trunc, trunc)."""
    if math.comb(nvars + trunc, trunc) > MAX_MONOMIALS:
        raise LoadError(
            "%s %d in %d variables exceeds the cap of %d monomials"
            % (what, trunc, nvars, MAX_MONOMIALS),
            pointer,
        )


def _load_chart(sc, body, ptr):
    body = _want(body, dict, ptr, "an object")
    group = _ref(sc.groups, body, "group", ptr)
    action = _ref(sc.representations, body, "action", ptr)
    try:
        return LinearChart(group, action)
    except ValueError as exc:
        raise LoadError(str(exc), ptr)


def _load_model(sc, body, ptr):
    body = _want(body, dict, ptr, "an object")
    lines = _want(body.get("lines"), list, ptr + "/lines", "a list")
    roots = tuple(
        _parse_entry(sc, z, "%s/lines/%d" % (ptr, i)) for i, z in enumerate(lines)
    )
    for i, z in enumerate(roots):
        # every root of unity in Q(zeta_n) has order dividing lcm(2, n)
        if z.is_zero() or z ** math.lcm(2, z.order) != 1:
            raise LoadError("model line is not a root of unity", "%s/lines/%d" % (ptr, i))
    trunc = body.get("trunc")
    if trunc is not None:
        _cap(_trunc(trunc, ptr + "/trunc"), len(roots), ptr + "/trunc")
    return roots, trunc


def parse_scenario(data) -> Scenario:
    """Resolve and validate a decoded scenario document."""
    data = _want(data, dict, "", "a JSON object")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise LoadError("unsupported schema_version %r" % version, "/schema_version")
    sc = Scenario()
    if "trunc" in data:
        sc.trunc = _trunc(data["trunc"], "/trunc")
    for name, body in _want(
        data.get("groups", {}), dict, "/groups", "an object"
    ).items():
        group, order = _load_group(name, body, "/groups/%s" % name)
        sc.groups[name] = group
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
        for name, body in _want(data.get(key, {}), dict, "/" + key, "an object").items():
            named[name] = load(sc, body, "/%s/%s" % (key, name))
    for key, load, _, _ in _COMMAND_TABLE.values():
        if key is None:
            continue
        blocks = _want(data.get(key, []), list, "/" + key, "a list")
        sc.blocks[key] = [
            _load_block(sc, load, b, "/%s/%d" % (key, i)) for i, b in enumerate(blocks)
        ]
    return sc


def _knob(body, key, ptr):
    allowed = _KNOBS[key]
    value = body.get(key, allowed[0])
    if not isinstance(value, str) or value not in allowed:
        raise LoadError("%s must be one of: %s" % (key, ", ".join(allowed)), ptr + "/" + key)
    return value


def _load_block(sc, load, body, ptr):
    """Load one block with its command's loader.

    The loader gets the file truncation that applies to the block and
    keeps it as ``trunc`` if the block uses one.  A block with ``vars``
    builds series in that many variables and is held to the monomial cap;
    a block with an rrg ``scenario`` has it built here, unless it skips
    validation, and a run at the same truncation reuses it.
    """
    body = _want(body, dict, ptr, "an object")
    trunc, trunc_at = sc.trunc, "/trunc"
    if body.get("trunc") is not None:
        trunc_at = ptr + "/trunc"
        trunc = _trunc(body["trunc"], trunc_at)
    block = {"label": body.get("label"), "pointer": ptr}
    block.update(load(sc, body, ptr, trunc))
    if "vars" in block:
        # a model's own truncation was capped where the model loads
        _cap(block["trunc"], block["vars"], trunc_at)
    if "scenario" in block and not body.get("skip_validation", False):
        try:
            block["built"] = (block.get("trunc"), _rrg_scenario(block, block.get("trunc")))
        except ValueError as exc:
            raise LoadError(str(exc), ptr)
    return block


def _load_induce(sc, body, ptr, trunc):
    emb = _ref(sc.embeddings, body, "embedding", ptr)
    rep = _ref(sc.representations, body, "representation", ptr)
    if rep.group is not emb.source:
        raise LoadError(
            "representation must live over the embedding source",
            ptr + "/representation",
        )
    return {"emb": emb, "rep": rep}


def _load_chern(sc, body, ptr, trunc):
    chart = _ref(sc.charts, body, "chart", ptr)
    cx = _ref(sc.complexes, body, "complex", ptr)
    if cx.group is not chart.group:
        raise LoadError("complex must live over the chart group", ptr + "/complex")
    return {"chart": chart, "cx": cx, "trunc": trunc}


def _load_todd(sc, body, ptr, trunc):
    roots, model_trunc = _ref(sc.models, body, "model", ptr)
    if body.get("trunc") is None and model_trunc is not None:
        trunc = model_trunc
    return {"roots": roots, "trunc": trunc, "vars": len(roots)}


def _load_rrg_iso(sc, body, ptr, trunc):
    emb = _ref(sc.embeddings, body, "embedding", ptr)
    chart = _ref(sc.representations, body, "chart", ptr)
    cx = _ref(sc.complexes, body, "complex", ptr)
    return {
        "weight": _knob(body, "weight", ptr),
        "scenario": (IsoSpatialScenario, (emb, chart, cx)),
    }


def _load_rrg_zero_section(sc, body, ptr, trunc):
    group = _ref(sc.groups, body, "group", ptr)
    sub = _ref(sc.representations, body, "sub", ptr)
    ambient = _ref(sc.representations, body, "ambient", ptr)
    cx = _ref(sc.complexes, body, "complex", ptr)
    incl = _inclusion_matrix(sc, body, ambient, sub, ptr)
    return {
        "euler": _knob(body, "euler_factor", ptr),
        "trunc": trunc,
        "vars": max(ambient.dim - sub.dim, 0),
        "scenario": (ZeroSectionScenario, (group, sub, ambient, incl, cx)),
    }


def _load_rrg_general(sc, body, ptr, trunc):
    emb = _ref(sc.embeddings, body, "embedding", ptr)
    sub = _ref(sc.representations, body, "sub", ptr)
    ambient = _ref(sc.representations, body, "ambient", ptr)
    cx = _ref(sc.complexes, body, "complex", ptr)
    incl = _inclusion_matrix(sc, body, ambient, sub, ptr)
    return {
        "inversion": _knob(body, "inversion", ptr),
        "trunc": trunc,
        "vars": max(ambient.dim - sub.dim, 0),
        "scenario": (GeneralScenario, (emb, sub, ambient, incl, cx)),
    }


def _load_groupoid_check(sc, body, ptr, trunc):
    if "action" in body:
        return {"action": _ref(sc.actions, body, "action", ptr)}
    if "embedding" in body:
        return {"gemb": _ref(sc.embeddings, body, "embedding", ptr)}
    raise LoadError("groupoid check needs an action or an embedding", ptr)


def load_scenario(path) -> Scenario:
    """Read, decode, and fully validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise LoadError("invalid JSON: %s" % exc, "")
        except UnicodeDecodeError as exc:
            raise LoadError("not UTF-8 text: %s" % exc, "")
        except RecursionError:
            raise LoadError("invalid JSON: nested too deeply", "")
        except ValueError as exc:  # an integer past the interpreter's digit limit
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
    classes = []
    for c in range(len(slow.values)):
        ok = slow.values[c] == fast.values[c]
        classes.append(
            {
                "class": c,
                "status": "pass" if ok else "fail",
                "lhs": str(slow.values[c]),
                "rhs": str(fast.values[c]),
            }
        )
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


def _skipped(check, reason):
    return {"check": check, "status": "skipped", "detail": reason}


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
    if flags.embedding:
        first, second = factorize(morphism)
        ok = (
            classify_embedding(first).iso_spatial
            and classify_embedding(second).stabilizer_preserving
            and find_isomorphism(first.compose(second), morphism) is not None
        )
        items.append(_verdict("factorize-round-trip", ok))
    else:
        items.append(_skipped("factorize-round-trip", "not an embedding"))
    if flags.stabilizer_preserving:
        inherited = classify_embedding(inertia_of_morphism(morphism))
        items.append(_verdict("inertia-stabilizers", inherited.stabilizer_preserving))
    else:
        items.append(_skipped("inertia-stabilizers", "not stabilizer preserving"))
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
