"""Finite groupoids and the bibundle calculus between them.

Objects and arrows are integer indices, and every table is a flat NumPy
integer array: ``source``, ``target`` and ``inverses`` per arrow,
``units`` per object.  Composition ``a o b`` (apply ``b`` first) is
defined exactly when ``source(a) == target(b)`` and has one slot per
composable pair, in compressed rows: row ``b`` lists the arrows out of
``target(b)`` in index order, so ``a o b`` sits at
``row_start[b] + pos_out[a]``, where ``pos_out[a]`` is the place of ``a``
among the arrows out of ``source(a)``.  Storage is the number of
composable pairs, never a dense square table.  The left and right
actions of a bibundle use the same layout with one row per carrier
point.  ``comp``, ``left`` and ``right`` are read-only mappings keyed by
pairs (``comp[(a, b)]``, ``left[(g, z)]``, ``right[(z, h)]``); the
constructors accept any such mapping, a dict included, and convert it
once; the internal constructors give a rule that fills the rows by
index arithmetic, run on the table's first read and bound to its inputs'
tables when made, so a table that nothing reads is never built.

Morphisms between groupoids are generalized morphisms: a finite set
carrying commuting left/right actions whose right quotient recovers the
source objects.  On top of that sit graphs, embedding classification
via the pullback comparison, factorization through the image, inertia
groupoids, and the Morita decomposition of inertia for translation
groupoids.

A groupoid, functor or bibundle built with ``check=True`` checks its
axioms as whole array passes.  `from_group` and `translation` read a
`FiniteGroup`, whose table is a group's, skip that check and flag their
output; `translation` checks that ``images`` is an action on every
triple, which with the group axioms implies every groupoid axiom.  The
constructors of the calculus (`product`, `full_subgroupoid`, the inertia
groupoid and ``beta``, `from_functor`, `compose`, `graph`, `factorize`,
`inertia_of_morphism`) skip the check when every input is flagged as
validated, and run it otherwise; their outputs are flagged either way.
Tables are read-only arrays, so a flag cannot go stale.  The cubic check
families (associativity of composition and of the two bibundle actions,
and the commutation between them) run exhaustively up to
`_TRIPLES_FULL` instances, in bounded chunks, and switch to
`_TRIPLES_SAMPLES` draws from a fixed seed beyond that; all linear and
quadratic checks stay exhaustive.  A failing check names the first
failing index.  All enumerations are index ordered, so outputs are
deterministic.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping

from .groups import subgroup_embedding

MAX_ARROWS = 10000
_TRIPLES_FULL = 500000
_TRIPLES_SAMPLES = 20000
_CHUNK = 1 << 16


class _NumpyOnFirstUse:
    """Stands in for the global ``np`` until the first array is needed.

    The first attribute read imports NumPy and rebinds ``np`` to it, so
    later reads go straight to NumPy, and processes that never build a
    groupoid never pay for the import.  Two threads reading first at once
    are safe: the import system runs one import and both get its module.
    """

    __slots__ = ()

    def __getattr__(self, name):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _NumpyOnFirstUse()


# -- flat index helpers -------------------------------------------------------


def _frozen(arr):
    """``arr``, made read-only.  Tables are private read-only arrays, so no
    table of a built object can be edited in place behind its
    ``validated`` flag, neither through the object nor through an array
    the caller kept."""
    arr.flags.writeable = False
    return arr


def _ints(values):
    """``values`` as a new read-only one-dimensional int64 array."""
    arr = np.array(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("expected a flat list of indices")
    return _frozen(arr)


def _derived(obj, *inputs):
    """``obj``, built unchecked by a trusted constructor from ``inputs``,
    and flagged as validated: at once when every input is flagged (always,
    with none: groups carry no flag), else once its own full check has
    passed."""
    if not all(x.validated for x in inputs):
        obj.validate()
    obj.validated = True
    return obj


def _first(flags):
    """Index of the first true entry of ``flags``, or -1."""
    if not len(flags):
        return -1
    i = int(np.argmax(flags))
    return i if flags[i] else -1


def _raise_first(checks):
    """Raise for the first index at which any check fails.

    ``checks`` pairs flag arrays over the same indices with functions
    that word the message; the earliest check failing at that index
    names it.
    """
    i = _first(np.logical_or.reduce([flags for flags, _ in checks]))
    if i >= 0:
        for flags, message in checks:
            if flags[i]:
                raise ValueError(message(i))


def _non_permutation(row):
    """How ``row``, which is not a permutation of its indices, fails to be one."""
    seen = {}
    for x, y in enumerate(row):
        if not 0 <= y < len(row):
            return "sends point %d to %d, which is not a point" % (x, y)
        if y in seen:
            return "sends points %d and %d both to %d" % (seen[y], x, y)
        seen[y] = x


def _fan(keys, count):
    """Group ``range(len(keys))`` by key: ``(start, order, pos)``.

    Group ``k`` is ``order[start[k]:start[k + 1]]`` in index order and
    ``pos[i]`` is the place of ``i`` in its group.
    """
    order = np.argsort(keys, kind="stable")
    start = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=count), out=start[1:])
    pos = np.empty(len(keys), dtype=np.int64)
    pos[order] = np.arange(len(keys)) - start[keys[order]]
    return start, order, pos


def _spread(counts):
    """``(parent, offset)`` enumerating ``range(counts[i])`` for each ``i``."""
    parent = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(len(parent)) - (np.cumsum(counts) - counts)[parent]
    return parent, offset


def _chunks(counts):
    """``_spread(counts)`` in pieces of about `_CHUNK` entries."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(counts):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + _CHUNK, "right")))
        parent, offset = _spread(counts[lo:hi])
        yield parent + lo, offset
        lo = hi


def _check_triples(fan, keys, seed, holds, message):
    """Check ``holds(s, t)`` on each slot ``s`` with each member ``t`` of
    fan group ``keys[s]``: every such triple up to `_TRIPLES_FULL` of
    them, else `_TRIPLES_SAMPLES` slots drawn with ``seed``, each with one
    drawn member."""
    start, order, _ = fan
    first = start[keys]
    counts = start[keys + 1] - first
    if counts.sum() <= _TRIPLES_FULL:
        for s, offset in _chunks(counts):
            if not holds(s, order[first[s] + offset]).all():
                raise ValueError(message)
    else:
        rng = np.random.default_rng(seed)
        s = rng.integers(0, len(keys), _TRIPLES_SAMPLES)
        s = s[counts[s] > 0]
        if not holds(s, order[first[s] + rng.integers(0, counts[s])]).all():
            raise ValueError(message)


def _min_reach(images, starts):
    """Smallest point reachable from each point along one-step ``images``.

    Row ``i`` of ``images``, from ``starts[i]`` on, lists the images of
    point ``i``; every row is non-empty.
    """
    label = np.arange(len(starts))
    if not len(starts):
        return label
    while True:
        nxt = np.minimum(label, np.minimum.reduceat(label[images], starts))
        if (nxt == label).all():
            return label
        label = nxt


def _orbits(action):
    """Orbit index of each carrier point, orbits ordered by least member."""
    reach = _min_reach(action.flat, action.rows.start[:-1])
    return np.unique(reach, return_inverse=True)[1]


def _orbit_anchor_fault(orbit, anchor, count):
    """Why ``anchor`` fails to match orbits with ``range(count)``, or None."""
    values, first = np.unique(anchor, return_index=True)
    per_value = orbit[first]
    if (orbit != per_value[np.searchsorted(values, anchor)]).any():
        return "rho separates a right orbit"
    if len(values) != count:
        return "rho misses an object of the source"
    if len(np.unique(per_value)) != len(np.unique(orbit)):
        return "two right orbits share a rho value"
    return None


class _Rows:
    """Compressed rows over a fan (see `_fan`), such as arrows by source.

    Row ``r`` lists the members of fan group ``keys[r]`` in index order;
    member ``c`` of row ``r`` has slot ``start[r] + pos[c]``, and ``row``
    and ``col`` give each slot's row and member, built on first read.
    """

    __slots__ = ("start", "pos", "row", "col", "_order", "_first")

    def __init__(self, keys, fan):
        fstart, self._order, self.pos = fan
        self._first = fstart[keys]
        self.start = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(fstart[keys + 1] - self._first, out=self.start[1:])

    def __getattr__(self, name):
        # only unset slots get here: ``row`` and ``col`` before first read
        if name not in ("row", "col"):
            raise AttributeError(name)
        row, offset = _spread(self.start[1:] - self.start[:-1])
        self.col = self._order[self._first[row] + offset]
        self.row = row
        return getattr(self, name)

    def slot(self, r, c):
        return self.start[r] + self.pos[c]


class _Table(Mapping):
    """Read-only mapping from pairs to indices, stored on compressed rows.

    Keys are ``(col, row)`` pairs, or ``(row, col)`` when ``row_first``.
    ``flat`` holds each slot's value, -1 where a converted mapping had no
    entry; ``extra`` counts the keys of that mapping that are not slots,
    and ``stray`` is the least of them.  A table given by a rule is
    materialized on the first read of ``flat``.
    """

    __slots__ = ("rows", "flat", "extra", "stray", "row_first", "_rule")

    def __init__(self, rows, values, row_first):
        self.rows, self.row_first = rows, row_first
        self.extra, self.stray = 0, None
        if not isinstance(values, Mapping):
            self._rule = values
            return
        pairs = list(zip(*(a.tolist() for a in self._keys())))
        get = values.get
        self.flat = _frozen(np.fromiter((get(k, -1) for k in pairs), np.int64, len(pairs)))
        if len(values) > np.count_nonzero(self.flat >= 0):
            slots = set(pairs)
            strays = [k for k in values if k not in slots]
            self.extra, self.stray = len(strays), min(strays, default=None)

    def _keys(self):
        rows = self.rows
        return (rows.row, rows.col) if self.row_first else (rows.col, rows.row)

    def __getattr__(self, name):
        # only unset slots get here: ``flat`` of a rule before first read
        if name != "flat":
            raise AttributeError(name)
        self.flat = _frozen(np.array(self._rule(*self._keys()), dtype=np.int64))
        return self.flat

    def check_keys(self, what):
        """Raise naming the least key of a converted mapping that is not a slot."""
        if self.extra:
            raise ValueError("%s defined on %d non-composable pairs, the first %s"
                             % (what, self.extra, self.stray))

    def at(self, x, y):
        """Vectorized lookup of the keys ``zip(x, y)``, all slots."""
        r, c = (x, y) if self.row_first else (y, x)
        return self.flat[self.rows.slot(r, c)]

    def __getitem__(self, key):
        x, y = key
        r, c = (x, y) if self.row_first else (y, x)
        rows = self.rows
        if 0 <= r < len(rows.start) - 1 and 0 <= c < len(rows.pos):
            s = rows.slot(r, c)
            if s < rows.start[r + 1] and rows.col[s] == c and self.flat[s] >= 0:
                return int(self.flat[s])
        raise KeyError(key)

    def __iter__(self):
        defined = self.flat >= 0
        rows = self.rows.row[defined].tolist()
        cols = self.rows.col[defined].tolist()
        return zip(rows, cols) if self.row_first else zip(cols, rows)

    def __len__(self):
        return int(np.count_nonzero(self.flat >= 0))


class FiniteGroupoid:
    """A finite groupoid as explicit source/target/composition tables.

    ``comp`` is a mapping ``{(a, b): a o b}`` over the composable pairs, or
    a function taking the arrays of left and right factors of all
    composable pairs, in row order, and returning their composites.

    ``validated`` is True when a ``check=True`` construction passed, or
    when a trusted constructor built the groupoid from flagged inputs
    (see `_derived`).  Consumers skip their check on a flagged object;
    ``validate()`` ignores the flag.  The same holds for `StrictFunctor`
    and `GeneralizedMorphism`.
    """

    __slots__ = (
        "num_objects",
        "num_arrows",
        "source",
        "target",
        "comp",
        "units",
        "inverses",
        "validated",
        "_out",
        "_in",
    )

    def __init__(self, num_objects, source, target, comp, units, inverses, check=True):
        self.num_objects = int(num_objects)
        self.source = _ints(source)
        self.target = _ints(target)
        self.num_arrows = len(self.source)
        if self.num_arrows > MAX_ARROWS:
            raise ValueError("at most %d arrows are supported" % MAX_ARROWS)
        self.units = _ints(units)
        self.inverses = _ints(inverses)
        self._check_shape()
        self._out = _fan(self.source, self.num_objects)
        self._in = _fan(self.target, self.num_objects)
        self.comp = _Table(_Rows(self.target, self._out), comp, row_first=False)
        if check:
            self.validate()
        self.validated = bool(check)

    # -- axioms ----------------------------------------------------------

    def _check_shape(self):
        n, m = self.num_objects, self.num_arrows
        if len(self.target) != m or len(self.inverses) != m or len(self.units) != n:
            raise ValueError("table sizes are inconsistent")
        s, t = self.source, self.target
        a = _first((s < 0) | (s >= n) | (t < 0) | (t >= n))
        if a >= 0:
            raise ValueError("arrow %d has an endpoint out of range" % a)

    def validate(self):
        self._check_shape()
        n, m = self.num_objects, self.num_arrows
        S, T, U, I = self.source, self.target, self.units, self.inverses
        comp = self.comp
        rows, C = comp.rows, comp.flat
        comp.check_keys("composition")
        missing = C < 0
        ok = ~missing & (C < m)
        wrong = ~ok & ~missing
        wrong[ok] = (S[C[ok]] != S[rows.row[ok]]) | (T[C[ok]] != T[rows.col[ok]])
        pair = lambda s: (rows.col[s], rows.row[s])
        _raise_first([
            (missing, lambda s: "missing composite for composable pair (%d, %d)" % pair(s)),
            (wrong, lambda s: "composite (%d, %d) has wrong endpoints" % pair(s)),
        ])
        objs = np.arange(n)
        ok = (U >= 0) & (U < m)
        bad = ~ok
        bad[ok] = (S[U[ok]] != objs[ok]) | (T[U[ok]] != objs[ok])
        x = _first(bad)
        if x >= 0:
            raise ValueError("unit of object %d is not a loop there" % x)
        arrows = np.arange(m)
        ok = (I >= 0) & (I < m)
        inv_bad = ~ok
        inv_bad[ok] = (S[I[ok]] != T[ok]) | (T[I[ok]] != S[ok])
        ok = ~inv_bad
        a, ai = arrows[ok], I[ok]
        not_unit = np.zeros(m, dtype=bool)
        not_unit[ok] = comp.at(a, ai) != U[T[a]]
        one_sided = np.zeros(m, dtype=bool)
        one_sided[ok] = comp.at(ai, a) != U[S[a]]
        _raise_first([
            (comp.at(arrows, U[S]) != arrows, lambda a: "right unit law fails at arrow %d" % a),
            (comp.at(U[T], arrows) != arrows, lambda a: "left unit law fails at arrow %d" % a),
            (inv_bad, lambda a: "inverse of arrow %d has wrong endpoints" % a),
            (not_unit, lambda a: "arrow %d composed with its inverse is not a unit" % a),
            (one_sided, lambda a: "inverse of arrow %d is only one-sided" % a),
        ])
        # (a o b) o c against a o (b o c): slot (b, c), a from target(b)
        _check_triples(
            self._out,
            T[rows.col],
            0x5EED ^ m,
            lambda s, a: comp.at(comp.at(a, rows.col[s]), rows.row[s]) == comp.at(a, C[s]),
            "composition is not associative",
        )
        return True

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_group(group):
        """One object whose arrows are the group elements; trusted."""
        n = group.size
        mul = np.array(group.table, dtype=np.int64).reshape(n, n)
        return _derived(FiniteGroupoid(
            1,
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            lambda a, b: mul[a, b],
            [group.identity],
            group.inverses,
            check=False,
        ))

    @staticmethod
    def translation(group, num_points, images):
        """Action groupoid of ``group`` on ``{0, .., num_points - 1}``.

        ``images[g][x]`` is ``g . x``; the arrow ``g * num_points + x``
        runs from ``x`` to ``g . x``.  Trusted once ``images`` passes the
        action checks below.
        """
        p = int(num_points)
        n = group.size
        images = tuple(tuple(row) for row in images)
        if len(images) != n or any(len(row) != p for row in images):
            raise ValueError("need one image row of length %d per group element" % p)
        img = np.array(images, dtype=np.int64).reshape(n, p)
        points = np.arange(p)
        g = _first((np.sort(img, axis=1) != points).any(axis=1))
        if g >= 0:
            raise ValueError("not an action: element %d %s" % (g, _non_permutation(images[g])))
        e = group.identity
        x = _first(img[e] != points)
        if x >= 0:
            raise ValueError(
                "not an action: identity %d sends point %d to %d" % (e, x, img[e, x])
            )
        mul = np.array(group.table, dtype=np.int64).reshape(n, n)
        # g . (h . x) against (g h) . x, for every (g, h, x)
        split, joint = img[:, img], img[mul]
        i = _first((split != joint).ravel())
        if i >= 0:
            g, h, x = np.unravel_index(i, split.shape)
            raise ValueError(
                "not an action: composition fails at g=%d, h=%d, point %d:"
                " g.(h.x) = %d, (gh).x = %d" % (g, h, x, split[g, h, x], joint[g, h, x])
            )

        def comp(a, b):
            g1, x = np.divmod(b, p)
            return mul[a // p, g1] * p + x

        return _derived(FiniteGroupoid(
            p,
            np.tile(points, n),
            img.ravel(),
            comp,
            group.identity * p + points,
            (np.array(group.inverses, dtype=np.int64)[:, None] * p + img).ravel(),
            check=False,
        ))

    @staticmethod
    def product(a, b):
        """Product groupoid; pairs are flattened row-major."""
        nb, mb = b.num_objects, b.num_arrows
        if a.num_arrows * mb > MAX_ARROWS:
            raise ValueError("at most %d arrows are supported" % MAX_ARROWS)
        a_at, b_at = a.comp.at, b.comp.at

        def pairs(x, y, k):
            return (x[:, None] * k + y[None, :]).ravel()

        def comp(p, q):
            p1, q1 = np.divmod(p, mb)
            p2, q2 = np.divmod(q, mb)
            return a_at(p1, p2) * mb + b_at(q1, q2)

        prod = FiniteGroupoid(
            a.num_objects * nb,
            pairs(a.source, b.source, nb),
            pairs(a.target, b.target, nb),
            comp,
            pairs(a.units, b.units, mb),
            pairs(a.inverses, b.inverses, mb),
            check=False,
        )
        return _derived(prod, a, b)

    def full_subgroupoid(self, objects):
        """Restrict to ``objects``; returns the piece and its inclusion."""
        objs = sorted({int(x) for x in objects})
        if any(not 0 <= x < self.num_objects for x in objs):
            raise ValueError("object out of range")
        keep = np.zeros(self.num_objects, dtype=bool)
        keep[objs] = True
        obj_index = np.cumsum(keep) - 1
        arrs = np.flatnonzero(keep[self.source] & keep[self.target])
        arr_index = np.full(self.num_arrows, -1, dtype=np.int64)
        arr_index[arrs] = np.arange(len(arrs))
        comp_at = self.comp.at
        sub = FiniteGroupoid(
            len(objs),
            obj_index[self.source[arrs]],
            obj_index[self.target[arrs]],
            lambda a, b: arr_index[comp_at(arrs[a], arrs[b])],
            arr_index[self.units[objs]],
            arr_index[self.inverses[arrs]],
            check=False,
        )
        _derived(sub, self)
        incl = StrictFunctor(sub, self, objs, arrs.tolist(), check=False)
        return sub, _derived(incl, self)


class StrictFunctor:
    """An object map and an arrow map preserving all structure."""

    __slots__ = ("src", "dst", "obj_map", "arr_map", "validated")

    def __init__(self, src, dst, obj_map, arr_map, check=True):
        self.src = src
        self.dst = dst
        self.obj_map = tuple(obj_map)
        self.arr_map = tuple(arr_map)
        if check:
            self.validate()
        self.validated = bool(check)

    def validate(self):
        g, h = self.src, self.dst
        if len(self.obj_map) != g.num_objects or len(self.arr_map) != g.num_arrows:
            raise ValueError("functor tables have the wrong size")
        obj, arr = _ints(self.obj_map), _ints(self.arr_map)
        ok = (arr >= 0) & (arr < h.num_arrows)
        bad_source = ~ok
        bad_source[ok] = obj[g.source[ok]] != h.source[arr[ok]]
        bad_target = np.zeros(g.num_arrows, dtype=bool)
        bad_target[ok] = obj[g.target[ok]] != h.target[arr[ok]]
        _raise_first([
            (bad_source, lambda a: "functor breaks sources at arrow %d" % a),
            (bad_target, lambda a: "functor breaks targets at arrow %d" % a),
        ])
        x = _first(arr[g.units] != h.units[obj])
        if x >= 0:
            raise ValueError("functor breaks the unit at object %d" % x)
        rows, c = g.comp.rows, g.comp.flat
        s = _first(h.comp.at(arr[rows.col], arr[rows.row]) != arr[c])
        if s >= 0:
            raise ValueError(
                "functor breaks composition at (%d, %d)" % (rows.col[s], rows.row[s])
            )
        return True

    @staticmethod
    def identity(groupoid):
        ident = StrictFunctor(
            groupoid,
            groupoid,
            range(groupoid.num_objects),
            range(groupoid.num_arrows),
            check=False,
        )
        # unchecked, so flagged exactly when its input is
        ident.validated = groupoid.validated
        return ident

    def then(self, other):
        """Composite functor ``other o self``."""
        if other.src is not self.dst:
            raise ValueError("functors are not composable")
        composite = StrictFunctor(
            self.src,
            other.dst,
            [other.obj_map[x] for x in self.obj_map],
            [other.arr_map[a] for a in self.arr_map],
            check=False,
        )
        # unchecked, so flagged exactly when both inputs are
        composite.validated = self.validated and other.validated
        return composite


class GeneralizedMorphism:
    """A bibundle from ``src`` to ``dst``.

    The carrier is ``{0, .., size - 1}`` with anchor maps ``rho`` (to
    src objects) and ``sigma`` (to dst objects).  ``left[(g, z)]`` is
    defined exactly when ``src.source[g] == rho[z]`` and moves rho to
    ``src.target[g]``; ``right[(z, h)]`` is defined exactly when
    ``dst.target[h] == sigma[z]`` and moves sigma to ``dst.source[h]``.
    The right action is free and ``rho`` identifies right orbits with
    src objects.  ``left`` and ``right`` are given as mappings or as
    functions of the key arrays ``(g, z)`` and ``(z, h)`` of all their
    slots, in row order.
    """

    __slots__ = (
        "src", "dst", "size", "rho", "sigma", "left", "right", "validated",
    )

    def __init__(self, src, dst, rho, sigma, left, right, check=True):
        self.src = src
        self.dst = dst
        self.rho = _ints(rho)
        self.sigma = _ints(sigma)
        self.size = len(self.rho)
        self._check_anchors()
        self.left = _Table(_Rows(self.rho, src._out), left, row_first=False)
        self.right = _Table(_Rows(self.sigma, dst._in), right, row_first=True)
        if check:
            self.validate()
        self.validated = bool(check)

    # -- invariants -------------------------------------------------------

    def _check_anchors(self):
        if len(self.sigma) != self.size:
            raise ValueError("anchor maps have different lengths")
        rho, sigma = self.rho, self.sigma
        _raise_first([
            ((rho < 0) | (rho >= self.src.num_objects), lambda z: "rho out of range at %d" % z),
            ((sigma < 0) | (sigma >= self.dst.num_objects),
             lambda z: "sigma out of range at %d" % z),
        ])

    def _faults(self, action, lands, arrow_end, keeps):
        """Missing and anchor-breaking slots of one action: the slot of
        arrow ``c`` at ``z`` must land where ``lands`` is ``arrow_end[c]``
        and ``keeps`` is as at ``z``."""
        rows, w = action.rows, action.flat
        missing = w < 0
        ok = ~missing & (w < self.size)
        broken = ~ok & ~missing
        broken[ok] = (lands[w[ok]] != arrow_end[rows.col[ok]]) | (
            keeps[w[ok]] != keeps[rows.row[ok]]
        )
        return missing, broken

    def validate(self):
        self._check_anchors()
        g, h = self.src, self.dst
        rho, sigma, size = self.rho, self.sigma, self.size
        left, right = self.left, self.right

        rows, rrows = left.rows, right.rows
        missing, broken = self._faults(left, rho, g.target, sigma)
        _raise_first([
            (missing, lambda s: "left action undefined for arrow %d at %d"
             % (rows.col[s], rows.row[s])),
            (broken, lambda s: "left action breaks anchors at (%d, %d)"
             % (rows.col[s], rows.row[s])),
        ])
        left.check_keys("left action")
        missing, broken = self._faults(right, sigma, h.source, rho)
        _raise_first([
            (missing, lambda s: "right action undefined for arrow %d at %d"
             % (rrows.col[s], rrows.row[s])),
            (broken, lambda s: "right action breaks anchors at (%d, %d)"
             % (rrows.row[s], rrows.col[s])),
        ])
        right.check_keys("right action")

        points = np.arange(size)
        _raise_first([
            (left.at(g.units[rho], points) != points,
             lambda z: "left unit moves carrier point %d" % z),
            (right.at(points, h.units[sigma]) != points,
             lambda z: "right unit moves carrier point %d" % z),
        ])

        gc, hc = g.comp, h.comp
        # (a2 o a1) . z against a2 . (a1 . z): slot (a2, a1), z over rho
        _check_triples(
            _fan(rho, g.num_objects),
            g.source[gc.rows.row],
            0xB1B ^ size,
            lambda s, z: left.at(gc.rows.col[s], left.at(gc.rows.row[s], z))
            == left.at(gc.flat[s], z),
            "left action is not associative",
        )
        # z . (b1 o b2) against (z . b1) . b2: slot (b1, b2), z over sigma
        _check_triples(
            _fan(sigma, h.num_objects),
            h.target[hc.rows.col],
            0xB1B2 ^ size,
            lambda s, z: right.at(right.at(z, hc.rows.col[s]), hc.rows.row[s])
            == right.at(z, hc.flat[s]),
            "right action is not associative",
        )
        # (a . z) . b against a . (z . b): slot (a, z), b into sigma(z)
        _check_triples(
            h._in,
            sigma[rows.row],
            0xC0A ^ size,
            lambda s, b: right.at(left.flat[s], b)
            == left.at(rows.col[s], right.at(rows.row[s], b)),
            "the two actions do not commute",
        )

        s = _first((right.flat == rrows.row) & (rrows.col != h.units[sigma[rrows.row]]))
        if s >= 0:
            raise ValueError("right action is not free at %d" % rrows.row[s])
        fault = _orbit_anchor_fault(_orbits(right), rho, g.num_objects)
        if fault is not None:
            raise ValueError(fault)
        return True

    def is_morita(self):
        """True when the bibundle is principal on both sides."""
        if not self.validated:
            self.validate()
        rows, w = self.left.rows, self.left.flat
        if ((w == rows.row) & (rows.col != self.src.units[self.rho[rows.row]])).any():
            return False
        if len(np.unique(self.sigma)) != self.dst.num_objects:
            return False
        orbit = _orbits(self.left)
        return _orbit_anchor_fault(orbit, self.sigma, self.dst.num_objects) is None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_functor(functor):
        """Comma bibundle of a strict functor."""
        g, h = functor.src, functor.dst
        arr = _ints(functor.arr_map)
        # carrier: the slots (x, b) with b into the image of x
        points = _Rows(_ints(functor.obj_map), h._in)
        x, b = points.row, points.col
        g_target, h_at = g.target, h.comp.at
        comma = GeneralizedMorphism(
            g,
            h,
            x,
            h.source[b],
            lambda a, z: points.slot(g_target[a], h_at(arr[a], b[z])),
            lambda z, b2: points.slot(x[z], h_at(b[z], b2)),
            check=False,
        )
        return _derived(comma, functor, g, h)

    @staticmethod
    def identity(groupoid):
        return GeneralizedMorphism.from_functor(StrictFunctor.identity(groupoid))

    # -- calculus -----------------------------------------------------------

    def compose(self, other):
        """Composite bibundle ``self`` followed by ``other``."""
        if other.src is not self.dst:
            raise ValueError("morphisms are not composable")
        h = self.dst
        # the pairs (z, w) with sigma(z) == rho(w), then their h-orbits
        pairs = _Rows(self.sigma, _fan(other.rho, h.num_objects))
        pz, pw = pairs.row, pairs.col
        # one step (z, w) -> (z . b, b^-1 . w) for each b into sigma(z)
        steps = _Rows(self.sigma[pz], h._in)
        p, b = steps.row, steps.col
        images = pairs.slot(self.right.at(pz[p], b), other.left.at(h.inverses[b], pw[p]))
        reps, cls = np.unique(_min_reach(images, steps.start[:-1]), return_inverse=True)
        rz, rw = pz[reps], pw[reps]
        left_at, right_at = self.left.at, other.right.at
        composite = GeneralizedMorphism(
            self.src,
            other.dst,
            self.rho[rz],
            other.sigma[rw],
            lambda a, c: cls[pairs.slot(left_at(a, rz[c]), rw[c])],
            lambda c, b2: cls[pairs.slot(rz[c], right_at(rw[c], b2))],
            check=False,
        )
        return _derived(composite, self, other, self.src, h, other.dst)

    def graph(self):
        """Graph bibundle into the product of source and target."""
        g, h = self.src, self.dst
        prod = FiniteGroupoid.product(g, h)
        # carrier: the slots (a, z) with rho(z) == source(a)
        points = _Rows(g.source, _fan(self.rho, g.num_objects))
        ca, cz = points.row, points.col
        mh, g_inverses, g_at = h.num_arrows, g.inverses, g.comp.at
        left_at, right_at = self.left.at, self.right.at

        def right(i, pair_arrow):
            a2, b = np.divmod(pair_arrow, mh)
            moved = right_at(left_at(g_inverses[a2], cz[i]), b)
            return points.slot(g_at(ca[i], a2), moved)

        graph = GeneralizedMorphism(
            g,
            prod,
            g.target[ca],
            g.source[ca] * h.num_objects + self.sigma[cz],
            lambda a2, i: points.slot(g_at(a2, ca[i]), cz[i]),
            right,
            check=False,
        )
        return _derived(graph, self, g, h)


class PullbackComparison:
    """The two pulled-back groupoids over a carrier and the map between them.

    The pulled-back groupoids have the arrows ``(z1, arrow, z2)`` (from
    ``z2`` to ``z1``) of the source and target groupoids along the
    anchors, ``gt_count`` and ``ht_count`` of them; the comparison sends
    a source triple to the unique target triple with
    ``arrow . z2 == z1 . image``.  The triple lists grow quadratically
    in the carrier, so only the classification is kept, computed in
    aggregate: the comparison preserves the carrier pair ``(z1, z2)``,
    and within a pair its arrow component is determined by
    ``arrow . z2`` (the right action is a function, so distinct
    comparison arrows at ``z1`` land on distinct carrier points).
    Injectivity therefore reduces to injectivity of
    ``arrow |-> arrow . z2`` per carrier point, and the triple counts
    and the saturation condition depend only on anchor-fibre
    multiplicities.  The bibundle must be validated.
    """

    __slots__ = ("morphism", "gt_count", "ht_count", "_injective", "_saturated")

    def __init__(self, morphism):
        self.morphism = morphism
        f = morphism
        g, h = f.src, f.dst
        anchors = list(Counter(zip(f.rho.tolist(), f.sigma.tolist())).items())
        g_between = Counter(zip(g.source.tolist(), g.target.tolist()))
        h_between = Counter(zip(h.source.tolist(), h.target.tolist()))
        gt_count = 0
        ht_count = 0
        saturated = True
        for (x1, y1), c1 in anchors:
            for (x2, y2), c2 in anchors:
                ga = g_between.get((x2, x1), 0)
                hb = h_between.get((y2, y1), 0)
                gt_count += c1 * c2 * ga
                ht_count += c1 * c2 * hb
                if hb and not ga:
                    saturated = False
        self.gt_count = gt_count
        self.ht_count = ht_count
        self._saturated = saturated
        z2, w = f.left.rows.row, f.left.flat
        self._injective = len(np.unique(z2 * f.size + w)) == len(w)

    def is_injective(self):
        return self._injective

    def is_saturated(self):
        return self._saturated

    def is_bijective(self):
        return self._injective and self.gt_count == self.ht_count


class EmbeddingFlags:
    __slots__ = ("embedding", "iso_spatial", "stabilizer_preserving", "comparison")

    def __init__(self, embedding, iso_spatial, stabilizer_preserving, comparison):
        self.embedding = embedding
        self.iso_spatial = iso_spatial
        self.stabilizer_preserving = stabilizer_preserving
        self.comparison = comparison

    def __repr__(self):
        return "EmbeddingFlags(embedding=%r, iso_spatial=%r, stabilizer_preserving=%r)" % (
            self.embedding,
            self.iso_spatial,
            self.stabilizer_preserving,
        )


def classify_embedding(morphism):
    """Decide embedding / iso-spatial / stabilizer-preserving for a bibundle."""
    if not morphism.validated:
        morphism.validate()
    comparison = PullbackComparison(morphism)
    embedding = comparison.is_injective() and comparison.is_saturated()
    iso_spatial = embedding and len(np.unique(morphism.sigma)) == morphism.dst.num_objects
    stabilizer_preserving = embedding and comparison.is_bijective()
    return EmbeddingFlags(embedding, iso_spatial, stabilizer_preserving, comparison)


def factorize(morphism):
    """Split an embedding through the full subgroupoid on its image.

    Returns ``(first, second)`` with ``first`` iso-spatial onto the
    image piece, ``second`` the stabilizer-preserving comma bibundle of
    the inclusion, and ``second . first`` isomorphic to the input.
    """
    flags = classify_embedding(morphism)
    if not flags.embedding:
        raise ValueError("only embeddings factor through their image")
    h = morphism.dst
    piece, incl = h.full_subgroupoid(morphism.sigma.tolist())
    obj_index = np.full(h.num_objects, -1, dtype=np.int64)
    obj_index[list(incl.obj_map)] = np.arange(piece.num_objects)
    arr_map = _ints(incl.arr_map)
    right_at = morphism.right.at
    first = GeneralizedMorphism(
        morphism.src,
        piece,
        morphism.rho,
        obj_index[morphism.sigma],
        morphism.left.at,
        lambda z, b: right_at(z, arr_map[b]),
        check=False,
    )
    _derived(first, morphism, morphism.src, h)
    second = GeneralizedMorphism.from_functor(incl)
    return first, second


def _moves(f):
    """Per carrier point, its left images then its right images, in row order."""
    lv, ls = f.left.flat.tolist(), f.left.rows.start.tolist()
    rv, rs = f.right.flat.tolist(), f.right.rows.start.tolist()
    return [lv[ls[z]:ls[z + 1]] + rv[rs[z]:rs[z + 1]] for z in range(f.size)]


def find_isomorphism(a, b):
    """A bijection of carriers respecting anchors and both actions, or None.

    Points with equal anchors have aligned action rows, so the k-th move
    of ``z`` in ``a`` corresponds to the k-th move of its image in ``b``.
    """
    if a.src is not b.src or a.dst is not b.dst or a.size != b.size:
        return None
    moves_a, moves_b = _moves(a), _moves(b)
    anchor_a = list(zip(a.rho.tolist(), a.sigma.tolist()))
    anchor_b = list(zip(b.rho.tolist(), b.sigma.tolist()))
    buckets = {}
    for w, anchor in enumerate(anchor_b):
        buckets.setdefault(anchor, []).append(w)
    mapping = [-1] * a.size
    used = [False] * b.size

    def undo(made):
        for zz in made:
            used[mapping[zz]] = False
            mapping[zz] = -1

    def assign(z0, w0):
        made = []
        stack = [(z0, w0)]
        while stack:
            z, w = stack.pop()
            if mapping[z] == w:
                continue
            if mapping[z] != -1 or used[w] or anchor_a[z] != anchor_b[w]:
                undo(made)
                return None
            mapping[z] = w
            used[w] = True
            made.append(z)
            stack.extend(zip(moves_a[z], moves_b[w]))
        return made

    def solve(start):
        z0 = start
        while z0 < a.size and mapping[z0] != -1:
            z0 += 1
        if z0 == a.size:
            return True
        for w0 in buckets.get(anchor_a[z0], ()):
            if used[w0]:
                continue
            made = assign(z0, w0)
            if made is None:
                continue
            if solve(z0 + 1):
                return True
            undo(made)
        return False

    return list(mapping) if solve(0) else None


class InertiaGroupoid:
    """Loops of a groupoid with conjugation arrows.

    Objects index ``loops``; the arrow ``(i, j, gamma)`` conjugates
    ``loops[i]`` into ``loops[j]`` by the base arrow ``gamma``.  The
    arrows out of loop ``i`` are numbered in the index order of the base
    arrows out of its object.  ``beta`` is the forgetful functor
    back to the base, so arrow ``k`` is ``(groupoid.source[k],
    groupoid.target[k], beta.arr_map[k])``, and ``tau[i]`` is the
    canonical automorphism of loop ``i`` given by the loop itself.
    """

    __slots__ = (
        "base", "groupoid", "loops", "beta", "tau",
        "_loop_index", "_arrows",
    )

    def __init__(self, base):
        self.base = base
        source = base.source
        loops = np.flatnonzero(source == base.target)
        self.loops = tuple(loops.tolist())
        self._loop_index = np.full(base.num_arrows, -1, dtype=np.int64)
        self._loop_index[loops] = np.arange(len(loops))
        at = source[loops]
        # arrow k is the slot (loop i, gamma out of its object)
        self._arrows = arrows = _Rows(at, base._out)
        i, gamma = arrows.row, arrows.col
        base_at = base.comp.at
        conj = base_at(base_at(gamma, loops[i]), base.inverses[gamma])
        j = self._loop_index[conj]
        arrow = arrows.slot
        everyone = np.arange(len(loops))
        self.groupoid = ig = FiniteGroupoid(
            len(loops),
            i,
            j,
            lambda k2, k1: arrow(i[k1], base_at(gamma[k2], gamma[k1])),
            arrow(everyone, base.units[at]),
            arrow(j, base.inverses[gamma]),
            check=False,
        )
        _derived(ig, base)
        beta = StrictFunctor(ig, base, at.tolist(), gamma.tolist(), check=False)
        self.beta = _derived(beta, base)
        tau = arrow(everyone, loops)
        self.tau = tuple(tau.tolist())
        k = np.arange(len(i))
        if (ig.comp.at(ig.comp.at(k, tau[i]), ig.inverses) != tau[j]).any():
            raise ValueError("canonical loop section is not conjugation equivariant")

    def arrow(self, i, gamma):
        """Arrow index of the conjugation of loop ``i`` by base arrow ``gamma``."""
        if self.base.source[gamma] != self.base.source[self.loops[i]]:
            raise KeyError((i, gamma))
        return int(self._arrows.slot(i, gamma))

    def loop_object(self, base_arrow):
        i = int(self._loop_index[base_arrow])
        if i < 0:
            raise ValueError("arrow %d is not a loop" % base_arrow)
        return i


def inertia(base):
    return InertiaGroupoid(base)


def inertia_of_morphism(morphism, inertia_src=None, inertia_dst=None):
    """Bibundle induced on inertia groupoids.

    The carrier is the set of ``(g, z, h)`` with ``g . z == z . h``; the
    middle leg ``h`` is unique by freeness, so the components anchor to
    the loop ``g`` upstairs and the loop ``h`` downstairs.
    """
    f = morphism
    g, h = f.src, f.dst
    isrc = inertia_src if inertia_src is not None else inertia(g)
    idst = inertia_dst if inertia_dst is not None else inertia(h)
    if isrc.base is not g or idst.base is not h:
        raise ValueError("inertia groupoids do not match the morphism")
    # carrier: the slots (z, loop of g at rho(z))
    src_loops = np.asarray(isrc.loops, dtype=np.int64)
    points = _Rows(f.rho, _fan(g.source[src_loops], g.num_objects))
    cz, ci = points.row, points.col
    moved = f.left.at(src_loops[ci], cz)
    # the first loop b at sigma(z) with z . b == g . z
    rows, w = f.right.rows, f.right.flat
    is_loop = h.source[rows.col] == h.target[rows.col]
    keys = rows.row[is_loop] * f.size + w[is_loop]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    want = cz * f.size + moved
    # every point has its unit loop, so ``keys`` is empty only with ``want``
    at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    lost = _first(keys[at] != want)
    if lost >= 0:
        raise ValueError("carrier point %d has no matching loop downstairs" % cz[lost])
    cj = idst._loop_index[rows.col[is_loop][order[at]]]
    gamma, eta = isrc._arrows.col, idst._arrows.col
    left_at, right_at, lands = f.left.at, f.right.at, isrc.groupoid.target
    lam = GeneralizedMorphism(
        isrc.groupoid,
        idst.groupoid,
        ci,
        cj,
        lambda k, c: points.slot(left_at(gamma[k], cz[c]), lands[k]),
        lambda c, k: points.slot(right_at(cz[c], eta[k]), ci[c]),
        check=False,
    )
    return _derived(lam, f, g, h, isrc.groupoid, idst.groupoid)


class PointModel:
    """A single orbit presented as one point modulo its stabilizer."""

    __slots__ = ("orbit", "base_point", "stabilizer", "equivalence", "piece")

    def __init__(self, orbit, base_point, stabilizer, equivalence, piece):
        self.orbit = orbit
        self.base_point = base_point
        self.stabilizer = stabilizer
        self.equivalence = equivalence
        self.piece = piece


class MoritaComponent:
    """One conjugacy class worth of loops inside an inertia groupoid."""

    __slots__ = (
        "class_index",
        "element",
        "loop_objects",
        "piece",
        "model_group",
        "model",
        "equivalence",
        "point_models",
    )

    def __init__(
        self, class_index, element, loop_objects, piece, model_group, model,
        equivalence, point_models,
    ):
        self.class_index = class_index
        self.element = element
        self.loop_objects = loop_objects
        self.piece = piece
        self.model_group = model_group
        self.model = model
        self.equivalence = equivalence
        self.point_models = point_models


def morita_decompose_inertia(group, num_points, images):
    """Split the inertia of a translation groupoid along conjugacy classes.

    For each class with a nonempty fixed set the corresponding loops
    form a full piece of the inertia groupoid; the returned component
    carries a verified principal bibundle from the centralizer acting
    on the fixed set onto that piece, plus one point model per orbit
    inside the fixed set.
    """
    images = tuple(tuple(row) for row in images)
    base = FiniteGroupoid.translation(group, num_points, images)
    return _morita_components(group, num_points, images, inertia(base))


def _morita_components(group, num_points, images, ig):
    """`morita_decompose_inertia` on ``ig``, the built inertia of the
    translation groupoid of ``group`` acting by ``images``."""
    cd = group.conjugacy()
    components = []
    for c, rep in enumerate(cd.reps):
        fixed = [x for x in range(num_points) if images[rep][x] == x]
        if not fixed:
            continue
        # the loop g * num_points + x belongs to the class of g
        loop_objects = [
            i for i, loop in enumerate(ig.loops) if cd.class_of[loop // num_points] == c
        ]
        piece, piece_incl = ig.groupoid.full_subgroupoid(loop_objects)
        cent = cd.centralizers[c]
        zg, zg_emb = subgroup_embedding(group, cent, check=False)
        fixed_index = {x: k for k, x in enumerate(fixed)}
        model_images = [
            [fixed_index[images[zg_emb.mapping[s]][x]] for x in fixed]
            for s in range(zg.size)
        ]
        model = FiniteGroupoid.translation(zg, len(fixed), model_images)
        piece_obj_index = {o: i for i, o in enumerate(piece_incl.obj_map)}
        piece_arr_index = {a: i for i, a in enumerate(piece_incl.arr_map)}
        rep_loop = {x: ig.loop_object(rep * num_points + x) for x in fixed}
        obj_map = [piece_obj_index[rep_loop[x]] for x in fixed]
        arr_map = []
        for s in range(zg.size):
            gamma_elem = zg_emb.mapping[s]
            for k, x in enumerate(fixed):
                gamma = gamma_elem * num_points + x
                ig_arrow = ig.arrow(rep_loop[x], gamma)
                arr_map.append(piece_arr_index[ig_arrow])
        functor = StrictFunctor(model, piece, obj_map, arr_map)
        equivalence = GeneralizedMorphism.from_functor(functor)
        point_models = []
        seen = set()
        for x in fixed:
            if x in seen:
                continue
            orbit = sorted(
                set(images[zg_emb.mapping[s]][x] for s in range(zg.size))
            )
            seen.update(orbit)
            stab_elems = [
                zg_emb.mapping[s]
                for s in range(zg.size)
                if images[zg_emb.mapping[s]][x] == x
            ]
            stab, stab_emb = subgroup_embedding(group, stab_elems, check=False)
            orbit_model_objs = [fixed_index[y] for y in orbit]
            orbit_piece, orbit_incl = model.full_subgroupoid(orbit_model_objs)
            oarr_index = {a: i for i, a in enumerate(orbit_incl.arr_map)}
            oobj_index = {o: i for i, o in enumerate(orbit_incl.obj_map)}
            zg_index = {zg_emb.mapping[s]: s for s in range(zg.size)}
            pt = FiniteGroupoid.from_group(stab)
            pt_arr_map = [
                oarr_index[zg_index[stab_emb.mapping[s]] * len(fixed) + fixed_index[x]]
                for s in range(stab.size)
            ]
            pt_functor = StrictFunctor(
                pt, orbit_piece, [oobj_index[fixed_index[x]]], pt_arr_map
            )
            point_models.append(
                PointModel(
                    tuple(orbit),
                    x,
                    stab,
                    GeneralizedMorphism.from_functor(pt_functor),
                    orbit_piece,
                )
            )
        components.append(
            MoritaComponent(
                c,
                rep,
                tuple(loop_objects),
                piece,
                zg,
                model,
                equivalence,
                point_models,
            )
        )
    return components
