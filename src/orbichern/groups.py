"""Finite groups as explicit multiplication tables.

Elements are integer indices into a Cayley table.  All algorithms are
exhaustive table walks; conjugacy classes are listed by their smallest
element index and coset representatives are the smallest uncovered
indices, so every derived datum is deterministic.
"""

from __future__ import annotations

import itertools
import math

MAX_ORDER = 48


def _check_order(n):
    """Refuse a group order outside 1..MAX_ORDER, before any table exists."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError("group order must be between 1 and %d" % MAX_ORDER)


class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``check=False`` skips the table checks and asserts that ``table`` is
    a group's, which whatever is built from the group relies on.  In this
    package only `subgroup_embedding` passes it, on a closed subset of a
    checked group; the named constructors below always check.
    """

    __slots__ = ("size", "table", "identity", "inverses", "names", "_conj", "_orders")

    def __init__(self, table, names=None, check=True):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        _check_order(n)
        for row in table:
            if len(row) != n:
                raise ValueError("multiplication table is not square")
        self.size = n
        self.table = table
        self.names = tuple(names) if names is not None else None
        if self.names is not None and len(self.names) != n:
            raise ValueError("need one name per element")
        if check:
            self._check_latin_square()
        self.identity = self._find_identity()
        self.inverses = self._find_inverses()
        if check:
            self._check_associativity()
        self._conj = None
        self._orders = None

    def _check_latin_square(self):
        full = frozenset(range(self.size))
        for i, row in enumerate(self.table):
            if frozenset(row) != full:
                raise ValueError("row %d is not a permutation" % i)
        for j in range(self.size):
            if frozenset(row[j] for row in self.table) != full:
                raise ValueError("column %d is not a permutation" % j)

    def _find_identity(self):
        for e in range(self.size):
            if all(self.table[e][x] == x for x in range(self.size)) and all(
                self.table[x][e] == x for x in range(self.size)
            ):
                return e
        raise ValueError("no identity element")

    def _find_inverses(self):
        inv = [None] * self.size
        e = self.identity
        for a in range(self.size):
            for b in range(self.size):
                if self.table[a][b] == e:
                    if self.table[b][a] != e:
                        raise ValueError("one-sided inverse at element %d" % a)
                    inv[a] = b
                    break
            if inv[a] is None:
                raise ValueError("element %d has no inverse" % a)
        return tuple(inv)

    def _check_associativity(self):
        t = self.table
        elems = range(self.size)
        for a in elems:
            ta = t[a]
            for b in elems:
                tab = t[ta[b]]
                tb = t[b]
                for c in elems:
                    if tab[c] != ta[tb[c]]:
                        raise ValueError("associativity fails at (%d, %d, %d)" % (a, b, c))

    # -- basic operations ------------------------------------------------

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverses[a]

    def conj(self, g, a):
        """g a g^-1."""
        return self.table[self.table[g][a]][self.inverses[g]]

    def elements(self):
        return range(self.size)

    def order_of(self, a):
        if self._orders is None:
            self._orders = [None] * self.size
        if self._orders[a] is None:
            k, x = 1, a
            while x != self.identity:
                x = self.table[x][a]
                k += 1
            self._orders[a] = k
        return self._orders[a]

    def power(self, a, k):
        if k < 0:
            return self.power(self.inverses[a], -k)
        x = self.identity
        for _ in range(k):
            x = self.table[x][a]
        return x

    def name(self, a):
        return self.names[a] if self.names is not None else str(a)

    def conjugacy(self) -> "ConjugacyData":
        if self._conj is None:
            self._conj = _conjugacy(self)
        return self._conj

    def __repr__(self):
        return "FiniteGroup(order=%d)" % self.size

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_mult(elements, mult, names=None):
        """Build from a label list and a multiplication function on labels."""
        _check_order(len(elements))
        index = {x: i for i, x in enumerate(elements)}
        table = [
            [index[mult(a, b)] for b in elements] for a in elements
        ]
        if names is None:
            names = [str(x) for x in elements]
        return FiniteGroup(table, names=names)

    @staticmethod
    def from_generators(degree, perms):
        """Closure of permutations of {0..degree-1} under composition.

        Composition convention: (p*q)(x) = p(q(x)).  The identity gets
        index 0; the remaining elements appear in breadth-first order.
        A closure past ``MAX_ORDER`` elements stops before any table is
        built.
        """
        perms = [tuple(p) for p in perms]
        ident = tuple(range(degree))
        for p in perms:
            if sorted(p) != list(ident):
                raise ValueError("not a permutation of 0..%d" % (degree - 1))
        found = {ident: 0}
        order = [ident]
        queue = [ident]
        while queue:
            x = queue.pop(0)
            for g in perms:
                y = tuple(g[x[i]] for i in range(degree))
                if y not in found:
                    if len(found) >= MAX_ORDER:
                        raise ValueError("closure exceeds the order cap")
                    found[y] = len(order)
                    order.append(y)
                    queue.append(y)
        table = [
            [found[tuple(p[q[i]] for i in range(degree))] for q in order]
            for p in order
        ]
        names = [str(p) for p in order]
        return FiniteGroup(table, names=names), order

    @staticmethod
    def cyclic(n):
        _check_order(n)
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return FiniteGroup(table, names=[str(i) for i in range(n)])

    @staticmethod
    def symmetric(n):
        """S_n on lexicographically sorted permutation labels; identity first."""
        if n < 0:
            raise ValueError("symmetric group needs n >= 0")
        # n! >= n, so clamping n past the cap keeps the refusal and its cost low
        _check_order(math.factorial(min(n, MAX_ORDER + 1)))
        elements = sorted(itertools.permutations(range(n)))
        return FiniteGroup.from_mult(
            elements,
            lambda p, q: tuple(p[q[i]] for i in range(n)),
            names=[str(p) for p in elements],
        )

    @staticmethod
    def dihedral(n):
        """Dihedral group of order 2n acting on the n-gon vertices, n >= 3
        (for smaller n the two generators are not faithful)."""
        if n < 3:
            raise ValueError("dihedral group needs n >= 3")
        rot = tuple((i + 1) % n for i in range(n))
        ref = tuple((n - i) % n for i in range(n))
        g, _ = FiniteGroup.from_generators(n, [rot, ref])
        return g

    @staticmethod
    def quaternion():
        """The quaternion group {+-1, +-i, +-j, +-k}."""
        basis_mult = {
            (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
            (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
            (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
            (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
        }
        elements = [(s, b) for b in range(4) for s in (1, -1)]
        labels = {(1, 0): "1", (-1, 0): "-1", (1, 1): "i", (-1, 1): "-i",
                  (1, 2): "j", (-1, 2): "-j", (1, 3): "k", (-1, 3): "-k"}

        def mult(x, y):
            s, b = basis_mult[(x[1], y[1])]
            return (s * x[0] * y[0], b)

        return FiniteGroup.from_mult(elements, mult, names=[labels[x] for x in elements])

    @staticmethod
    def direct_product(a, b):
        na, nb = a.size, b.size
        _check_order(na * nb)
        table = [
            [
                a.table[x // nb][y // nb] * nb + b.table[x % nb][y % nb]
                for y in range(na * nb)
            ]
            for x in range(na * nb)
        ]
        names = [
            "(%s,%s)" % (a.name(x), b.name(y))
            for x in range(na)
            for y in range(nb)
        ]
        return FiniteGroup(table, names=names)


class ConjugacyData:
    """Conjugacy classes, ordered by smallest member index."""

    __slots__ = ("group", "reps", "class_of", "sizes", "centralizers")

    def __init__(self, group, reps, class_of, sizes, centralizers):
        self.group = group
        self.reps = reps
        self.class_of = class_of
        self.sizes = sizes
        self.centralizers = centralizers

    def num_classes(self):
        return len(self.reps)

    def centralizer_order(self, c):
        return len(self.centralizers[c])


def _conjugacy(group) -> ConjugacyData:
    n = group.size
    class_of = [-1] * n
    reps = []
    sizes = []
    for a in range(n):
        if class_of[a] >= 0:
            continue
        c = len(reps)
        members = set()
        for g in range(n):
            members.add(group.conj(g, a))
        for m in members:
            class_of[m] = c
        reps.append(a)
        sizes.append(len(members))
    centralizers = []
    for r in reps:
        z = tuple(
            g for g in range(n) if group.table[g][r] == group.table[r][g]
        )
        centralizers.append(z)
    data = ConjugacyData(
        group, tuple(reps), tuple(class_of), tuple(sizes), tuple(centralizers)
    )
    for c in range(len(reps)):
        if sizes[c] * len(centralizers[c]) != n:
            raise AssertionError("orbit-stabilizer mismatch in class %d" % c)
    return data


class GroupEmbedding:
    """An injective homomorphism source -> target, as an index map."""

    __slots__ = (
        "source", "target", "mapping", "preimage", "_cosets", "_fusion", "_landings"
    )

    def __init__(self, source, target, mapping, check=True):
        mapping = tuple(mapping)
        if len(mapping) != source.size:
            raise ValueError("need one image per source element")
        if check:
            if len(set(mapping)) != source.size:
                raise ValueError("embedding is not injective")
            if any(not 0 <= t < target.size for t in mapping):
                raise ValueError("image out of range")
            for a in range(source.size):
                for b in range(source.size):
                    if mapping[source.table[a][b]] != target.table[mapping[a]][mapping[b]]:
                        raise ValueError(
                            "not a homomorphism at (%d, %d)" % (a, b)
                        )
            if target.size % source.size:
                raise ValueError("image order does not divide target order")
        self.source = source
        self.target = target
        self.mapping = mapping
        self.preimage = {t: s for s, t in enumerate(mapping)}
        self._cosets = None
        self._fusion = None
        self._landings = None

    @property
    def index(self):
        return self.target.size // self.source.size

    def cosets(self):
        """Left coset reps (smallest element index) and the coset index map."""
        if self._cosets is None:
            h = self.target
            coset_of = [-1] * h.size
            reps = []
            image = self.mapping
            for t in range(h.size):
                if coset_of[t] >= 0:
                    continue
                c = len(reps)
                reps.append(t)
                for m in image:
                    coset_of[h.table[t][m]] = c
            self._cosets = (tuple(reps), tuple(coset_of))
        return self._cosets

    def fusion(self) -> "FusionData":
        if self._fusion is None:
            cg = self.source.conjugacy()
            ch = self.target.conjugacy()
            to_target = tuple(
                ch.class_of[self.mapping[r]] for r in cg.reps
            )
            fibers = [[] for _ in ch.reps]
            for i, c in enumerate(to_target):
                fibers[c].append(i)
            self._fusion = FusionData(
                self, to_target, tuple(tuple(f) for f in fibers)
            )
        return self._fusion

    def landings(self) -> tuple:
        """Per class of the target, with representative h: per class of the
        source, the number of x in the target with x^-1 h x in the image of
        that class.  One walk of the target per class, read from the tables
        alone: no centralizer order and no fusion."""
        if self._landings is None:
            t = self.target
            table, inverses = t.table, t.inverses
            image = self.preimage
            cg = self.source.conjugacy()
            class_of = cg.class_of
            out = []
            for h in t.conjugacy().reps:
                counts = [0] * cg.num_classes()
                for x in range(t.size):
                    s = image.get(table[table[inverses[x]][h]][x])
                    if s is not None:
                        counts[class_of[s]] += 1
                out.append(tuple(counts))
            self._landings = tuple(out)
        return self._landings


class FusionData:
    """Class correspondence along an embedding."""

    __slots__ = ("embedding", "to_target", "fibers")

    def __init__(self, embedding, to_target, fibers):
        self.embedding = embedding
        self.to_target = to_target
        self.fibers = fibers


def subgroups(group):
    """All subgroups as sorted element tuples, ordered by (size, members)."""

    def closure(seed):
        elems = {group.identity}
        queue = list(seed)
        for x in queue:
            if x not in elems:
                elems.add(x)
        queue = list(elems)
        while queue:
            x = queue.pop()
            for y in list(elems):
                for z in (group.table[x][y], group.table[y][x]):
                    if z not in elems:
                        elems.add(z)
                        queue.append(z)
            xi = group.inverses[x]
            if xi not in elems:
                elems.add(xi)
                queue.append(xi)
        return frozenset(elems)

    known = {closure([group.identity])}
    worklist = list(known)
    while worklist:
        s = worklist.pop()
        for g in range(group.size):
            if g not in s:
                t = closure(s | {g})
                if t not in known:
                    known.add(t)
                    worklist.append(t)
    return sorted((tuple(sorted(s)) for s in known), key=lambda s: (len(s), s))


def subgroup_embedding(group, elements, check=True):
    """The subgroup on the given elements, with its inclusion embedding."""
    elements = tuple(sorted(elements))
    pos = {x: i for i, x in enumerate(elements)}
    try:
        table = [
            [pos[group.table[a][b]] for b in elements] for a in elements
        ]
    except KeyError:
        raise ValueError("element set is not closed under multiplication")
    names = (
        [group.names[x] for x in elements] if group.names is not None else None
    )
    sub = FiniteGroup(table, names=names, check=check)
    return sub, GroupEmbedding(sub, group, elements, check=check)
