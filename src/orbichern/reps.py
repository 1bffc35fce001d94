"""Matrix representations of finite groups over the cyclotomic numbers.

A representation stores one exact matrix per group element.  Induction
uses the left coset decomposition H = union r_i.G with the smallest
coset representatives; the induced matrix of h has block (i, j) equal
to rho(r_i^-1 h r_j) when that element lies in the subgroup and zero
otherwise.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exactnum import Cyclotomic, _new
from .linalg import Matrix, cyc

_EXTERIOR_CAP = 12


class _Flagged:
    """Base of the objects that carry a ``validated`` flag.

    Rebinding any other slot clears the flag, so an object whose data
    changed after its check is checked again where it is consumed.
    Constructors therefore set the flag last.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if name != "validated":
            object.__setattr__(self, "validated", False)


class Representation(_Flagged):
    """A homomorphism from a finite group into exact invertible matrices.

    ``validated`` is True when a ``check=True`` construction passed, or
    when a trusted constructor of this module built the object from
    inputs that are all flagged (see `_derived`).  Consumers skip their
    check on a flagged object; ``validate()`` ignores the flag.
    """

    __slots__ = ("group", "dim", "mats", "validated")

    def __init__(self, group, mats, check=True):
        mats = tuple(mats)
        if len(mats) != group.size:
            raise ValueError("need one matrix per group element")
        dim = mats[group.identity].nrows if mats else 0
        for m in mats:
            if m.shape() != (dim, dim):
                raise ValueError("matrices must be square of equal size")
        self.group = group
        self.dim = dim
        self.mats = mats
        if check:
            self.validate()
        self.validated = bool(check)

    def validate(self):
        """Check the homomorphism axioms on the identity and on every pair
        (a, b) in lexicographic order; raise ValueError at the first
        violation, else return True."""
        g, mats = self.group, self.mats
        if mats[g.identity] != Matrix.identity(self.dim):
            raise ValueError("identity does not map to the identity matrix")
        for a, b in itertools.product(g.elements(), repeat=2):
            if mats[g.mul(a, b)] != mats[a] * mats[b]:
                raise ValueError("multiplicativity fails at pair (%d, %d)" % (a, b))
        return True

    def matrix(self, a) -> Matrix:
        return self.mats[a]

    # -- constructors ----------------------------------------------------

    @staticmethod
    def trivial(group, dim=1):
        eye = Matrix.identity(dim)
        return _derived(Representation(group, (eye,) * group.size, check=False))

    @staticmethod
    def zero_dimensional(group):
        z = Matrix.zero(0, 0)
        return _derived(Representation(group, (z,) * group.size, check=False))

    @staticmethod
    def permutation(group, images, check=True):
        """From an action: images[g][x] is g.x on points 0..k-1."""
        k = len(images[group.identity])
        one = Cyclotomic.from_rational(1)
        zero = Cyclotomic.from_rational(0)
        mats = []
        for g in group.elements():
            img = images[g]
            rows = [[zero] * k for _ in range(k)]
            for x in range(k):
                rows[img[x]][x] = one
            mats.append(Matrix(tuple(tuple(r) for r in rows), ncols=k))
        return Representation(group, mats, check=check)

    @staticmethod
    def regular(group):
        images = [
            [group.mul(g, x) for x in group.elements()] for g in group.elements()
        ]
        return _derived(Representation.permutation(group, images, check=False))

    @staticmethod
    def one_dimensional(group, values, check=True):
        mats = [Matrix(((cyc(v),),), ncols=1) for v in values]
        return Representation(group, mats, check=check)

    @staticmethod
    def cyclic_weight(group, j):
        """Weight-j character of a cyclic group built by FiniteGroup.cyclic."""
        n = group.size
        values = [Cyclotomic.root_of_unity(n, (j * k) % n) for k in range(n)]
        return Representation.one_dimensional(group, values, check=False)


def _derived(obj, *inputs):
    """``obj``, built unchecked by a trusted constructor from ``inputs``,
    flagged as validated exactly when every input is (always, with none).

    Groups and embeddings carry no flag: their own ``check`` is where
    they are validated.
    """
    obj.validated = all(x.validated for x in inputs)
    return obj


def direct_sum(a, b) -> Representation:
    if a.group is not b.group:
        raise ValueError("summands live over different groups")
    from .linalg import block

    mats = [
        block([[ma, None], [None, mb]], [a.dim, b.dim], [a.dim, b.dim])
        for ma, mb in zip(a.mats, b.mats)
    ]
    return _derived(Representation(a.group, mats, check=False), a, b)


def tensor(a, b) -> Representation:
    if a.group is not b.group:
        raise ValueError("factors live over different groups")
    mats = [ma.kron(mb) for ma, mb in zip(a.mats, b.mats)]
    return _derived(Representation(a.group, mats, check=False), a, b)


def dual(a) -> Representation:
    g = a.group
    mats = [a.mats[g.inv(x)].transpose() for x in g.elements()]
    return _derived(Representation(g, mats, check=False), a)


def exterior_power(a, k) -> Representation:
    """k-th exterior power; basis is k-subsets in lexicographic order."""
    if a.dim > _EXTERIOR_CAP:
        raise ValueError("exterior powers capped at dimension %d" % _EXTERIOR_CAP)
    subsets = list(itertools.combinations(range(a.dim), k))
    mats = []
    for m in a.mats:
        rows = []
        for s in subsets:
            rows.append(tuple(m.minor(s, t) for t in subsets))
        mats.append(Matrix(tuple(rows), ncols=len(subsets)))
    return _derived(Representation(a.group, mats, check=False), a)


def restrict(emb, rep) -> Representation:
    """Pull a representation of the target back along an embedding."""
    if rep.group is not emb.target:
        raise ValueError("representation does not live over the embedding target")
    mats = [rep.mats[emb.mapping[a]] for a in emb.source.elements()]
    return _derived(Representation(emb.source, mats, check=False), rep)


def induced_matrix(emb, rep, h) -> Matrix:
    """The matrix of h on the induced representation, in coset-block form."""
    g = emb.source
    t = emb.target
    reps_, coset_of = emb.cosets()
    index = len(reps_)
    d = rep.dim
    zero = Cyclotomic.from_rational(0)
    rows = [[zero] * (index * d) for _ in range(index * d)]
    for j in range(index):
        hj = t.mul(h, reps_[j])
        i = coset_of[hj]
        s = emb.preimage[t.mul(t.inv(reps_[i]), hj)]
        for r, mrow in enumerate(rep.mats[s].rows):
            rows[i * d + r][j * d:(j + 1) * d] = mrow
    return Matrix._trusted(tuple(map(tuple, rows)), index * d)


def induce(emb, rep) -> Representation:
    if rep.group is not emb.source:
        raise ValueError("representation does not live over the embedding source")
    mats = [induced_matrix(emb, rep, h) for h in emb.target.elements()]
    return _derived(Representation(emb.target, mats, check=False), rep)


class VirtualCharacter:
    """An exact class function, one value per conjugacy class."""

    __slots__ = ("group", "values")

    def __init__(self, group, values):
        values = tuple(cyc(v) for v in values)
        if len(values) != group.conjugacy().num_classes():
            raise ValueError("need one value per conjugacy class")
        self.group = group
        self.values = values

    @staticmethod
    def _trusted(group, values) -> "VirtualCharacter":
        """A character over values built in this package: a tuple of one
        Cyclotomic per class of group.  No coercion or class-count check."""
        chi = _new(VirtualCharacter)
        chi.group = group
        chi.values = values
        return chi

    def at(self, g) -> Cyclotomic:
        return self.values[self.group.conjugacy().class_of[g]]

    def __add__(self, other):
        self._same(other)
        return VirtualCharacter._trusted(
            self.group, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __sub__(self, other):
        self._same(other)
        return VirtualCharacter._trusted(
            self.group, tuple(a - b for a, b in zip(self.values, other.values))
        )

    def __neg__(self):
        return VirtualCharacter._trusted(self.group, tuple(-a for a in self.values))

    def __mul__(self, other):
        if isinstance(other, VirtualCharacter):
            self._same(other)
            return VirtualCharacter._trusted(
                self.group, tuple(a * b for a, b in zip(self.values, other.values))
            )
        c = cyc(other)
        return VirtualCharacter._trusted(self.group, tuple(a * c for a in self.values))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, VirtualCharacter):
            return NotImplemented
        return self.group is other.group and self.values == other.values

    def _same(self, other):
        if self.group is not other.group:
            raise ValueError("characters live over different groups")

    def __repr__(self):
        return "VirtualCharacter(%s)" % (", ".join(str(v) for v in self.values),)


def character(rep) -> VirtualCharacter:
    cd = rep.group.conjugacy()
    return VirtualCharacter._trusted(rep.group, tuple(rep.mats[r].trace() for r in cd.reps))


def induced_character_sum(emb, chi) -> VirtualCharacter:
    """Induced character by the definitional average over the big group.

    chi_Ind(h) = (1/|G|) * sum over x in H with x^-1 h x in G of chi(x^-1 h x).
    Equal terms are grouped by the class of G that x^-1 h x lands in, so
    the exact sum has one term per class of G, count times value.  The
    counts come from `GroupEmbedding.landings`, one walk of H per
    embedding, which reads no centralizer order and no fusion.
    """
    inv_order = Fraction(1, emb.source.size)
    values = []
    for counts in emb.landings():
        acc = Cyclotomic.zero()
        for value, k in zip(chi.values, counts):
            if k:
                acc = acc + value * k
        values.append(acc * inv_order)
    return VirtualCharacter._trusted(emb.target, tuple(values))


def restricted_character(emb, chi) -> VirtualCharacter:
    """Pull a class function on the target back to the source."""
    cd = emb.source.conjugacy()
    return VirtualCharacter._trusted(
        emb.source, tuple(chi.at(emb.mapping[r]) for r in cd.reps)
    )


def inner_product(c1, c2) -> Cyclotomic:
    """(1/|G|) sum over classes of size * c1 * conj(c2)."""
    c1._same(c2)
    cd = c1.group.conjugacy()
    acc = Cyclotomic.from_rational(0)
    for c in range(cd.num_classes()):
        acc = acc + cd.sizes[c] * c1.values[c] * c2.values[c].conjugate()
    return acc * Fraction(1, c1.group.size)


def lambda_minus_one(rep) -> VirtualCharacter:
    """Alternating sum of exterior powers of the dual representation.

    The value at g is det(1 - rho(g)^-1).
    """
    d = dual(rep)
    out = None
    for k in range(rep.dim + 1):
        term = character(exterior_power(d, k))
        if k % 2:
            term = -term
        out = term if out is None else out + term
    return out
