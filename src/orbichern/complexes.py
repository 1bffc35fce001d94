"""Bounded complexes of representations with equivariant differentials.

Supertrace convention, fixed globally: Tr_s = sum_k (-1)^k tr on degree
k.  Under this convention the mapping cone of a chain map phi: E -> F,
built as C^n = E^{n+1} (+) F^n with differential blocks
[[d_E, 0], [phi * (-1)^deg, d_F]], satisfies
supertrace(cone) = supertrace(F) - supertrace(E): target minus source.

Cohomology is computed exactly over the cyclotomic field; the heat
supertrace is the one floating-point cross-check in the package and
sends zeta_n to exp(2*pi*i/n).
"""

from __future__ import annotations

from .linalg import Matrix, block, kernel_of_rref, restricted_action
from .reps import (
    Representation,
    VirtualCharacter,
    _derived,
    _Flagged,
    character,
    direct_sum,
)


class EquivariantComplex(_Flagged):
    """Pieces E^k for k in a contiguous degree window, with d_k: E^k -> E^{k+1}.

    ``validated`` follows the rule of `Representation`: a passed
    ``check=True`` construction, or a trusted constructor (`single`,
    `shift`, `mapping_cone`) whose inputs are all flagged.
    """

    __slots__ = ("group", "min_degree", "pieces", "diffs", "validated")

    def __init__(self, group, min_degree, pieces, diffs, check=True):
        pieces = tuple(pieces)
        diffs = tuple(diffs)
        if not pieces:
            raise ValueError("a complex needs at least one piece")
        if len(diffs) != len(pieces) - 1:
            raise ValueError("need exactly one differential between adjacent pieces")
        for p in pieces:
            if p.group is not group:
                raise ValueError("pieces live over different groups")
        for k, d in enumerate(diffs):
            want = (pieces[k + 1].dim, pieces[k].dim)
            if d.shape() != want:
                raise ValueError(
                    "differential %d has shape %s, expected %s"
                    % (k, d.shape(), want)
                )
        self.group = group
        self.min_degree = min_degree
        self.pieces = pieces
        self.diffs = diffs
        if check:
            self.validate()
        self.validated = bool(check)

    @property
    def max_degree(self):
        return self.min_degree + len(self.pieces) - 1

    def degrees(self):
        return range(self.min_degree, self.max_degree + 1)

    def piece(self, k) -> Representation:
        i = k - self.min_degree
        if 0 <= i < len(self.pieces):
            return self.pieces[i]
        return Representation.zero_dimensional(self.group)

    def differential(self, k) -> Matrix:
        """d_k: E^k -> E^{k+1}; zero outside the stored window."""
        i = k - self.min_degree
        if 0 <= i < len(self.diffs):
            return self.diffs[i]
        return Matrix.zero(self.piece(k + 1).dim, self.piece(k).dim)

    def validate(self):
        """Check d o d = 0 at every degree, then equivariance of every
        differential at every group element, then each piece that is not
        flagged as validated; raise ValueError at the first violation,
        else return True."""
        for k in range(len(self.diffs) - 1):
            if not (self.diffs[k + 1] * self.diffs[k]).is_zero():
                raise ValueError("d o d is nonzero from degree %d" % (self.min_degree + k))
        for k, d in enumerate(self.diffs):
            lo, hi = self.pieces[k], self.pieces[k + 1]
            for x in self.group.elements():
                if d * lo.mats[x] != hi.mats[x] * d:
                    raise ValueError(
                        "differential at degree %d is not equivariant at element %d"
                        % (self.min_degree + k, x)
                    )
        for p in self.pieces:
            if not p.validated:
                p.validate()
        return True

    def supertrace_class(self) -> VirtualCharacter:
        """sum_k (-1)^k char(E^k), the delocalized degree-0 character."""
        out = None
        for i, p in enumerate(self.pieces):
            term = character(p)
            if (self.min_degree + i) % 2:
                term = -term
            out = term if out is None else out + term
        return out

    @staticmethod
    def single(rep, degree=0):
        return _derived(EquivariantComplex(rep.group, degree, (rep,), (), check=False), rep)


def supertrace_class(c) -> VirtualCharacter:
    return c.supertrace_class()


def cohomology(c) -> list:
    """Characters of ker d_k / im d_{k-1}, one per stored degree.

    The kernel and image are preserved by the action, so the class of
    H^k is char(ker d_k) - char(im d_{k-1}), each the trace of the action
    on a reduced basis (see `restricted_action`): the kernel basis of the
    RREF of d_k, led by its free columns, and the transposed nonzero rows
    of the RREF of d_{k-1}^T, led by their pivots.  Two reductions per
    degree and none per class; a class that does not preserve one of the
    subspaces raises ValueError naming the degree, the class and the
    subspace.
    """
    cd = c.group.conjugacy()
    out = []
    image, image_lead = Matrix.zero(c.piece(c.min_degree).dim, 0), ()
    for k in c.degrees():
        dk = c.differential(k)
        red, pivots = dk.rref()
        free = tuple(f for f in range(dk.ncols) if f not in pivots)
        spaces = (("kernel", kernel_of_rref(red, pivots), free), ("image", image, image_lead))
        piece = c.piece(k)
        values = []
        for cls, g in enumerate(cd.reps):
            traces = []
            for name, basis, lead in spaces:
                x = restricted_action(piece.mats[g], basis, lead)
                if x is None:
                    raise ValueError(
                        "degree %d: class %d does not preserve the %s" % (k, cls, name)
                    )
                traces.append(x.trace())
            values.append(traces[0] - traces[1])
        out.append(VirtualCharacter._trusted(c.group, tuple(values)))
        if k < c.max_degree:
            red, image_lead = dk.transpose().rref()
            image = red.submatrix(range(len(image_lead)), range(red.ncols)).transpose()
    return out


class ChainMap(_Flagged):
    """A degreewise equivariant map commuting with the differentials.

    ``validated`` as for `EquivariantComplex`; `identity` is trusted.
    """

    __slots__ = ("source", "target", "mats", "validated")

    def __init__(self, source, target, mats, check=True):
        if source.group is not target.group:
            raise ValueError("chain map between complexes over different groups")
        if source.min_degree != target.min_degree or len(source.pieces) != len(
            target.pieces
        ):
            raise ValueError("chain map needs matching degree windows")
        mats = tuple(mats)
        if len(mats) != len(source.pieces):
            raise ValueError("need one matrix per degree")
        for k, m in enumerate(mats):
            want = (target.pieces[k].dim, source.pieces[k].dim)
            if m.shape() != want:
                raise ValueError("chain map piece %d has the wrong shape" % k)
        self.source = source
        self.target = target
        self.mats = mats
        if check:
            self.validate()
        self.validated = bool(check)

    def validate(self):
        """Check that every slot commutes with the differentials, then
        that every slot is equivariant at every group element, then the
        source and the target if they are not flagged as validated; raise
        ValueError at the first violation, else return True."""
        for k in range(len(self.mats) - 1):
            if self.mats[k + 1] * self.source.diffs[k] != self.target.diffs[k] * self.mats[k]:
                raise ValueError("does not commute with d at slot %d" % k)
        for k, m in enumerate(self.mats):
            for x in self.source.group.elements():
                if m * self.source.pieces[k].mats[x] != self.target.pieces[k].mats[x] * m:
                    raise ValueError("not equivariant at slot %d" % k)
        for cx in (self.source, self.target):
            if not cx.validated:
                cx.validate()
        return True

    @staticmethod
    def identity(c):
        ident = ChainMap(c, c, tuple(Matrix.identity(p.dim) for p in c.pieces), check=False)
        return _derived(ident, c)


def mapping_cone(phi: ChainMap) -> EquivariantComplex:
    """C^n = E^{n+1} (+) F^n with blocks [[d_E, 0], [phi*(-1)^deg, d_F]]."""
    e, f = phi.source, phi.target
    group = e.group
    lo = e.min_degree - 1
    hi = e.max_degree
    pieces = []
    for n in range(lo, hi + 1):
        pieces.append(direct_sum(e.piece(n + 1), f.piece(n)))
    diffs = []
    for n in range(lo, hi):
        etop = e.piece(n + 1).dim
        fbot = f.piece(n).dim
        etop2 = e.piece(n + 2).dim
        fbot2 = f.piece(n + 1).dim
        de = e.differential(n + 1)
        df = f.differential(n)
        i = n + 1 - e.min_degree
        ph = phi.mats[i] if 0 <= i < len(phi.mats) else Matrix.zero(fbot2, etop)
        if (n + 1) % 2:
            ph = -ph
        diffs.append(
            block(
                [[de, None], [ph, df]],
                [etop2, fbot2],
                [etop, fbot],
            )
        )
    cone = EquivariantComplex(group, lo, pieces, diffs, check=False)
    return _derived(cone, phi, e, f)


def shift(c: EquivariantComplex) -> EquivariantComplex:
    """E[1]^n = E^{n+1}, same pieces one degree lower, d[1]_n = (-1)^(n+1) d_{n+1}."""
    diffs = []
    for i, d in enumerate(c.diffs):
        if (c.min_degree + i) % 2:
            d = -d
        diffs.append(d)
    return _derived(
        EquivariantComplex(c.group, c.min_degree - 1, c.pieces, diffs, check=False), c
    )


def heat_supertrace(c, g, ts=(0.1, 1.0, 10.0)):
    """Tr_s[rho(g) exp(-t Delta)] for each t, via numpy eigendecomposition.

    Delta_k = d_k^* d_k + d_{k-1} d_{k-1}^* with adjoints for the
    standard Hermitian product.  The value is independent of t and
    equals the supertrace of the complex at g.
    """
    import numpy

    mats = []
    dnum = []
    for k in c.degrees():
        mats.append(numpy.array(c.piece(k).mats[g].to_complex(), dtype=complex).reshape(
            (c.piece(k).dim, c.piece(k).dim)
        ))
    for k in list(c.degrees())[:-1]:
        d = c.differential(k)
        dnum.append(
            numpy.array(d.to_complex(), dtype=complex).reshape((d.nrows, d.ncols))
        )
    out = []
    lap = []
    for i, k in enumerate(c.degrees()):
        dim = c.piece(k).dim
        delta = numpy.zeros((dim, dim), dtype=complex)
        if i < len(dnum):
            delta += dnum[i].conj().T @ dnum[i]
        if i > 0:
            delta += dnum[i - 1] @ dnum[i - 1].conj().T
        lap.append(delta)
    eigs = [numpy.linalg.eigh(d) for d in lap]
    for t in ts:
        acc = 0j
        for i, k in enumerate(c.degrees()):
            if c.piece(k).dim == 0:
                continue
            w, u = eigs[i]
            heat = (u * numpy.exp(-t * w)) @ u.conj().T
            term = numpy.trace(mats[i] @ heat)
            acc += term if k % 2 == 0 else -term
        out.append(complex(acc))
    return out
