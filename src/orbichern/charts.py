"""Linear orbifold charts [V/G]: fixed subspaces and normal eigen-data.

A chart is a finite group acting exactly on C^d.  Every group element
has finite order, so its action is diagonalizable with eigenvalues
among the m-th roots of unity; eigenspaces are exact kernels over the
cyclotomic field.  The inertia data lists, per conjugacy class, the
fixed subspace V^g together with the eigen-decomposition of the normal
directions (eigenvalues != 1), which is what the delocalized Todd and
Koszul series consume.
"""

from __future__ import annotations

from .exactnum import Cyclotomic
from .linalg import Matrix, restricted_action
from .reps import Representation

__all__ = [
    "LinearChart",
    "EigenData",
    "InertiaComponent",
    "fixed_subspace",
    "eigen_decomposition",
    "inertia_data",
]


class LinearChart:
    """A finite group with a representation on the ambient space V = C^d."""

    __slots__ = ("group", "action")

    def __init__(self, group, action: Representation):
        if action.group is not group:
            raise ValueError("chart action must live over the chart group")
        self.group = group
        self.action = action

    @property
    def dim(self):
        return self.action.dim

    def __repr__(self):
        return "LinearChart(|G|=%d, dim=%d)" % (self.group.size, self.dim)


class EigenData:
    """Eigenvalues of a finite-order operator with multiplicities and bases.

    entries: tuple of (eigenvalue, multiplicity), eigenvalues distinct
    roots of unity ordered by exponent; bases: one column basis per
    entry (columns span the exact eigenspace).
    """

    __slots__ = ("entries", "bases")

    def __init__(self, entries, bases=None):
        self.entries = tuple(entries)
        self.bases = None if bases is None else tuple(bases)

    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def eigenvalues(self):
        return [zeta for zeta, _ in self.entries]

    def __eq__(self, other):
        if not isinstance(other, EigenData):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return "EigenData(%s)" % ", ".join(
            "%s x%d" % (zeta, m) for zeta, m in self.entries
        )


class InertiaComponent:
    """One inertia stratum [V^g / Z_G(g)] of a linear chart."""

    __slots__ = (
        "chart",
        "class_index",
        "element",
        "centralizer",
        "fixed_basis",
        "normal_eigen",
    )

    def __init__(self, chart, class_index, element, centralizer, fixed_basis, normal_eigen):
        self.chart = chart
        self.class_index = class_index
        self.element = element
        self.centralizer = tuple(centralizer)
        self.fixed_basis = fixed_basis
        self.normal_eigen = normal_eigen

    @property
    def fixed_dim(self):
        return self.fixed_basis.ncols

    def __repr__(self):
        return "InertiaComponent(g=%s, fixed_dim=%d, |Z|=%d)" % (
            self.chart.group.name(self.element),
            self.fixed_dim,
            len(self.centralizer),
        )


def fixed_subspace(chart: LinearChart, g) -> Matrix:
    """Exact column basis of V^g = ker(rho(g) - 1)."""
    rho = chart.action.mats[g]
    return (rho - Matrix.identity(chart.dim)).kernel()


def eigen_decomposition(chart: LinearChart, g, with_bases=True) -> EigenData:
    """Eigenvalues of rho(g) among the m-th roots of unity, m = order of g.

    Multiplicity of zeta_m^j is dim ker(rho(g) - zeta_m^j), the number of
    columns without a pivot; the multiplicities always sum to the ambient
    dimension because the operator has finite order, so the search stops
    once they do.  Without bases each root costs one forward elimination.
    """
    rho = chart.action.mats[g]
    m = chart.group.order_of(g)
    n = chart.dim
    entries = []
    bases = []
    total = 0
    for j in range(m):
        if total == n:
            break
        zeta = Cyclotomic.root_of_unity(m, j)
        minus = -zeta
        shifted = Matrix._trusted(
            tuple(
                tuple(e + minus if c == r else e for c, e in enumerate(row))
                for r, row in enumerate(rho.rows)
            ),
            n,
        )
        if with_bases:
            basis = shifted.kernel()
            mult = basis.ncols
            if mult:
                bases.append(basis)
        else:
            mult = n - shifted.rank()
        if mult:
            entries.append((zeta, mult))
            total += mult
    if total != n:
        raise ArithmeticError(
            "eigenvalue multiplicities sum to %d, dimension is %d" % (total, n)
        )
    return EigenData(entries, bases if with_bases else None)


def inertia_data(chart: LinearChart) -> list:
    """One InertiaComponent per conjugacy class, in class order.

    For each class representative g: the fixed basis of V^g, the
    centralizer Z_G(g) (checked to preserve V^g), and the eigen-data
    of the normal directions (every eigenvalue != 1).  V^g is the
    eigenvalue-1 entry of the one eigen-decomposition of g.
    """
    cd = chart.group.conjugacy()
    one = Cyclotomic.one()
    out = []
    for c, g in enumerate(cd.reps):
        eig = eigen_decomposition(chart, g)
        fixed = Matrix.zero(chart.dim, 0)
        normal_entries = []
        normal_bases = []
        for (zeta, m), basis in zip(eig.entries, eig.bases):
            if zeta == one:
                fixed = basis
            else:
                normal_entries.append((zeta, m))
                normal_bases.append(basis)
        # a kernel basis: each column's lead row is its last nonzero row
        lead = tuple(
            max(r for r, row in enumerate(fixed.rows) if any(row[i].num))
            for i in range(fixed.ncols)
        )
        for z in cd.centralizers[c]:
            if restricted_action(chart.action.mats[z], fixed, lead) is None:
                raise ArithmeticError(
                    "centralizer element %d does not preserve the fixed subspace" % z
                )
        normal = EigenData(normal_entries, normal_bases)
        out.append(InertiaComponent(chart, c, g, cd.centralizers[c], fixed, normal))
    return out
