"""Dense exact linear algebra over cyclotomic scalars.

Everything is deterministic: every row reduction runs through
`exactnum._forward_eliminate`, which holds the pivot rule (the first
nonzero entry, smallest row index, in the leftmost unfinished column), so
bases of kernels and column spaces are canonical for a given input
matrix.  `rank` and `det` stop after that forward pass; `rref` adds the
back pass `exactnum._back_eliminate`.
"""

from __future__ import annotations

from .exactnum import Cyclotomic, _back_eliminate, _coerce, _forward_eliminate, _new


def cyc(x) -> Cyclotomic:
    v = _coerce(x)
    if v is None:
        raise TypeError("cannot coerce %r to a cyclotomic number" % (x,))
    return v


_C0 = Cyclotomic.from_rational(0)
_C1 = Cyclotomic.from_rational(1)


class Matrix:
    """Immutable dense matrix with cyclotomic entries."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, ncols=None):
        rows = tuple(tuple(r) for r in rows)
        self.nrows = len(rows)
        if rows:
            ncols = len(rows[0])
            for r in rows:
                if len(r) != ncols:
                    raise ValueError("ragged rows")
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.rows = rows
        self.ncols = ncols

    @staticmethod
    def _trusted(rows, ncols) -> "Matrix":
        """A Matrix over rows built in this package: a tuple of tuples of
        ncols Cyclotomic values each.  No copy, coercion or shape check."""
        m = _new(Matrix)
        m.nrows = len(rows)
        m.ncols = ncols
        m.rows = rows
        return m

    @staticmethod
    def from_rows(rows, ncols=None) -> "Matrix":
        return Matrix(tuple(tuple(cyc(e) for e in r) for r in rows), ncols=ncols)

    @staticmethod
    def zero(nrows, ncols) -> "Matrix":
        return Matrix._trusted(((_C0,) * ncols,) * nrows, ncols)

    @staticmethod
    def identity(n) -> "Matrix":
        return Matrix._trusted(
            tuple(tuple(_C1 if i == j else _C0 for j in range(n)) for i in range(n)), n
        )

    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape() != other.shape():
            return False
        return all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols))

    def is_zero(self) -> bool:
        return all(e.is_zero() for r in self.rows for e in r)

    def __add__(self, other):
        if self.shape() != other.shape():
            raise ValueError("shape mismatch in addition")
        return Matrix._trusted(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
            self.ncols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix._trusted(tuple(tuple(-e for e in r) for r in self.rows), self.ncols)

    def scale(self, c) -> "Matrix":
        c = cyc(c)
        return Matrix._trusted(tuple(tuple(c * e for e in r) for r in self.rows), self.ncols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in multiplication")
        bt = other.rows
        out = []
        for ra in self.rows:
            row = [_C0] * other.ncols
            for k, a in enumerate(ra):
                if not a.is_zero():
                    rb = bt[k]
                    for j, b in enumerate(rb):
                        if not b.is_zero():
                            row[j] = row[j] + a * b
            out.append(tuple(row))
        return Matrix._trusted(tuple(out), other.ncols)

    def transpose(self) -> "Matrix":
        return Matrix._trusted(
            tuple(
                tuple(self.rows[i][j] for i in range(self.nrows))
                for j in range(self.ncols)
            ),
            self.nrows,
        )

    def trace(self) -> Cyclotomic:
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        t = _C0
        for i in range(self.nrows):
            t = t + self.rows[i][i]
        return t

    def kron(self, other) -> "Matrix":
        out = []
        for ra in self.rows:
            for rb in other.rows:
                row = []
                for a in ra:
                    if a.is_zero():
                        row.extend([_C0] * other.ncols)
                    else:
                        row.extend([a * b for b in rb])
                out.append(tuple(row))
        return Matrix._trusted(tuple(out), self.ncols * other.ncols)

    def column(self, j) -> tuple:
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def submatrix(self, rows, cols) -> "Matrix":
        return Matrix._trusted(
            tuple(tuple(self.rows[i][j] for j in cols) for i in rows), len(cols)
        )

    def hstack(self, other) -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return Matrix._trusted(
            tuple(ra + rb for ra, rb in zip(self.rows, other.rows)),
            self.ncols + other.ncols,
        )

    def rref(self):
        """Reduced row echelon form and the pivot column indices."""
        rows = [list(r) for r in self.rows]
        pivots = _forward_eliminate(rows, self.ncols)[0]
        _back_eliminate(rows, pivots)
        return Matrix._trusted(tuple(map(tuple, rows)), self.ncols), tuple(pivots)

    def rank(self) -> int:
        """The number of pivots of the forward pass alone."""
        return len(_forward_eliminate([list(r) for r in self.rows], self.ncols)[0])

    def kernel(self) -> "Matrix":
        """Matrix whose columns span the kernel (canonical basis)."""
        return kernel_of_rref(*self.rref())

    def solve(self, rhs) -> "Matrix":
        """X with self @ X = rhs; free variables set to zero.

        Raises ValueError when inconsistent.
        """
        if self.nrows != rhs.nrows:
            raise ValueError("row count mismatch in solve")
        red, pivots = self.hstack(rhs).rref()
        for p in pivots:
            if p >= self.ncols:
                raise ValueError("inconsistent linear system")
        xrows = [[_C0] * rhs.ncols for _ in range(self.ncols)]
        for i, p in enumerate(pivots):
            for j in range(rhs.ncols):
                xrows[p][j] = red.rows[i][self.ncols + j]
        return Matrix._trusted(tuple(map(tuple, xrows)), rhs.ncols)

    def det(self) -> Cyclotomic:
        """(-1)^swaps times the product of the pivots of the forward pass;
        0 below full rank."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        pivots, values, swaps = _forward_eliminate([list(r) for r in self.rows], self.ncols)
        if len(pivots) < self.nrows:
            return _C0
        acc = _C1
        for p in values:
            acc = acc * p
        return -acc if swaps % 2 else acc

    def minor(self, rows, cols) -> Cyclotomic:
        return self.submatrix(rows, cols).det()

    def to_complex(self):
        """Entries as python complex numbers (row-major nested lists)."""
        return [[complex(e) for e in r] for r in self.rows]

    def __str__(self):
        return "[" + "; ".join(", ".join(str(e) for e in r) for r in self.rows) + "]"

    __repr__ = __str__


def kernel_of_rref(red, pivots) -> Matrix:
    """The canonical kernel basis read off a reduced form and its pivots.

    Column i is 1 at the i-th free (non-pivot) column f and 0 at the other
    free columns; its other entries sit at pivots left of f.  The free
    columns are thus its lead rows for `restricted_action`, and each is
    the last nonzero row of its column.
    """
    n = red.ncols
    pivset = set(pivots)
    cols = []
    for f in range(n):
        if f in pivset:
            continue
        v = [_C0] * n
        v[f] = _C1
        for i, p in enumerate(pivots):
            v[p] = -red.rows[i][f]
        cols.append(v)
    return Matrix._trusted(tuple(tuple(c[i] for c in cols) for i in range(n)), len(cols))


def restricted_action(mat, basis, lead):
    """X with mat * basis == basis * X, or None when mat does not map the
    span of the basis columns into itself.

    Row lead[i] of the basis must be the unit row e_i, as at the free
    columns of a `kernel_of_rref` basis or at the pivots of a reduced row
    space: X is then mat * basis read at the lead rows, and only the
    other rows of basis * X need computing and comparing.
    """
    if not basis.ncols:
        return Matrix._trusted((), 0)
    image = (mat * basis).rows
    xrows = [image[r] for r in lead]
    for q in set(range(basis.nrows)).difference(lead):
        want = [_C0] * basis.ncols
        for b, xrow in zip(basis.rows[q], xrows):
            if any(b.num):
                for j, x in enumerate(xrow):
                    want[j] = want[j] + b * x
        if image[q] != tuple(want):
            return None
    return Matrix._trusted(tuple(xrows), basis.ncols)


def block(grid, row_dims, col_dims) -> Matrix:
    """Assemble a block matrix; None blocks mean zero of the declared size."""
    out = []
    for bi, rdim in enumerate(row_dims):
        rows = [[] for _ in range(rdim)]
        for bj, cdim in enumerate(col_dims):
            piece = grid[bi][bj]
            if piece is None:
                for r in rows:
                    r.extend([_C0] * cdim)
            else:
                if piece.shape() != (rdim, cdim):
                    raise ValueError("block shape mismatch at (%d, %d)" % (bi, bj))
                for r, prow in zip(rows, piece.rows):
                    r.extend(prow)
        out.extend(tuple(r) for r in rows)
    return Matrix._trusted(tuple(out), sum(col_dims))
