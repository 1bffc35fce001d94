import itertools
import random
from fractions import Fraction

import pytest

from orbichern.exactnum import Cyclotomic
from orbichern.linalg import Matrix, block

E = Cyclotomic.root_of_unity


def rand_matrix(rng, r, c, order=1):
    return Matrix.from_rows(
        [
            [
                Cyclotomic(order, [rng.randint(-3, 3) for _ in range(1)])
                for _ in range(c)
            ]
            for _ in range(r)
        ],
        ncols=c,
    )


def test_identity_and_mul():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert Matrix.identity(2) * a == a
    assert a * Matrix.identity(2) == a
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert (a * b) == Matrix.from_rows([[2, 1], [4, 3]])


def test_rref_kernel_rank():
    a = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert a.rank() == 2
    k = a.kernel()
    assert k.ncols == 1
    assert (a * k).is_zero()


def test_kernel_with_cyclotomic_entries():
    # eigenvector computation for a rotation by zeta_4
    m = Matrix.from_rows([[0, -1], [1, 0]])
    shifted = m - Matrix.identity(2).scale(E(4))
    k = shifted.kernel()
    assert k.ncols == 1
    assert (shifted * k).is_zero()


def test_solve_consistent_and_inconsistent():
    a = Matrix.from_rows([[1, 0], [0, 1], [1, 1]])
    rhs = Matrix.from_rows([[1], [2], [3]])
    x = a.solve(rhs)
    assert a * x == rhs
    bad = Matrix.from_rows([[1], [2], [4]])
    with pytest.raises(ValueError):
        a.solve(bad)


def test_det_and_minor():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert a.det() == -2
    assert a.minor((0,), (1,)) == 2
    assert Matrix.zero(0, 0).det() == 1
    assert Matrix.from_rows([[1, 2], [2, 4]]).det() == 0


def test_det_multiplicative_random():
    rng = random.Random(11)
    for _ in range(50):
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 3, 3)
        assert (a * b).det() == a.det() * b.det()


def leibniz_det(m):
    """The permutation expansion: sum of sign(p) * prod m[i, p(i)]."""
    n = m.nrows
    total = Cyclotomic.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = Cyclotomic.one()
        for i, j in enumerate(perm):
            term = term * m[i, j]
        total = total + (-term if inversions % 2 else term)
    return total


def rand_cyclotomic_matrix(rng, n, order):
    return Matrix.from_rows(
        [
            [
                Cyclotomic(order, [rng.choice([0, 0, 1, -1, 2, Fraction(1, 3)])
                                   for _ in range(order)])
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def test_det_matches_leibniz_over_cyclotomic_fields():
    rng = random.Random(0xDE7)
    for order in (5, 8, 12):
        for n in (3, 4):
            for _ in range(4):
                m = rand_cyclotomic_matrix(rng, n, order)
                cases = [m]
                # the first pivot needs a row swap
                swapped = [list(r) for r in m.rows]
                swapped[0][0] = Cyclotomic.zero()
                if not swapped[1][0]:
                    swapped[1][0] = Cyclotomic.one()
                cases.append(Matrix.from_rows(swapped))
                # singular: a repeated row
                repeated = [list(r) for r in m.rows]
                repeated[n - 1] = list(repeated[0])
                cases.append(Matrix.from_rows(repeated))
                for case in cases:
                    assert case.det() == leibniz_det(case), (order, n, str(case))
                assert Matrix.from_rows(repeated).det() == 0


def test_kron_mixed_product():
    rng = random.Random(3)
    a = rand_matrix(rng, 2, 2)
    b = rand_matrix(rng, 2, 2)
    c = rand_matrix(rng, 2, 2)
    d = rand_matrix(rng, 2, 2)
    assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)


def test_column_space_spans():
    a = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    _, pivots = a.rref()
    cs = a.submatrix(range(a.nrows), pivots)
    assert cs.ncols == a.rank() == 2
    # every column of a solvable against the basis of pivot columns
    cs.solve(a)
    with pytest.raises(ValueError):
        a.submatrix(range(a.nrows), pivots[:1]).solve(a)


def test_zero_dimensional_edges():
    z = Matrix.zero(0, 3)
    assert z.kernel().ncols == 3
    assert z.rank() == 0
    e = Matrix.zero(3, 0)
    assert (e.transpose() * e).shape() == (0, 0)
    assert Matrix.identity(0).det() == 1


def test_block_assembly():
    a = Matrix.identity(2)
    b = Matrix.from_rows([[5]])
    m = block([[a, None], [None, b]], [2, 1], [2, 1])
    assert m.shape() == (3, 3)
    assert m[2, 2] == 5
    assert m[0, 2] == 0


def test_rank_is_the_rref_pivot_count_with_row_swaps():
    """`rank` stops after the forward pass; it must count the same pivots
    as the full reduction, on inputs whose first pivot needs a row swap."""
    rng = random.Random(0x4A4C)
    for order in (1, 5, 12):
        for nrows, ncols in ((3, 3), (3, 5), (5, 3), (4, 4)):
            for trial in range(3):
                rows = [
                    [Cyclotomic(order, [rng.choice([0, 0, 1, -1, 2]) for _ in range(order)])
                     for _ in range(ncols)]
                    for _ in range(nrows)
                ]
                rows[0][0] = Cyclotomic.zero()
                rows[1][0] = Cyclotomic.one()
                if trial:
                    rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
                m = Matrix.from_rows(rows)
                assert m.rank() == len(m.rref()[1]), (order, nrows, ncols, str(m))


def test_trusted_results_equal_public_constructions():
    """What the package builds through `Matrix._trusted` is what the
    public constructor builds from the same rows: tuples of ncols
    Cyclotomic values each."""
    rng = random.Random(0x7A5)
    a = rand_cyclotomic_matrix(rng, 3, 8)
    b = rand_cyclotomic_matrix(rng, 3, 12)
    built = [
        a + b,
        -a,
        a - b,
        a * b,
        a.scale(E(3)),
        a.transpose(),
        a.kron(b),
        a.hstack(b),
        a.submatrix((0, 2), (1,)),
        a.rref()[0],
        a.solve(b),
        (a.hstack(a)).kernel(),
        Matrix.identity(3),
        Matrix.zero(2, 3),
        Matrix.zero(3, 0),
        block([[a, None], [None, b]], [3, 3], [3, 3]),
    ]
    for m in built:
        public = Matrix(m.rows, ncols=m.ncols)
        assert m == public and m.shape() == public.shape()
        assert type(m.rows) is tuple and len(m.rows) == m.nrows
        for r in m.rows:
            assert type(r) is tuple and len(r) == m.ncols
            assert all(type(e) is Cyclotomic for e in r)
