"""Reference computations made apart from orbichern.

Nothing here imports the program.  Group structure is recomputed from a
multiplication table, characters and eigenvalues are evaluated in complex
floats, and ranks come from a pivoted elimination, so each workload's
check compares the program's exact output with a value it did not make.
"""

import cmath
import math

TOL = 1e-9


def close(a, b, tol=TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def root(n, k=1):
    """exp(2 pi i k / n) as a complex float."""
    return cmath.exp(2j * cmath.pi * (k % n) / n)


def exponents(num_vars, degree):
    """All exponent tuples in num_vars variables of total degree <= degree."""
    if num_vars == 0:
        return [()]
    out = []
    for a in range(degree + 1):
        for rest in exponents(num_vars - 1, degree - a):
            out.append((a,) + rest)
    return out


def koszul_columns(zetas, degree):
    """Per-line coefficients of 1 - zeta^-1 e^{-x}: c(0) = 1 - zeta^-1 and
    c(a) = -zeta^-1 (-1)^a / a! for a >= 1; the Koszul coefficient at an
    exponent is the product of one entry per line."""
    cols = []
    for z in zetas:
        zi = 1 / z
        col = [1 - zi]
        for a in range(1, degree + 1):
            col.append(-zi * (-1) ** a / math.factorial(a))
        cols.append(col)
    return cols


def koszul_coefficient(cols, exps):
    out = 1 + 0j
    for col, a in zip(cols, exps):
        out *= col[a]
    return out


# -- groups from a multiplication table ---------------------------------------


class Table:
    """A finite group read off its multiplication table, nothing more."""

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.size = n = len(self.rows)
        self.identity = next(
            e for e in range(n) if all(self.rows[e][x] == x for x in range(n))
        )
        self.inv = [0] * n
        for a in range(n):
            self.inv[a] = self.rows[a].index(self.identity)
        self.class_of = [None] * n
        self.classes = []
        for a in range(n):
            if self.class_of[a] is None:
                cls = sorted({self.conj(x, a) for x in range(n)})
                for b in cls:
                    self.class_of[b] = len(self.classes)
                self.classes.append(cls)

    def mul(self, a, b):
        return self.rows[a][b]

    def conj(self, x, a):
        """x^-1 a x."""
        return self.rows[self.rows[self.inv[x]][a]][x]

    def closure(self, gens):
        elems = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.rows[x][g]
                    if y not in elems:
                        elems.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(elems)

    def two_generated_subgroups(self):
        """Every subgroup generated by at most two elements."""
        out = set()
        for a in range(self.size):
            for b in range(a, self.size):
                out.add(self.closure((a, b)))
        return out

    def order_of(self, a):
        k, x = 1, a
        while x != self.identity:
            x = self.rows[x][a]
            k += 1
        return k

    def fixed_cosets(self, sub, g):
        """Left cosets xH with g.xH = xH, i.e. x^-1 g x in H."""
        return sum(1 for x in range(self.size) if self.conj(x, g) in sub) // len(sub)

    def coset_action(self, sub):
        """images[g][i]: the index of the coset g.x_i H, cosets listed by
        smallest member."""
        coset_of = {}
        reps = []
        for x in range(self.size):
            if x in coset_of:
                continue
            for h in sub:
                coset_of[self.rows[x][h]] = len(reps)
            reps.append(x)
        return [[coset_of[self.rows[g][r]] for r in reps] for g in range(self.size)]

    def classes_meeting(self, sub):
        return len({self.class_of[h] for h in sub})


def table_of(group):
    """Read a program group through its public `mul` and `size` only."""
    n = group.size
    return Table([[group.mul(a, b) for b in range(n)] for a in range(n)])


def cyclic_rows(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def dihedral_rows(n):
    """Order 2n: element r^k s^e has index k + n e."""

    def mul(a, b):
        k1, e1 = a % n, a // n
        k2, e2 = b % n, b // n
        return (k1 + (k2 if e1 == 0 else -k2)) % n + n * (e1 ^ e2)

    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


def product_rows(r1, r2):
    """Direct product; (a, b) has index a * |second| + b."""
    n2 = len(r2)
    n = len(r1) * n2
    return [
        [r1[a // n2][b // n2] * n2 + r2[a % n2][b % n2] for b in range(n)]
        for a in range(n)
    ]


# -- class functions and linear algebra in complex floats ----------------------


def inner(f1, f2, elems):
    """(1/|S|) sum over the elements g of S of f1(g) conj(f2(g))."""
    elems = list(elems)
    return sum(f1[g] * f2[g].conjugate() for g in elems) / len(elems)


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def trace(m):
    return sum(m[i][i] for i in range(len(m)))


def rank(m, tol=1e-8):
    """Rank by Gaussian elimination with partial pivoting."""
    rows = [list(r) for r in m]
    if not rows or not rows[0]:
        return 0
    r = 0
    ncols = len(rows[0])
    for c in range(ncols):
        pivot = max(range(r, len(rows)), key=lambda i: abs(rows[i][c]), default=None)
        if pivot is None or abs(rows[pivot][c]) <= tol:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            if f:
                for j in range(c, ncols):
                    rows[i][j] -= f * rows[r][j]
        r += 1
        if r == len(rows):
            break
    return r


def power_sums_match(mat, eigen):
    """Newton's identities: an eigenvalue multiset of a d x d matrix is fixed
    by tr(M^k), k = 1..d.  `eigen` lists (complex eigenvalue, multiplicity)."""
    d = len(mat)
    if sum(m for _, m in eigen) != d:
        return False
    power = mat
    for k in range(1, d + 1):
        want = sum(m * z**k for z, m in eigen)
        if not close(trace(power), want, 1e-7):
            return False
        power = matmul(power, mat)
    return True

