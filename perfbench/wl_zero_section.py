"""zero_section_mu12: Koszul = Euler * Todd^-1 on every mu_12 eigen-line model.

An item is one model: a multiset of at most four eigenvalues in mu_12,
one line per eigenvalue, truncated at total degree 6 (1819 models).  The
seed fixes only the order in which the models run.
"""

import random

from refcalc import close, exponents, koszul_coefficient, koszul_columns, root

ORDER = 12
DEGREE = 6
MAX_LINES = 4
CORPUS = 1819
TRACE_STRIDE = 2
# Two rounds always.  About 1 % of the items of a round absorb a full
# collection of the cyclic garbage collector (~12 ms, against ~6 ms per
# item), a different 1 % in each round; with one round on a slow host and
# two on a fast one, item_tail_ms (over each item's fastest round) would
# jump between the two cases.
MIN_ROUNDS = 2
QUICK_ITEMS = 12


def corpus():
    """Every multiset of <= 4 exponents k of zeta_12^k, smallest first."""
    out = []

    def grow(prefix, start):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == MAX_LINES:
            return
        for k in range(start, ORDER):
            grow(prefix + [k], k)

    grow([], 0)
    return out


def setup(seed, quick, workdir):
    from orbichern.exactnum import Cyclotomic
    from orbichern.series import NormalModel

    mu = [Cyclotomic.root_of_unity(ORDER, k) for k in range(ORDER)]
    combos = corpus()
    problems = []
    if len(set(combos)) != CORPUS:
        problems.append("%d distinct models, expected %d" % (len(set(combos)), CORPUS))
    random.Random(seed).shuffle(combos)
    if quick:
        combos = combos[:QUICK_ITEMS]
    models = [
        (combo, NormalModel([(mu[k], j) for j, k in enumerate(combo)], DEGREE,
                            num_vars=len(combo)))
        for combo in combos
    ]
    return {"items": models, "setup_problems": problems}


def items(state):
    return state["items"]


def run(state, item):
    from orbichern.series import zero_section_identity

    return zero_section_identity(item[1])


def check(state, item, report):
    """Problems with one report: it must pass, and every coefficient up to
    degree 6 of both sides, the Koszul one and Euler * Todd^-1, must equal
    the closed form prod_j c_j(a_j)."""
    combo = item[0]
    if not report.passed:
        return ["model %s: identity fails at %s" % (combo, report.first_mismatch)]
    cols = koszul_columns([root(ORDER, k) for k in combo], DEGREE)
    for exps in exponents(len(combo), DEGREE):
        want = koszul_coefficient(cols, exps)
        for side, series in (("Koszul", report.lhs), ("Euler * Todd^-1", report.rhs)):
            got = complex(series.coefficient(exps))
            if not close(got, want, 1e-12):
                return ["model %s: %s coefficient at %s is %r, closed form %r"
                        % (combo, side, exps, got, want)]
    return []

