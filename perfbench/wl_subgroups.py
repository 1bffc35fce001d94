"""subgroup_characters: induced characters and iso-spatial pushforward.

An item is one of the 60 subgroup pairs H <= G of S3, S4, D4, Q8 and
C2 x C4.  Per pair the seed draws a basis of small representations of H,
virtual characters as integer combinations of it, an action chart of G
and two equivariant complexes over H (a two-term complex with an averaged
differential and the acyclic cone of the identity of another).  The item
induces every virtual character on three routes (traced block matrices,
centralizer-weighted fusion, the definitional average), runs
`check_iso_spatial` on each complex, takes the cohomology of each complex
and the eigen-decomposition of the chart at every class of G.
"""

import math
import random
from fractions import Fraction

from refcalc import close, inner, power_sums_match, rank, table_of

VIRTUAL_CHARACTERS = 12
TRACE_STRIDE = 2
MIN_ROUNDS = 3
QUICK_ITEMS = 4
PAIRS = 60


def corpus_groups():
    from orbichern.groups import FiniteGroup

    return [
        ("S3", FiniteGroup.symmetric(3)),
        ("S4", FiniteGroup.symmetric(4)),
        ("D4", FiniteGroup.dihedral(4)),
        ("Q8", FiniteGroup.quaternion()),
        ("C2xC4", FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))),
    ]


def corpus_pairs():
    """(name, G, its Table, element tuple of H, H, embedding) for every
    subgroup, with the lazily built group data warmed here, in set-up."""
    from orbichern.groups import subgroup_embedding, subgroups

    out = []
    for gname, group in corpus_groups():
        group.conjugacy()
        table = table_of(group)
        for elems in subgroups(group):
            sub, emb = subgroup_embedding(group, list(elems))
            sub.conjugacy()
            emb.cosets()
            emb.fusion()
            out.append((gname, group, table, tuple(elems), sub, emb))
    return out


def _seeded_rep(shape, rng, group, max_dim):
    """Trivial, a coset permutation representation, or a representation
    induced from a character of a cyclic subgroup, of dimension <= max_dim.

    `shape` (the same for every seed) picks the kind, the cyclic subgroup
    and the character; `rng` (the seed's) replaces the subgroup by a
    conjugate and the character by a Galois conjugate.  Every seed thus
    runs the same work up to relabelling, which keeps the cost per item
    from varying with the seed.
    """
    from orbichern.exactnum import Cyclotomic
    from orbichern.groups import subgroup_embedding
    from orbichern.reps import Representation, induce

    table = table_of(group)
    for _ in range(8):
        kind = shape.randrange(4)
        if kind == 0:
            break
        x = shape.randrange(group.size)
        j = shape.randrange(table.order_of(x))
        if table.size // table.order_of(x) > max_dim:
            continue
        x = table.conj(rng.randrange(table.size), x)
        powers = [table.identity]
        while table.mul(powers[-1], x) != table.identity:
            powers.append(table.mul(powers[-1], x))
        m = len(powers)
        cyc = sorted(powers)
        if kind == 1:
            return Representation.permutation(group, table.coset_action(cyc))
        sub, emb = subgroup_embedding(group, cyc, check=False)
        exp = {y: k for k, y in enumerate(powers)}
        j = j * rng.choice([u for u in range(1, m + 1) if math.gcd(u, m) == 1]) % m
        values = [
            Cyclotomic.root_of_unity(m, (j * exp[emb.mapping[s]]) % m)
            for s in range(sub.size)
        ]
        return induce(emb, Representation.one_dimensional(sub, values))
    return Representation.trivial(group)


def _averaged_map(rng, a, b):
    """A random equivariant map a -> b: the group average of an integer one."""
    from orbichern.linalg import Matrix

    g = a.group
    t0 = Matrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(a.dim)] for _ in range(b.dim)], ncols=a.dim
    )
    acc = Matrix.zero(b.dim, a.dim)
    for x in range(g.size):
        acc = acc + b.mats[x] * t0 * a.mats[g.inv(x)]
    return acc.scale(Fraction(1, g.size))


def _two_term(shape, rng, group):
    from orbichern.complexes import EquivariantComplex

    a = _seeded_rep(shape, rng, group, 3)
    b = _seeded_rep(shape, rng, group, 3)
    return EquivariantComplex(
        group, shape.randint(-1, 1), (a, b), (_averaged_map(rng, a, b),), check=False
    )


def setup(seed, quick, workdir):
    from orbichern.complexes import ChainMap, mapping_cone
    from orbichern.reps import Representation

    rng = random.Random(seed)
    pairs = corpus_pairs()
    problems = _check_corpus(pairs)
    items = []
    for gname, group, table, elems, sub, emb in pairs:
        label = "%s/%s" % (gname, ",".join(map(str, elems)))
        shape = random.Random(label)
        basis = [Representation.trivial(sub)]
        basis += [_seeded_rep(shape, rng, sub, 2) for _ in range(2)]
        combos = [(1, 0, 0)] + [
            tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in basis)
            for _ in range(VIRTUAL_CHARACTERS - 1)
        ]
        chart = _seeded_rep(shape, rng, group, 4)
        complexes = (
            _two_term(shape, rng, sub),
            mapping_cone(ChainMap.identity(_two_term(shape, rng, sub))),
        )
        psi = [complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in table.classes]
        items.append(
            {
                "label": label,
                "group": group,
                "table": table,
                "elems": frozenset(elems),
                "sub": sub,
                "emb": emb,
                "basis": basis,
                "combos": combos,
                "chart": chart,
                "complexes": complexes,
                "psi": [psi[table.class_of[g]] for g in range(table.size)],
            }
        )
    rng.shuffle(items)
    if quick:
        items = items[:QUICK_ITEMS]
    return {"items": items, "setup_problems": problems}


def _check_corpus(pairs):
    """The program's subgroup lists against subgroups counted from the table
    (every subgroup of these five groups is generated by two elements)."""
    problems = []
    if len(pairs) != PAIRS:
        problems.append("%d subgroup pairs, expected %d" % (len(pairs), PAIRS))
    by_group = {}
    for gname, group, table, elems, _, _ in pairs:
        by_group.setdefault(gname, (table, set()))[1].add(frozenset(elems))
    for gname, (table, found) in by_group.items():
        if found != table.two_generated_subgroups():
            problems.append("%s: subgroup list differs from the table's" % gname)
    return problems


def items(state):
    return state["items"]


def run(state, item):
    from orbichern import charts, complexes, reps, rrg

    group, emb = item["group"], item["emb"]
    reps_g = group.conjugacy().reps
    traces = [
        [reps.induced_matrix(emb, r, h).trace() for h in reps_g] for r in item["basis"]
    ]
    base = [reps.character(r) for r in item["basis"]]
    routes = []
    for coeffs in item["combos"]:
        chi = base[0] * coeffs[0]
        for k, b in zip(coeffs[1:], base[1:]):
            chi = chi + b * k
        traced = []
        for c in range(len(reps_g)):
            v = traces[0][c] * coeffs[0]
            for k, t in zip(coeffs[1:], traces[1:]):
                v = v + t[c] * k
            traced.append(v)
        routes.append(
            (
                chi,
                traced,
                rrg.pushforward_characters(emb, chi),
                reps.induced_character_sum(emb, chi),
            )
        )
    chart = charts.LinearChart(group, item["chart"])
    return {
        "routes": routes,
        "iso": [
            rrg.check_iso_spatial(rrg.IsoSpatialScenario(emb, item["chart"], cx))
            for cx in item["complexes"]
        ],
        "cohomology": [complexes.cohomology(cx) for cx in item["complexes"]],
        "eigen": [
            charts.eigen_decomposition(chart, g, with_bases=False) for g in reps_g
        ],
    }


def _floats(mat):
    return [[complex(mat[i, j]) for j in range(mat.ncols)] for i in range(mat.nrows)]


def check(state, item, out):
    label = item["label"]
    table, sub, emb = item["table"], item["sub"], item["emb"]
    n = table.size
    index = n // sub.size
    problems = []
    for coeffs, (chi, traced, weighted, definitional) in zip(item["combos"], out["routes"]):
        if not (list(traced) == list(weighted.values) == list(definitional.values)):
            problems.append("%s %s: the three induction routes disagree" % (label, coeffs))
            continue
        ind = [complex(definitional.at(g)) for g in range(n)]
        chi_h = [complex(chi.at(h)) for h in range(sub.size)]
        if not close(ind[table.identity], index * chi_h[sub.identity]):
            problems.append("%s %s: Ind chi(1) != [G:H] chi(1)" % (label, coeffs))
        psi = item["psi"]
        res_psi = [psi[emb.mapping[h]] for h in range(sub.size)]
        if not close(inner(ind, psi, range(n)), inner(chi_h, res_psi, range(sub.size))):
            problems.append("%s %s: Frobenius reciprocity fails" % (label, coeffs))
        if coeffs == (1, 0, 0):
            for g in range(n):
                if not close(ind[g], table.fixed_cosets(item["elems"], g)):
                    problems.append(
                        "%s: Ind 1 at %d is not the fixed coset count" % (label, g)
                    )
                    break
    for report in out["iso"]:
        if not report.passed:
            problems.append("%s: iso-spatial report fails: %s" % (label, report.first_failure))
    for cx, coh in zip(item["complexes"], out["cohomology"]):
        problems += _check_cohomology(label, sub, cx, coh)
    chart = item["chart"]
    for g, eig in zip(item["group"].conjugacy().reps, out["eigen"]):
        mat = _floats(chart.mats[g])
        pairs = [(complex(z), m) for z, m in eig.entries]
        if not power_sums_match(mat, pairs):
            problems.append("%s: eigenvalues of the chart at %d do not match" % (label, g))
    return problems


def _check_cohomology(label, sub, cx, coh):
    """dim H^k = dim C^k - rank d_k - rank d_{k-1}, and the alternating sum
    of the cohomology characters equals that of the pieces at every h."""
    degrees = list(cx.degrees())
    if len(coh) != len(degrees):
        return ["%s: %d cohomology groups for %d degrees" % (label, len(coh), len(degrees))]
    for k, h_k in zip(degrees, coh):
        ranks = rank(_floats(cx.differential(k))) + rank(_floats(cx.differential(k - 1)))
        want = cx.piece(k).dim - ranks
        if not close(complex(h_k.at(sub.identity)), want):
            return ["%s: dim H^%d is %s, ranks give %d" % (label, k, h_k.at(sub.identity), want)]
    for h in range(sub.size):
        lhs = rhs = 0j
        for k, h_k in zip(degrees, coh):
            sign = -1 if k % 2 else 1
            lhs += sign * complex(h_k.at(h))
            piece = cx.piece(k)
            if piece.dim:
                rhs += sign * sum(complex(piece.mats[h][i, i]) for i in range(piece.dim))
        if not close(lhs, rhs):
            return ["%s: Euler characteristic of the cohomology at %d is off" % (label, h)]
    return []

