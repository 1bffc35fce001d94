"""Seeded scenario files for cli_cold, built without the program.

Groups are written as explicit Cayley tables made here, so every element
index, subgroup and representation matrix is known from construction, and
with it each file's verdict.  The groups are fixed and the seed picks
subgroups, characters and weights within them, so the work per file does
not change much from seed to seed.

- `iso48`: C2 x D12, of order 48 (the documented cap), a cyclic subgroup
  of order 4 with a character, and a two-dimensional chart; `rrg-iso` and
  `induce` pass.
- `zero_blocks`: `rrg-zero-section` with four blocks over C12, the last
  with `"euler_factor": "omit"`, which always fails at the identity class
  (all normal eigenvalues are 1 there, so the omitted Euler monomial is
  visible); the file fails and only its last block does.
- `coset12`: the coset action of D6 on D6/H, |H| = 2, and the inclusion
  H -> D6; `groupoid-check` and `inertia` pass.
- `todd_models`: `todd` on four models of one to three lines with
  eigenvalues in mu_12; passes.
"""

import json

from refcalc import Table, cyclic_rows, dihedral_rows, product_rows


def _root(n, k):
    k %= n
    if k == 0 or n == 1:
        return "1"
    return "E(%d)" % n if k == 1 else "E(%d)^%d" % (n, k)


def _times(a, b):
    if a == "1":
        return b
    if b == "1":
        return a
    return "%s*%s" % (a, b)


def _dihedral_chart(n, ell, char):
    """rho(r^k s^e) = diag(z^lk, z^-lk) S^e tensored with a character of a
    cyclic factor; `char(c)` is the factor's value, as an expression."""

    def mats(c, d):
        k, e = d % n, d // n
        a = _times(char(c), _root(n, ell * k))
        b = _times(char(c), _root(n, -ell * k))
        if e == 0:
            return [[a, "0"], ["0", b]]
        return [["0", a], [b, "0"]]

    return mats


def iso48(rng):
    a, n = 2, 12
    rows = product_rows(cyclic_rows(a), dihedral_rows(n))
    table = Table(rows)
    dn = 2 * n
    j = rng.randrange(a)
    mats = _dihedral_chart(n, rng.randrange(1, n), lambda c: _root(a, j * c))
    chart = [mats(g // dn, g % dn) for g in range(table.size)]
    order4 = [g for g in range(table.size) if table.order_of(g) == 4]
    x = rng.choice(order4)
    powers = [table.identity, x, table.mul(x, x), table.mul(table.mul(x, x), x)]
    elems = sorted(powers)
    w = rng.randrange(4)
    values = [_root(4, w * powers.index(h)) for h in elems]
    doc = {
        "schema_version": 1,
        "groups": {"G": {"table": rows}},
        "embeddings": {"HinG": {"target": "G", "elements": elems, "register_source": "H"}},
        "representations": {
            "chart": {"group": "G", "matrices": chart},
            "chi": {"group": "H", "values": values},
            "triv": {"group": "H", "trivial": True},
        },
        "complexes": {
            "K": {"group": "H", "pieces": ["chi", "triv"], "differentials": [None],
                  "min_degree": rng.randint(-1, 1)},
        },
        "rrg_iso": [{"label": "iso", "embedding": "HinG", "chart": "chart", "complex": "K"}],
        "induce": [{"label": "ind", "embedding": "HinG", "representation": "chi"}],
    }
    return doc, {"rrg-iso": {"iso": True}, "induce": {"ind": True}}


def zero_blocks(rng, blocks=4):
    n = 12
    rows = cyclic_rows(n)
    reps = {
        "zero": {"group": "C", "zero": True},
        "triv": {"group": "C", "trivial": True},
    }
    out = []
    expect = {}
    for b in range(blocks):
        weights = [rng.randrange(n) for _ in range(2)]
        reps["amb%d" % b] = {
            "group": "C",
            "matrices": [
                [[_root(n, weights[0] * k), "0"], ["0", _root(n, weights[1] * k)]]
                for k in range(n)
            ],
        }
        omit = b == blocks - 1
        name = "zs%d" % b
        block = {"label": name, "group": "C", "sub": "zero", "ambient": "amb%d" % b,
                 "inclusion": [], "complex": "L", "trunc": 4}
        if omit:
            block["euler_factor"] = "omit"
        out.append(block)
        expect[name] = not omit
    doc = {
        "schema_version": 1,
        "groups": {"C": {"table": rows}},
        "representations": reps,
        "complexes": {"L": {"group": "C", "pieces": ["triv"], "differentials": []}},
        "rrg_zero_section": out,
    }
    return doc, {"rrg-zero-section": expect}


def coset12(rng):
    rows = dihedral_rows(6)
    table = Table(rows)
    x = rng.choice([g for g in range(table.size) if table.order_of(g) == 2])
    elems = sorted((table.identity, x))
    images = table.coset_action(elems)
    doc = {
        "schema_version": 1,
        "groups": {"G": {"table": rows}},
        "embeddings": {"HinG": {"target": "G", "elements": elems, "register_source": "H"}},
        "actions": {"cosets": {"group": "G", "points": len(images[0]), "images": images}},
        "groupoid_checks": [
            {"label": "cosets", "action": "cosets"},
            {"label": "inclusion", "embedding": "HinG"},
        ],
    }
    return doc, {
        "groupoid-check": {"cosets": True, "inclusion": True},
        "inertia": {"cosets": True},
    }


def todd_models(rng, models=4):
    doc = {"schema_version": 1, "trunc": 4, "models": {}, "todd": []}
    expect = {}
    for m in range(models):
        name = "m%d" % m
        lines = [_root(12, rng.randrange(12)) for _ in range(1 + m % 3)]
        doc["models"][name] = {"lines": lines}
        doc["todd"].append({"label": name, "model": name})
        expect[name] = True
    return doc, {"todd": expect}


SCENARIOS = (
    ("iso48", iso48),
    ("zero_blocks", zero_blocks),
    ("coset12", coset12),
    ("todd_models", todd_models),
)


def write_all(rng, directory):
    """Write every seeded scenario; returns [(command, path, block verdicts)]."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for name, make in SCENARIOS:
        doc, by_command = make(rng)
        path = directory / ("%s.json" % name)
        path.write_text(json.dumps(doc, sort_keys=True))
        for command, expect in sorted(by_command.items()):
            out.append((command, path, expect))
    return out
