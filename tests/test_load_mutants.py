"""Single-site structural mutants of every shipped fixture.

Each mutant changes one site of a fixture's JSON tree: the value takes
each other JSON kind, a list gets one element fewer or one more, an
integer moves by one, a string becomes an unknown reference.  Loading a
mutant must either succeed or raise `LoadError`; any other exception is a
loader fault.  A value of another JSON kind is refused, if at all, at its
own pointer.
"""

import copy
import json
from pathlib import Path

import pytest

from orbichern.cli import LoadError, parse_scenario

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))
KINDS = (None, True, 0, "x", [], {})
# a false value switches the variant of the object that holds one of these
# keys, so the refusal lands on that object or on a sibling key it now needs
FLAGS = frozenset(("trivial", "zero", "natural", "skip_validation"))


def sites(node, path=()):
    """Every (path, value) below ``node``, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from sites(value, path + (key,))


def kind_changes(value):
    """The values of every other JSON kind."""
    return [k for k in KINDS if type(k) is not type(value)]


def variants(value):
    """The replacements tried at one site."""
    out = kind_changes(value)
    if isinstance(value, list):
        out += [value[:-1], value + [copy.deepcopy(value[-1]) if value else None]]
    if isinstance(value, int) and not isinstance(value, bool):
        out += [value - 1, value + 1]
    if isinstance(value, str):
        out.append("no_such_name")
    return out


def mutants(doc, replacements=variants):
    """(pointer, mutant) for each replacement at each site."""
    for path, value in sites(doc):
        for new in replacements(value):
            mutant = copy.deepcopy(doc)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = new
            yield "/" + "/".join(map(str, path)), mutant


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_every_single_site_mutant_loads_or_is_a_load_error(fixture):
    doc = json.loads(fixture.read_text())
    count = 0
    for where, mutant in mutants(doc):
        count += 1
        try:
            parse_scenario(mutant)
        except LoadError:
            pass
        except Exception as exc:  # pragma: no cover - the failure report
            pytest.fail("mutant at %s raised %s: %s" % (where, type(exc).__name__, exc))
    assert count > 0


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_a_value_of_another_kind_is_refused_at_its_own_pointer(fixture):
    doc = json.loads(fixture.read_text())
    refused = 0
    for where, mutant in mutants(doc, kind_changes):
        try:
            parse_scenario(mutant)
        except LoadError as exc:
            refused += 1
            holder, key = where.rsplit("/", 1)
            near = holder in (exc.pointer, exc.pointer.rsplit("/", 1)[0])
            assert exc.pointer == where or (key in FLAGS and near), (where, str(exc))
    assert refused > 0


S3 = {"S3": {"symmetric": 3}}
# (place an index is read, a scenario, the pointer of an index 1 in it)
INDEX_DOCS = [
    ("table", {"groups": {"G": {"table": [[0, 1], [1, 0]]}}}, "/groups/G/table/1/0"),
    ("permutations", {"groups": {"G": {"permutations": [[1, 0, 2], [1, 2, 0]]}}},
     "/groups/G/permutations/1/0"),
    ("elements", {"groups": S3, "embeddings": {"E": {"target": "S3", "elements": [0, 1]}}},
     "/embeddings/E/elements/1"),
    ("mapping", {"groups": dict(S3, C2={"cyclic": 2}),
                 "embeddings": {"E": {"source": "C2", "target": "S3", "mapping": [0, 1]}}},
     "/embeddings/E/mapping/1"),
    ("images", {"groups": {"C2": {"cyclic": 2}},
                "actions": {"A": {"group": "C2", "points": 2, "images": [[0, 1], [1, 0]]}}},
     "/actions/A/images/1/0"),
    ("permutation", {"groups": {"C2": {"cyclic": 2}},
                     "representations": {"P": {"group": "C2", "permutation": [[0, 1], [1, 0]]}}},
     "/representations/P/permutation/1/0"),
]


@pytest.mark.parametrize("doc,pointer", [d[1:] for d in INDEX_DOCS], ids=[d[0] for d in INDEX_DOCS])
def test_true_is_not_the_index_one(doc, pointer):
    """Each document loads with the integer 1 at ``pointer``; JSON true
    there is refused, although Python counts it equal to 1."""
    doc = copy.deepcopy(doc)
    parse_scenario(doc)
    *path, last = pointer.split("/")[1:]
    parent = doc
    for key in path:
        parent = parent[int(key) if isinstance(parent, list) else key]
    assert parent[int(last)] == 1
    parent[int(last)] = True
    with pytest.raises(LoadError) as err:
        parse_scenario(doc)
    assert str(err.value) == "expected an integer (at %s)" % pointer
