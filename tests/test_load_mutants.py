"""Single-site structural mutants of every shipped fixture.

Each mutant changes one site of a fixture's JSON tree: the value takes
each other JSON kind, a list gets one element fewer or one more, an
integer moves by one, a string becomes an unknown reference.  Loading a
mutant must either succeed or raise `LoadError`; any other exception is a
loader fault.
"""

import copy
import json
from pathlib import Path

import pytest

from orbichern.cli import LoadError, parse_scenario

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))
KINDS = (None, True, 0, "x", [], {})


def sites(node, path=()):
    """Every (path, value) below ``node``, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from sites(value, path + (key,))


def variants(value):
    """The replacements tried at one site."""
    out = [k for k in KINDS if type(k) is not type(value)]
    if isinstance(value, list):
        out += [value[:-1], value + [copy.deepcopy(value[-1]) if value else None]]
    if isinstance(value, int) and not isinstance(value, bool):
        out += [value - 1, value + 1]
    if isinstance(value, str):
        out.append("no_such_name")
    return out


def mutants(doc):
    for path, value in sites(doc):
        for new in variants(value):
            mutant = copy.deepcopy(doc)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = new
            yield "/".join(map(str, path)), mutant


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
            pytest.fail("mutant at /%s raised %s: %s" % (where, type(exc).__name__, exc))
    assert count > 0
