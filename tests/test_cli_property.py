"""Property test of the exit code contract over generated scenario files.

Whatever document a scenario file holds, `main` returns 0, 1 or 2 and
never reaches the internal-error path (exit 3).  Documents are either
built from scratch, mixing well-formed pieces with wrong types, dangling
references and bad values, or a shipped fixture with a few of its values
replaced.  Groups stay far below the order cap and file truncations
small.  The one large `--trunc` lies past the monomial cap of any block
with a series variable, so every example runs in milliseconds.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from orbichern.cli import COMMANDS, main  # noqa: E402

NAMES = ("a", "b")

leaf = st.one_of(st.none(), st.booleans(), st.integers(-2, 5), st.text(max_size=3))
junk = st.recursive(
    leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=2), inner, max_size=2),
    ),
    max_leaves=5,
)


def mostly(good):
    """``good`` nine times in ten, junk otherwise."""
    return st.integers(0, 9).flatmap(lambda i: junk if i == 0 else good)


name = mostly(st.sampled_from(NAMES))
small_int = mostly(st.integers(-1, 4))
expr = mostly(
    st.sampled_from(
        ["1", "-1", "0", "2", "1/2", "E(4)", "E(3)^2", "-E(6)", "E(12)^5", "E(0)", "1/0", "x"]
    )
)
index_rows = st.lists(st.lists(st.integers(-1, 4), max_size=4), max_size=4)
one_by_one = st.lists(st.lists(expr, min_size=1, max_size=1), min_size=1, max_size=1)


def some_of(**fields):
    """Objects holding any subset of ``fields``, or junk in their place."""
    return mostly(st.fixed_dictionaries({}, optional=fields))


def table(values):
    return mostly(st.dictionaries(st.sampled_from(NAMES), values, max_size=2))


groups = table(
    st.one_of(
        st.fixed_dictionaries({"cyclic": mostly(st.integers(-1, 6))}),
        st.fixed_dictionaries({"symmetric": mostly(st.integers(-1, 3))}),
        st.fixed_dictionaries({"dihedral": mostly(st.integers(-1, 4))}),
        st.just({"quaternion": True}),
        st.fixed_dictionaries({"permutations": mostly(index_rows)}),
        st.fixed_dictionaries({"table": mostly(index_rows)}),
        junk,
    )
)
embeddings = table(
    some_of(
        target=name,
        source=name,
        elements=mostly(st.lists(st.integers(-1, 5), max_size=4)),
        mapping=mostly(st.lists(st.integers(-1, 5), max_size=6)),
        register_source=name,
    )
)
representations = table(
    some_of(
        group=name,
        trivial=st.booleans(),
        zero=st.booleans(),
        values=mostly(st.lists(expr, max_size=6)),
        permutation=mostly(index_rows),
        matrices=mostly(st.lists(one_by_one, max_size=6)),
    )
)
complexes = table(
    some_of(
        group=name,
        pieces=mostly(st.lists(name, max_size=3)),
        differentials=mostly(st.lists(st.one_of(st.none(), one_by_one), max_size=2)),
        min_degree=small_int,
        skip_validation=st.booleans(),
    )
)
charts = table(some_of(group=name, action=name))
models = table(some_of(lines=mostly(st.lists(expr, max_size=3)), trunc=small_int))
actions = table(
    some_of(group=name, natural=st.booleans(), points=small_int, images=mostly(index_rows))
)
knob = mostly(
    st.sampled_from(["centralizer", "one", "inverted", "include", "omit", "dual", "direct"])
)
common = {"label": junk, "trunc": small_int, "skip_validation": st.booleans()}
blocks = {
    "induce": some_of(embedding=name, representation=name, **common),
    "chern": some_of(chart=name, complex=name, **common),
    "todd": some_of(model=name, **common),
    "rrg_iso": some_of(embedding=name, chart=name, complex=name, weight=knob, **common),
    "rrg_zero_section": some_of(
        group=name, sub=name, ambient=name, complex=name,
        inclusion=mostly(st.lists(st.lists(expr, max_size=2), max_size=2)),
        euler_factor=knob, **common,
    ),
    "rrg_general": some_of(
        embedding=name, sub=name, ambient=name, complex=name,
        inclusion=mostly(st.lists(st.lists(expr, max_size=2), max_size=2)),
        inversion=knob, **common,
    ),
    "groupoid_checks": some_of(action=name, embedding=name, **common),
}
built = mostly(
    st.fixed_dictionaries(
        {},
        optional=dict(
            schema_version=mostly(st.just(1)),
            trunc=small_int,
            groups=groups,
            embeddings=embeddings,
            representations=representations,
            complexes=complexes,
            charts=charts,
            models=models,
            actions=actions,
            **{key: mostly(st.lists(body, max_size=2)) for key, body in blocks.items()},
        ),
    )
)
FIXTURES = {
    path.name: json.loads(path.read_text())
    for path in sorted((Path(__file__).parent / "fixtures").glob("*.json"))
}


def _slots(node, out):
    """Every (container, key) pair below ``node``, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        out.append((node, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


@st.composite
def edited_fixtures(draw):
    doc = copy.deepcopy(FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))])
    for _ in range(draw(st.integers(0, 2))):
        parent, key = draw(st.sampled_from(_slots(doc, [])))
        parent[key] = draw(st.one_of(expr, small_int, name, junk))
    return doc


documents = st.one_of(built, edited_fixtures())
options = st.lists(
    st.sampled_from([["--json"], ["--trunc", "0"], ["--trunc", "2"], ["--trunc", "300"]]),
    max_size=2,
)


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "scenario.json"


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(doc=documents, command=st.sampled_from(COMMANDS), extra=options)
def test_main_keeps_the_exit_code_contract(scenario_path, doc, command, extra):
    scenario_path.write_text(json.dumps(doc))
    argv = [command, str(scenario_path)] + [arg for opt in extra for arg in opt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (code, err.getvalue())
