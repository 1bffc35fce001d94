"""Import contract: `import orbichern` loads every submodule but not NumPy.

Each check runs in a fresh interpreter, since the test session itself has
long since imported NumPy.  Span tracers read `sys.modules["orbichern.<m>"]`
right after the import, so all ten submodules must be there; NumPy loads
only where arrays run.  Blocks run one after another in one thread, so
`concurrent.futures` never loads.  The last test guards the public
surface: every exported name has a caller in the package or is listed as
library API on purpose.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import orbichern

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
# public names that no code in the package calls: the paper's calculus and
# its oracles, driven by the acceptance suite
LIBRARY_API = (
    "check_functoriality",
    "cohomology",
    "exp_nilpotent",
    "heat_supertrace",
    "induce",
    "inner_product",
    "mapping_cone",
    "shift",
    "subgroups",
    "tensor",
)
SUBMODULES = (
    "exactnum",
    "linalg",
    "groups",
    "reps",
    "complexes",
    "charts",
    "series",
    "rrg",
    "groupoids",
    "cli",
)

PRELUDE = """
import contextlib, io, json, sys

def lazy_loaded():
    return sorted(
        m for m in sys.modules
        if m == "numpy" or m.startswith("numpy.") or m.startswith("concurrent.futures")
    )

def quiet_main(*argv):
    from orbichern.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))
"""


def probe(body):
    """Run ``body`` after the prelude in a fresh interpreter; return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + body],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(ROOT),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_every_submodule_and_no_numpy():
    got = probe(
        """
import orbichern
print(json.dumps({
    "submodules": sorted(m for m in sys.modules if m.startswith("orbichern.")),
    "lazy": lazy_loaded(),
}))
"""
    )
    assert got["submodules"] == sorted("orbichern." + m for m in SUBMODULES)
    assert got["lazy"] == []


def test_todd_and_rrg_iso_run_without_numpy():
    got = probe(
        """
import orbichern
codes = [
    quiet_main("todd", %r),
    quiet_main("rrg-iso", %r),
    quiet_main("rrg-iso", %r, "--json"),
]
print(json.dumps({"codes": codes, "lazy": lazy_loaded()}))
"""
        % (
            str(FIXTURES / "todd_line.json"),
            str(FIXTURES / "s3_standard.json"),
            str(FIXTURES / "s3_standard.json"),
        )
    )
    assert got == {"codes": [0, 0, 0], "lazy": []}


def test_groupoid_check_loads_numpy():
    got = probe(
        """
import orbichern
from orbichern import groupoids
code = quiet_main("groupoid-check", %r)
print(json.dumps({
    "code": code,
    "numpy": "numpy" in sys.modules,
    "rebound": groupoids.np is sys.modules.get("numpy"),
}))
"""
        % str(FIXTURES / "s3_standard.json")
    )
    assert got == {"code": 0, "numpy": True, "rebound": True}


def test_no_command_loads_concurrent_futures():
    got = probe(
        """
from orbichern.cli import COMMANDS
codes = [quiet_main(command, %r) for command in COMMANDS]
print(json.dumps({
    "codes": codes,
    "futures": sorted(m for m in sys.modules if m.startswith("concurrent")),
}))
"""
        % str(FIXTURES / "s3_standard.json")
    )
    assert got == {"codes": [0] * 8, "futures": []}


def test_heat_supertrace_loads_numpy_and_returns_values():
    got = probe(
        """
from orbichern import EquivariantComplex, FiniteGroup, Representation, heat_supertrace
group = FiniteGroup.cyclic(3)
before = "numpy" in sys.modules
cx = EquivariantComplex.single(Representation.trivial(group, 2), degree=1)
values = heat_supertrace(cx, 1, ts=(0.5, 2.0))
print(json.dumps({
    "before": before,
    "after": "numpy" in sys.modules,
    "values": [[v.real, v.imag] for v in values],
}))
"""
    )
    assert got["before"] is False and got["after"] is True
    assert len(got["values"]) == 2
    for re, im in got["values"]:
        assert abs(re + 2) < 1e-12 and abs(im) < 1e-12


def test_every_public_name_has_a_caller_or_is_listed():
    """A name in ``orbichern.__all__`` is read by package code outside
    ``__init__.py`` (a ``Name`` or ``Attribute`` node), or it is listed in
    LIBRARY_API; a listed name must still be public and still uncalled."""
    read = set()
    for path in (ROOT / "src" / "orbichern").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    uncalled = sorted(n for n in orbichern.__all__ if n not in read)
    assert uncalled == sorted(LIBRARY_API)
