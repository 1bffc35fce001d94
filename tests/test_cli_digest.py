"""Byte-identical CLI reports: every fixture under every command.

Each run is `main([command, fixture] + variant)` in process.  Its exit
code, stdout and stderr are hashed together and compared with the table
in `cli_digests.json`.  A refactor of the CLI must leave the table as it
is; a change that means to alter a report regenerates it with

    PYTHONPATH=src python tests/test_cli_digest.py --write

and the diff of the table shows which reports moved.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from orbichern.cli import COMMANDS, main

HERE = Path(__file__).resolve().parent
FIXTURES = sorted((HERE / "fixtures").glob("*.json"))
TABLE = HERE / "cli_digests.json"
VARIANTS = {"text": [], "json": ["--json"], "trunc2": ["--trunc", "2"]}


def run_digest(command, fixture, variant):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(fixture)] + VARIANTS[variant])
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def all_digests():
    return {
        "%s %s %s" % (command, fixture.name, variant): run_digest(command, fixture, variant)
        for command in COMMANDS
        for fixture in FIXTURES
        for variant in VARIANTS
    }


def test_every_report_matches_the_committed_digest():
    expected = json.loads(TABLE.read_text())
    got = all_digests()
    assert sorted(got) == sorted(expected)
    moved = sorted(key for key in got if got[key] != expected[key])
    assert moved == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_digest.py --write")
    TABLE.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
