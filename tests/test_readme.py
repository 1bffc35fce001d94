"""The examples of README.md run as written."""

import re
from pathlib import Path

from orbichern.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(lang):
    """The one fenced block of ``lang`` in the README."""
    blocks = re.findall(r"^```%s\n(.*?)^```" % lang, README, re.S | re.M)
    assert len(blocks) == 1
    return blocks[0]


def test_python_example_runs():
    exec(compile(_block("python"), "README.md", "exec"), {})


def test_scenario_fragment_passes_rrg_iso(tmp_path, capsys):
    path = tmp_path / "fragment.json"
    path.write_text(_block("json"), encoding="utf-8")
    code = main(["rrg-iso", str(path)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out.endswith("OK\n")
    assert "class 1: pass  lhs=-1  rhs=-1" in captured.out
