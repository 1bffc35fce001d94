"""List the lines of ``src/orbichern`` that the test suite never executes.

Runs pytest in this process under the standard library's ``trace``
module (line counts, nothing to install), writes its annotated
``.cover`` files to a temporary directory and prints, per module, the
executable lines that ran zero times, then the total.  Code that runs
only in a child process (a CLI subprocess test) counts as unexecuted.

Usage, from the repository root:

    python tools/unexecuted_lines.py [pytest arguments]

With no arguments the whole ``tests`` directory runs quietly, with the
hypothesis seed fixed so that two runs on the same code print the same
count.  The exit status is pytest's.  Expect a run about ten times
slower than plain pytest.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tempfile
import trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "orbichern"
MISSING = ">>>>>> "


def _ranges(lines):
    """'3-5, 9' for [3, 4, 5, 9]."""
    out = []
    start = prev = lines[0]
    for n in lines[1:] + [None]:
        if n is not None and n == prev + 1:
            prev = n
            continue
        out.append(str(start) if start == prev else "%d-%d" % (start, prev))
        if n is not None:
            start = prev = n
    return ", ".join(out)


def unexecuted(coverdir):
    """{module: [line numbers]} read from the ``.cover`` files of PACKAGE."""
    out = {}
    for name in sorted(os.listdir(coverdir)):
        if not (name.startswith(PACKAGE + ".") and name.endswith(".cover")):
            continue
        module = name[len(PACKAGE) + 1 : -len(".cover")]
        with open(os.path.join(coverdir, name), encoding="utf-8") as fh:
            out[module] = [i for i, line in enumerate(fh, 1) if line.startswith(MISSING)]
    return out


def main(argv):
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    args = argv or ["-q", "-p", "no:cacheprovider", "tests"]
    if not argv and importlib.util.find_spec("hypothesis"):
        args.append("--hypothesis-seed=0")
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    status = tracer.runfunc(pytest.main, args)
    with tempfile.TemporaryDirectory() as coverdir:
        tracer.results().write_results(show_missing=True, coverdir=coverdir)
        missing = unexecuted(coverdir)
    by_count = sorted(missing.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    print()
    for module, lines in by_count:
        if lines:
            print("%-12s %4d  %s" % (module, len(lines), _ranges(lines)))
    print("%-12s %4d" % ("total", sum(len(v) for v in missing.values())))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
