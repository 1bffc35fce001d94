"""cli_cold: the command line as a user runs it, one fresh interpreter per call.

An item is one invocation of `orbichern.cli.main` in a new process, the
way the console script calls it, timed from spawn to exit: interpreter
start, `import orbichern`, loading, the run and rendering.  A round is
every shipped fixture under the command it was written for (8 passing
files, 6 negative controls) and the four seeded scenario files under
their commands (6 calls, see `scenarios`), each in text and in `--json`:
40 invocations.  They run one at a time; `--parallel` is never passed.
Each child reports its own peak resident memory (see `cli_child`), and
`peak_rss_kb` is the largest of them.

Verdicts come from what each file was built to show, not from recorded
output: passing fixtures exit 0, negative controls exit 1, and the seeded
files' verdicts follow from their construction (see `scenarios`).  The
`corrupt_euler_omit` control must in addition show, for each failing
class, two different exact values; while the witness reports the
degree-0 shadow constants instead, those invocations count as failed.
"""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import scenarios

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "cli_child.py"
FIXTURES = ROOT / "tests" / "fixtures"
TRACE_STRIDE = 1
MIN_ROUNDS = 2
QUICK_ITEMS = 6

PASSING = (
    ("rrg-iso", "s3_standard"),
    ("todd", "todd_line"),
    ("induce", "s3_standard"),
    ("chern", "s3_standard"),
    ("inertia", "s3_standard"),
    ("groupoid-check", "s3_standard"),
    ("rrg-general", "c2_in_c4_general"),
    ("rrg-zero-section", "zero_section_reflection"),
)
NEGATIVE = (
    ("rrg-iso", "corrupt_weight_one"),
    ("rrg-iso", "corrupt_weight_inverted"),
    ("rrg-general", "corrupt_inversion_direct"),
    ("rrg-zero-section", "corrupt_euler_omit"),
    ("rrg-iso", "corrupt_nonequivariant_diff"),
    ("groupoid-check", "corrupt_action"),
)
WITNESS = ("rrg-zero-section", "corrupt_euler_omit")


def setup(seed, quick, workdir):
    import orbichern  # noqa: F401  (set-up time includes the import a user pays)

    rng = random.Random(seed)
    problems = []
    calls = []
    for command, name in PASSING + NEGATIVE:
        path = FIXTURES / ("%s.json" % name)
        if not path.is_file():
            problems.append("missing fixture %s" % path)
        calls.append((command, path, None, (command, name) in PASSING))
    for command, path, blocks in scenarios.write_all(rng, Path(workdir)):
        calls.append((command, path, blocks, all(blocks.values())))
    items = []
    for command, path, blocks, passes in calls:
        for fmt in ("text", "json"):
            items.append(
                {
                    "command": command,
                    "path": path,
                    "fmt": fmt,
                    "exit": 0 if passes else 1,
                    "blocks": blocks,
                    "witness": (command, path.stem) == WITNESS,
                }
            )
    rng.shuffle(items)
    if quick:
        items = [i for i in items if i["witness"]] + [
            i for i in items if not i["witness"]
        ][: QUICK_ITEMS - 2]
    return {
        "items": items,
        "rss_path": Path(workdir) / "child.rss",
        "peak_rss_kb": 0,
        "setup_problems": problems,
        "outputs": {},
        "verdicts": {},
        "trace_dir": None,
        "traced": 0,
    }


def items(state):
    return state["items"]


def run(state, item):
    argv = [sys.executable, str(CHILD), item["command"], str(item["path"])]
    if item["fmt"] == "json":
        argv.append("--json")
    env = dict(os.environ, PERFBENCH_RSS=str(state["rss_path"]))
    if state["trace_dir"] is not None:
        state["traced"] += 1
        env["PERFBENCH_TRACE"] = str(Path(state["trace_dir"]) / ("cli-%d.spans" % state["traced"]))
    proc = subprocess.run(argv, cwd=str(ROOT), env=env, capture_output=True, timeout=120)
    # a child that died before writing it raises here: a failed operation
    rss = int(state["rss_path"].read_text())
    state["rss_path"].unlink()
    state["peak_rss_kb"] = max(state["peak_rss_kb"], rss)
    return proc.returncode, proc.stdout, proc.stderr


def peak_rss_kb(state):
    """The largest peak resident memory that a CLI child reported."""
    return state["peak_rss_kb"]


_FAIL_LINE = re.compile(r"^\s*class (\d+): fail\s+lhs=(.*?)\s+rhs=(.*?)(?:\s+\(.*\))?$")


def witness_shown(item, stdout):
    """Every failing class shows two different exact values, and one fails."""
    text = stdout.decode()
    pairs = []
    if item["fmt"] == "json":
        for block in json.loads(text)["blocks"]:
            for chk in block.get("checks", []):
                pairs += [(e.get("lhs"), e.get("rhs")) for e in chk["classes"]
                          if e["status"] == "fail"]
    else:
        for line in text.splitlines():
            m = _FAIL_LINE.match(line)
            if m:
                pairs.append((m.group(2), m.group(3)))
            elif re.match(r"^\s*class \d+: fail", line):
                pairs.append((None, None))
    return bool(pairs) and all(a is not None and b is not None and a != b for a, b in pairs)


def failed(state, item, out):
    return item["witness"] and not witness_shown(item, out[1])


def check(state, item, out):
    code, stdout, stderr = out
    label = "%s %s (%s)" % (item["command"], item["path"].name, item["fmt"])
    problems = []
    if b"Traceback" in stderr:
        problems.append("%s: traceback on stderr" % label)
    if code != item["exit"]:
        problems.append("%s: exit %s, expected %d" % (label, code, item["exit"]))
    key = (item["command"], str(item["path"]), item["fmt"])
    first = state["outputs"].setdefault(key, stdout)
    if first != stdout:
        problems.append("%s: output differs from an earlier invocation" % label)
    try:
        verdict, blocks = _verdicts(item, stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return problems + ["%s: unreadable report (%s)" % (label, exc)]
    if verdict != (code == 0):
        problems.append("%s: verdict %s disagrees with exit %s" % (label, verdict, code))
    if item["blocks"] is not None and blocks != item["blocks"]:
        problems.append("%s: block verdicts %s, built as %s" % (label, blocks, item["blocks"]))
    other = state["verdicts"].setdefault((item["command"], str(item["path"])), verdict)
    if other != verdict:
        problems.append("%s: text and --json verdicts differ" % label)
    return problems


def _verdicts(item, stdout):
    """(overall passed, {block name: passed}) as the report states them."""
    text = stdout.decode()
    if item["fmt"] == "json":
        report = json.loads(text)
        return report["passed"], {b["name"]: b["passed"] for b in report["blocks"]}
    lines = text.splitlines()
    if lines[-1] not in ("OK", "FAILED"):
        raise ValueError("last line is %r" % lines[-1])
    prefix = item["command"] + " "
    blocks = {}
    for line in lines:
        m = re.match(r"^%s(.+?): (pass|fail)(?:  \(.*\))?$" % re.escape(prefix), line)
        if m:
            blocks[m.group(1)] = m.group(2) == "pass"
    return lines[-1] == "OK", blocks

