"""Reference figure for `--parallel`: one multi-block scenario, with and without.

    python3 perfbench/parallel_ref.py

Writes a seeded `rrg-iso` scenario over a group of order 48 with the same
block repeated BLOCKS times, then times REPEATS fresh `orbichern rrg-iso
--json` processes without `--parallel` and as many with `--parallel 2`,
alternating, and prints the median wall times, their ratio and whether
the two reports are byte-identical.  It fails if any process exits other
than 0.  The timed workloads of the benchmark never pass `--parallel`;
this figure is a reference only.
"""

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import scenarios

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
BLOCKS = 8
REPEATS = 5


def main():
    doc, _ = scenarios.iso48(random.Random(SEED))
    doc["rrg_iso"] = [dict(doc["rrg_iso"][0], label="b%d" % i) for i in range(BLOCKS)]
    path = HERE / "out" / "parallel_ref.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True))
    base = [sys.executable, str(HERE / "cli_child.py"), "rrg-iso", str(path), "--json"]
    times = {"serial": [], "parallel2": []}
    outputs = {}
    for _ in range(REPEATS):
        for key, extra in (("serial", []), ("parallel2", ["--parallel", "2"])):
            t = time.perf_counter()
            proc = subprocess.run(base + extra, cwd=str(ROOT), capture_output=True, timeout=300)
            times[key].append(time.perf_counter() - t)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode()[-2000:])
                sys.exit("%s run exited %d" % (key, proc.returncode))
            outputs.setdefault(key, proc.stdout)
    serial = statistics.median(times["serial"])
    parallel = statistics.median(times["parallel2"])
    print(json.dumps({
        "blocks": BLOCKS,
        "repeats": REPEATS,
        "serial_s": serial,
        "parallel2_s": parallel,
        "speedup": serial / parallel,
        "identical_reports": outputs["serial"] == outputs["parallel2"],
    }))


if __name__ == "__main__":
    main()
