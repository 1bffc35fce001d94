"""One command-line invocation in a fresh interpreter, as the console script.

    python3 perfbench/cli_child.py <command> <scenario> [--json]

does what the installed `orbichern` script does: import `orbichern.cli`
and exit with `main()`'s code.  With PERFBENCH_RSS set to a file path, it
writes its own peak resident memory (KiB) there as it ends.  With
PERFBENCH_TRACE set to a file path, it also times the import (at reference
host speed, see `hostspeed`), traces the run and writes the spans there.
"""

import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main():
    rss_path = os.environ.get("PERFBENCH_RSS")
    try:
        return run()
    finally:
        if rss_path:
            with open(rss_path, "w") as fh:
                fh.write("%d\n" % resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run():
    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        from orbichern.cli import main as cli_main

        return cli_main(sys.argv[1:])
    t0 = time.perf_counter()
    import orbichern.cli

    import_s = time.perf_counter() - t0
    from hostspeed import speed
    from tracer import Tracer

    import_s *= speed()

    tracer = Tracer()
    tracer.install()
    try:
        return orbichern.cli.main(sys.argv[1:])
    finally:
        tracer.dump(trace_path, extra={"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
