"""The orbichern benchmark: one workload per call, one JSON line out.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
`src/`, nothing is installed.  With `--trace 0` the run times whole rounds
of the workload's items until `--seconds` of item time have passed (and at
least the workload's minimum number of rounds), checks every output, and
reports the end-to-end metrics: `items_per_s` over every item run, and
`item_p50_ms` and `item_tail_ms` over each item's fastest of the
workload's minimum number of rounds.  `setup_s` is the median of several fresh
set-ups: this process's own, from interpreter start to ready inputs, and
those of child interpreters started one at a time.  With `--trace 1` it
runs a traced pass instead and reports the per-layer metrics and the
tracing overhead.

Every time is reported at a fixed host speed (see `hostspeed`): each item
is bracketed by two timings of a fixed kernel and scaled by C_REF over
their mean, each set-up by the kernel timed right after it.  The raw wall
times go to the result file under `raw`.  `--quick` cuts every round to a few items, for the
benchmark's own tests.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; result and span files go
to perfbench/out/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402
from hostspeed import C_REF, calibrate, speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = {
    "zero_section_mu12": "wl_zero_section",
    "subgroup_characters": "wl_subgroups",
    "groupoid_embeddings": "wl_groupoids",
    "cli_cold": "wl_cli",
}
SETUP_SAMPLES = 9
TAIL_LADDER = (99, 95, 90, 85, 80, 75)
MAX_REPORTED = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(wl, args, workdir):
    """Import the program and build the workload's inputs.  Returns the
    state, the seconds since interpreter start (raw and at reference speed)
    and the seconds spent importing (at reference speed)."""
    t = time.perf_counter()
    import orbichern  # noqa: F401

    import_s = time.perf_counter() - t
    state = wl.setup(args.seed, args.quick, workdir)
    raw = time.perf_counter() - T0
    factor = speed()
    return state, raw, raw * factor, import_s * factor


def workdir_for(args, probe=False):
    if args.workload != "cli_cold":
        return None
    tag = "probe" if probe else "seed%d%s" % (args.seed, "-quick" if args.quick else "")
    return OUT / "cli" / tag


def probe_setups(args, count):
    """Set-up times of `count` fresh interpreters, started one at a time."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    if args.quick:
        argv.append("--quick")
    out = []
    for _ in range(count):
        proc = subprocess.run(argv, cwd=str(ROOT), capture_output=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr.decode()[-2000:])
        out.append(json.loads(proc.stdout.decode().splitlines()[-1]))
    return out


def measure(wl, state, items, seconds, min_rounds, checking=contextlib.nullcontext):
    """Whole rounds over `items` until `seconds` of raw item time and at
    least `min_rounds` rounds; returns (item times at reference speed, raw
    item times, failed, problems), round after round.  Each item is
    bracketed by two kernel timings and its time scaled by C_REF over their
    mean (more kernel runs per item cooled the item's caches and made it
    slower and less steady).  The checks of each output run inside
    `checking()`."""
    times, raw, problems, failed = [], [], [], 0
    busy, rounds = 0.0, 0
    while rounds < min_rounds or busy < seconds:
        for item in items:
            before = calibrate()
            t = time.perf_counter()
            try:
                out = wl.run(state, item)
            except Exception:  # an operation that raises is a failed operation
                dt = time.perf_counter() - t
                out = None
                failed += 1
                traceback.print_exc(file=sys.stderr)
            else:
                dt = time.perf_counter() - t
            after = calibrate()
            if out is not None:
                with checking():
                    problems += wl.check(state, item, out)
                    if hasattr(wl, "failed") and wl.failed(state, item, out):
                        failed += 1
            times.append(dt * 2 * C_REF / (before + after))
            raw.append(dt)
            busy += dt
        rounds += 1
    return times, raw, failed, problems


def tail_percentile(items):
    """The highest ladder percentile with at least ten items beyond it."""
    for p in TAIL_LADDER:
        if items * (100 - p) / 100 >= 10:
            return p
    return None


def fastest(times, n, rounds):
    """Each item's fastest time over the first `rounds` rounds (items repeat
    every n).  A fixed number of rounds: the fastest of more is faster."""
    return [min(times[i:n * rounds:n]) for i in range(n)]


def end_to_end(args, wl, state, setup_s):
    items = wl.items(state)
    min_rounds = getattr(wl, "MIN_ROUNDS", 1)
    times, raw, failed, problems = measure(wl, state, items, args.seconds, min_rounds)
    p = tail_percentile(len(items))
    # cli_cold reads its CLI children's own figures: RUSAGE_CHILDREN would
    # also cover the set-up probes
    if hasattr(wl, "peak_rss_kb"):
        rss = wl.peak_rss_kb(state) / 1024.0
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def figures(ts, setups):
        per_item = fastest(ts, len(items), min_rounds)
        cuts = statistics.quantiles(per_item, n=100, method="inclusive")
        return {
            "items_per_s": len(ts) / sum(ts),
            "item_p50_ms": statistics.median(per_item) * 1e3,
            "item_tail_ms": (cuts[p - 1] if p else max(per_item)) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        }

    values = figures(times, [s["setup_s"] for s in setup_s])
    result_metrics = {n: {"value": values[n], "unit": u} for n, u in metrics.END_TO_END}
    extra = {
        "tail_percentile": p,
        "setup_samples": setup_s,
        "raw": figures(raw, [s["raw_s"] for s in setup_s]),
    }
    return len(times), failed, problems, result_metrics, extra


def traced(args, wl, state, import_s):
    """Untraced pass, then set-up and the same pass again under the tracer."""
    from tracer import Profile, Tracer, load

    stride = wl.TRACE_STRIDE
    subset = wl.items(state)[::stride]
    t_plain, _, failed, problems = measure(wl, state, subset, 0.0, 1)
    trace_dir = OUT / "trace" / args.workload
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    tracer = Tracer()
    tracer.install()
    state = wl.setup(args.seed, args.quick, workdir_for(args))
    if "trace_dir" in state:
        state["trace_dir"] = trace_dir
    subset = wl.items(state)[::stride]
    # the checks call the program too (coefficients, conversions): keep
    # their spans out of the per-item figures
    t_traced, raw_traced, failed2, problems2 = measure(wl, state, subset, 0.0, 1,
                                                       checking=tracer.excluded)
    tracer.dump(trace_dir / "main.spans", extra={"import_s": import_s})
    profile = Profile()
    time_keys = frozenset(metrics.TIMES)
    imports = []
    spans = 0
    for path in sorted(trace_dir.glob("*.spans")):
        header, arrays = load(path)
        if path.name != "main.spans" or args.workload != "cli_cold":
            imports.append(header["extra"]["import_s"])
        profile.add(header["names"], arrays, metrics.GROUP, time_keys)
        spans += header["count"]
    n = len(subset)
    # span times are raw; scale them by the traced pass's mean host speed
    values = metrics.per_layer_values(profile, n, sum(t_traced) / sum(raw_traced))
    rate_plain = len(t_plain) / sum(t_plain)
    rate_traced = n / sum(t_traced)
    values.update(
        {
            "cli.import_s": statistics.mean(imports),
            "trace.items_per_s_untraced": rate_plain,
            "trace.items_per_s_traced": rate_traced,
            "trace.overhead_x": rate_plain / rate_traced,
            "trace.spans_per_item": spans / n,
        }
    )
    result_metrics = {name: {"value": values[name], "unit": u} for name, u in metrics.per_layer()}
    return (len(t_plain) + n, failed + failed2, problems + problems2, result_metrics,
            {"trace_items": n, "trace_dir": str(trace_dir.relative_to(ROOT))})


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "orbichern" / "__init__.py").is_file():
        print("error: no orbichern sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = importlib.import_module(WORKLOADS[args.workload])
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        workdir = workdir_for(args, probe=True)
        _, raw, scaled, _ = set_up(wl, args, workdir)
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": scaled, "raw_s": raw}))
        return 0
    state, raw, scaled, import_s = set_up(wl, args, workdir_for(args))
    problems = list(state.get("setup_problems", []))
    if args.trace:
        attempted, failed, more, result_metrics, extra = traced(args, wl, state, import_s)
    else:
        own = {"setup_s": scaled, "raw_s": raw}
        samples = [own] + probe_setups(args, 1 if args.quick else SETUP_SAMPLES - 1)
        attempted, failed, more, result_metrics, extra = end_to_end(args, wl, state, samples)
    problems += more
    for line in problems[:MAX_REPORTED]:
        print("check failed: %s" % line, file=sys.stderr)
    if len(problems) > MAX_REPORTED:
        print("... %d more check failures" % (len(problems) - MAX_REPORTED), file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, **extra)
    name = "result-%s-%d-%d%s.json" % (args.workload, args.seed, args.trace,
                                       "-quick" if args.quick else "")
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
