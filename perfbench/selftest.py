"""The benchmark's own tests: every output check rejects a damaged output.

    python3 perfbench/selftest.py

Each test takes a real output of the program on a few items, damages it
the way a faulty program might (a shifted Koszul coefficient, a wrong
induced value, a wrong exit code, ...), and requires the workload's check
to report it.  The last tests run every workload end to end in quick mode
and run the command where no sources are present.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import wl_cli  # noqa: E402
import wl_groupoids  # noqa: E402
import wl_subgroups  # noqa: E402
import wl_zero_section  # noqa: E402

SEED = 7


class ShiftedSeries:
    """A series whose coefficient at x^a is the true one at x^(a + e_0)."""

    def __init__(self, series):
        self.series = series

    def coefficient(self, exps):
        return self.series.coefficient((exps[0] + 1,) + tuple(exps[1:]))


class ZeroSectionChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.state = wl_zero_section.setup(SEED, True, None)
        cls.item = max(cls.state["items"], key=lambda i: len(i[0]))
        cls.report = wl_zero_section.run(cls.state, cls.item)

    def test_true_output_passes(self):
        self.assertEqual(wl_zero_section.check(self.state, self.item, self.report), [])
        self.assertEqual(self.state["setup_problems"], [])

    def test_shifted_koszul_coefficient_is_rejected(self):
        bad = SimpleNamespace(passed=True, lhs=ShiftedSeries(self.report.lhs),
                              rhs=self.report.rhs, first_mismatch=None)
        self.assertTrue(wl_zero_section.check(self.state, self.item, bad))

    def test_shifted_euler_todd_coefficient_is_rejected(self):
        bad = SimpleNamespace(passed=True, lhs=self.report.lhs,
                              rhs=ShiftedSeries(self.report.rhs), first_mismatch=None)
        problems = wl_zero_section.check(self.state, self.item, bad)
        self.assertTrue(any("Euler" in p for p in problems), problems)

    def test_failed_report_is_rejected(self):
        bad = SimpleNamespace(passed=False, lhs=self.report.lhs, first_mismatch=(0,))
        self.assertTrue(wl_zero_section.check(self.state, self.item, bad))


def _bump(vc, at_identity):
    """The same virtual character plus 1 at the identity class or at
    every other class."""
    from orbichern.exactnum import Cyclotomic
    from orbichern.reps import VirtualCharacter

    group = vc.group
    ident = group.conjugacy().class_of[group.identity]
    values = [
        v + Cyclotomic.one() if (c == ident) == at_identity else v
        for c, v in enumerate(vc.values)
    ]
    return VirtualCharacter(group, values)


class SubgroupChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.state = wl_subgroups.setup(SEED, True, None)
        # the largest ambient group among the quick items, with H != G
        cls.item = max(
            (i for i in cls.state["items"] if len(i["elems"]) < i["table"].size),
            key=lambda i: i["table"].size,
        )
        cls.out = wl_subgroups.run(cls.state, cls.item)

    def damaged(self, **parts):
        out = dict(self.out)
        out.update(parts)
        return wl_subgroups.check(self.state, self.item, out)

    def test_true_output_passes(self):
        self.assertEqual(wl_subgroups.check(self.state, self.item, self.out), [])
        self.assertEqual(self.state["setup_problems"], [])

    def test_routes_that_disagree_are_rejected(self):
        chi, traced, weighted, definitional = self.out["routes"][1]
        routes = list(self.out["routes"])
        routes[1] = (chi, traced, weighted, _bump(definitional, False))
        self.assertTrue(self.damaged(routes=routes))

    def test_wrong_induced_values_on_every_route_are_rejected(self):
        for at_identity in (True, False):
            routes = []
            for chi, _, _, definitional in self.out["routes"]:
                bad = _bump(definitional, at_identity)
                routes.append((chi, list(bad.values), bad, bad))
            self.assertTrue(self.damaged(routes=routes), at_identity)

    def test_wrong_induced_trivial_character_is_rejected(self):
        chi, _, _, definitional = self.out["routes"][0]
        bad = _bump(definitional, False)
        routes = [(chi, list(bad.values), bad, bad)] + list(self.out["routes"][1:])
        problems = self.damaged(routes=routes)
        self.assertTrue(any("fixed coset" in p for p in problems), problems)

    def test_failing_iso_report_is_rejected(self):
        bad = SimpleNamespace(passed=False, first_failure="class 0")
        self.assertTrue(self.damaged(iso=[bad] + list(self.out["iso"][1:])))

    def test_wrong_cohomology_is_rejected(self):
        coh = [list(c) for c in self.out["cohomology"]]
        coh[0][0] = _bump(coh[0][0], True)
        self.assertTrue(self.damaged(cohomology=coh))

    def test_wrong_eigenvalue_is_rejected(self):
        from orbichern.exactnum import Cyclotomic

        eigen = list(self.out["eigen"])
        entries = list(eigen[-1].entries)
        z, m = entries[0]
        entries[0] = (z * Cyclotomic.root_of_unity(7), m)
        eigen[-1] = SimpleNamespace(entries=entries)
        self.assertTrue(self.damaged(eigen=eigen))


class GroupoidChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.state = wl_groupoids.setup(SEED, True, None)
        cls.item = next(i for i in cls.state["items"] if i["action"] is not None)
        cls.out = wl_groupoids.run(cls.state, cls.item)

    def damaged(self, **parts):
        out = dict(self.out)
        out.update(parts)
        return wl_groupoids.check(self.state, self.item, out)

    def test_true_output_passes(self):
        self.assertEqual(wl_groupoids.check(self.state, self.item, self.out), [])

    def test_damaged_outputs_are_rejected(self):
        m, n, size = self.out["inertia_shape"]
        for parts in (
            {"round_trip": False},
            {"graph_embeds": False},
            {"bibundle_size": self.out["bibundle_size"] + 1},
            {"inertia_shape": (m, n, size - 1)},
            {"morita_parts": self.out["morita_parts"] + 1},
            {"morita_all_morita": False},
        ):
            self.assertTrue(self.damaged(**parts), parts)


class CliChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.state = wl_cli.setup(SEED, True, HERE / "out" / "cli" / "selftest")
        cls.runs = [(i, wl_cli.run(cls.state, i)) for i in cls.state["items"]]

    def fresh(self):
        return dict(self.state, outputs={}, verdicts={})

    def test_true_outputs_pass(self):
        state = self.fresh()
        for item, out in self.runs:
            self.assertEqual(wl_cli.check(state, item, out), [], item)

    def test_damaged_outputs_are_rejected(self):
        item, (code, stdout, stderr) = next(
            (i, o) for i, o in self.runs if i["fmt"] == "json" and not i["witness"]
        )
        report = json.loads(stdout)
        report["passed"] = not report["passed"]
        flipped = json.dumps(report).encode()
        for out in (
            (1 - code, stdout, stderr),
            (code, stdout, stderr + b"Traceback (most recent call last):\n"),
            (code, flipped, stderr),
            (code, b"{", stderr),
        ):
            self.assertTrue(wl_cli.check(self.fresh(), item, out), out[0])

    def test_changed_output_on_a_repeat_is_rejected(self):
        item, (code, stdout, stderr) = self.runs[0]
        state = self.fresh()
        self.assertEqual(wl_cli.check(state, item, (code, stdout, stderr)), [])
        self.assertTrue(wl_cli.check(state, item, (code, stdout + b" ", stderr)))

    def test_witness(self):
        text_item = dict(self.runs[0][0], fmt="text", witness=True)
        today = b"  class 0: fail  lhs=0  rhs=0  (series mismatch at exponent (0,))\n"
        fixed = b"  class 0: fail  lhs=1  rhs=1/2  (series mismatch at exponent (1,))\n"
        self.assertTrue(wl_cli.failed(self.state, text_item, (1, today, b"")))
        self.assertFalse(wl_cli.failed(self.state, text_item, (1, fixed, b"")))
        witness = [(i, o) for i, o in self.runs if i["witness"]]
        self.assertEqual(len(witness), 2)
        for item, out in witness:
            self.assertTrue(wl_cli.failed(self.state, item, out))


# run in a child interpreter: installing the tracer rewraps the program's
# classes for the rest of the process
_REFLECTED = """if 1:
    import json, sys
    sys.path[:0] = sys.argv[1:]
    import orbichern
    from orbichern.exactnum import Cyclotomic
    import metrics
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    one = Cyclotomic.one()
    counts = []
    for op in (lambda: 1 + one, lambda: 2 * one):
        first = len(tracer.name)
        op()
        calls = {}
        for nid in tracer.name[first:]:
            key = metrics.GROUP.get(tracer.names[nid], tracer.names[nid])
            calls[key] = calls.get(key, 0) + 1
        counts.append(calls)
    first = len(tracer.name)
    with tracer.excluded():
        one + one
    counts.append(len(tracer.name) - first)
    print(json.dumps(counts))
"""


class TracerChecks(unittest.TestCase):
    def test_reflected_arithmetic_is_counted_and_excluded_spans_dropped(self):
        proc = subprocess.run([sys.executable, "-c", _REFLECTED, str(ROOT / "src"), str(HERE)],
                              capture_output=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr.decode()[-3000:])
        radd, rmul, excluded = json.loads(proc.stdout)
        self.assertGreaterEqual(radd.get("exactnum.add", 0), 1, radd)
        self.assertGreaterEqual(rmul.get("exactnum.mul", 0), 1, rmul)
        self.assertEqual(excluded, 0)


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(argv, cwd=str(cwd), capture_output=True, timeout=600)


class EndToEnd(unittest.TestCase):
    def test_quick_runs(self):
        import metrics

        for workload in sorted(("zero_section_mu12", "subgroup_characters",
                                "groupoid_embeddings", "cli_cold")):
            for trace in (0, 1):
                proc = _run(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr.decode()[-3000:])
                result = json.loads(proc.stdout.decode().splitlines()[-1])
                self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"], proc.stderr.decode()[-3000:])
                names = metrics.per_layer() if trace else metrics.END_TO_END
                self.assertEqual(sorted(result["metrics"]), sorted(n for n, _ in names))
                # two witness calls per pass: MIN_ROUNDS rounds, or the
                # untraced and the traced pass
                want = 2 * 2 if workload == "cli_cold" else 0
                self.assertEqual(result["failed"], want, (workload, trace))

    def test_fails_without_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("cli_cold", 0, cwd=bare, script=bare / "perfbench" / "run.py")
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(proc.stdout.strip())


if __name__ == "__main__":
    unittest.main()
