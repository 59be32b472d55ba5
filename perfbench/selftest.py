"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that input generation is seed-deterministic, that the oracle
counts a result 10x its tolerance away as a tolerance miss, that an
exception or a nonzero CLI exit counts as a failed operation, that the
tracer counts work exactly and restores every wrapped function, and that
a traced run's per-operation counts do not depend on --seconds.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import unittest  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from abflux.fields import Point, SolenoidField  # noqa: E402
from abflux.geometry import Circle  # noqa: E402


class WorkDir(unittest.TestCase):
    def setUp(self):
        self.dir = Path(tempfile.mkdtemp(prefix=".selftest-", dir=BENCH))
        self.addCleanup(shutil.rmtree, self.dir, ignore_errors=True)

    def cli_snapshot(self, seed):
        """Invocations and input files of a cli-mix pool drawn into self.dir."""
        for path in self.dir.iterdir():
            path.unlink()
        mix = workloads.make("cli-mix", seed, self.dir, run.SRC)
        files = {p.name: p.read_text() for p in sorted(self.dir.iterdir())}
        order = [key for key, _ in islice(mix.stream(), 2 * len(mix.pool))]
        return [op.argv for op in mix.pool], files, order


class GeneratorTest(WorkDir):
    def pool_and_order(self, name, seed):
        w = workloads.make(name, seed, self.dir, run.SRC)
        return w.pool, [key for key, _ in islice(w.stream(), 2 * len(w.pool))]

    def test_in_process_pools_are_seed_deterministic(self):
        for name in ("stokes-sweep", "loop-phase"):
            with self.subTest(name):
                first = self.pool_and_order(name, 7)
                self.assertEqual(first, self.pool_and_order(name, 7))
                self.assertNotEqual(first[0], self.pool_and_order(name, 8)[0])

    def test_cli_pool_is_seed_deterministic(self):
        first = self.cli_snapshot(7)
        self.assertEqual(first, self.cli_snapshot(7))
        self.assertNotEqual(first[0], self.cli_snapshot(8)[0])

    def test_stream_restarts_identically(self):
        w = workloads.make("loop-phase", 3, self.dir, run.SRC)
        self.assertEqual([k for k, _ in islice(w.stream(), 1500)],
                         [k for k, _ in islice(w.stream(), 1500)])


class OracleTest(unittest.TestCase):
    def test_result_ten_tolerances_off_is_a_miss(self):
        op = workloads.stokes_pool(random.Random(5))[0]
        report, flux, audit = op.run()
        f = op.field
        expected = 2.0 * math.pi * f.kappa
        tol = oracle.requested_tol(workloads.DEFAULT,
                                   oracle.discrepancy_scale(f.B, f.R, f.gamma))
        exact = dataclasses.replace(report, discrepancy=expected)
        off = dataclasses.replace(report, discrepancy=expected + 10.0 * tol)
        by_name = {c.quantity: c for c in op.check((exact, flux, audit))}
        self.assertFalse(by_name["stokes.discrepancy"].missed)
        by_name = {c.quantity: c for c in op.check((off, flux, audit))}
        self.assertTrue(by_name["stokes.discrepancy"].missed)
        self.assertAlmostEqual(by_name["stokes.discrepancy"].over_tol, 10.0, places=6)

        tally = oracle.Tally()
        tally.add(op.check((off, flux, audit)))
        self.assertEqual((tally.attempted, tally.tol_missed), (1, 1))

    def test_exact_mismatch_fails(self):
        self.assertTrue(oracle.exact("quantize.infer", 3, 6).failed)
        self.assertFalse(oracle.exact("quantize.infer", 3, 3).failed)


class Raising(workloads.PoolWorkload):
    def call(self, op):
        raise ZeroDivisionError("boom")


class FailureTest(WorkDir):
    def test_exception_counts_as_failure(self):
        pool = workloads.stokes_pool(random.Random(1))[:3]
        w = Raising(pool, random.Random(1))
        tally = oracle.Tally()
        timings = run.run_ops(w, w.call, w.stream(), tally, lambda n: n >= 3)
        self.assertEqual(len(timings), 3)
        self.assertEqual((tally.attempted, tally.failed), (3, 3))
        self.assertEqual(tally.errors, {"ZeroDivisionError": 3})

    def test_nonzero_cli_exit_counts_as_failure(self):
        mix = workloads.make("cli-mix", 2, self.dir, run.SRC)
        # a circle on the default solenoid surface R = 1: PathCrossesSolenoid
        bad = dataclasses.replace(mix.pool[0], argv=("circulation", "--circle", "r=1"))
        tally = oracle.Tally()
        stream = iter([(0, bad), (1, mix.pool[1])])
        run.run_ops(mix, mix.call_inprocess, stream, tally, lambda n: n >= 2)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertEqual(tally.errors, {"CliFailed": 1})

    def test_changed_cli_stdout_fails(self):
        mix = workloads.make("cli-mix", 2, self.dir, run.SRC)
        op = mix.pool[16]  # quantize kappa
        result = mix.call_inprocess(op)
        self.assertFalse(any(c.failed for c in mix.grade(op, result)))
        code, out, err = result
        changed = mix.grade(op, (code, out + b" ", err))
        self.assertTrue({c.quantity for c in changed if c.failed} >= {"cli.stdout_repeat"})


class TracedRunTest(WorkDir):
    def per_op_counts(self, seed, seconds):
        w = workloads.make("loop-phase", seed, self.dir, run.SRC)
        w.pool = w.pool[:8]
        args = argparse.Namespace(workload="loop-phase", seed=seed, seconds=seconds)
        metrics, info, gate = run.traced_run(w, args, oracle.Tally())
        self.assertTrue(gate)
        return {name: value for name, (value, unit) in metrics.items()
                if unit == "count"}, info["passes"]

    def test_counts_do_not_depend_on_seconds(self):
        short, short_passes = self.per_op_counts(4, 0.0)
        long, long_passes = self.per_op_counts(4, 30.0)
        self.assertEqual(short, long)
        self.assertLess(short_passes, long_passes)
        self.assertGreater(short["geometry.panels"], 0)


class TracerTest(unittest.TestCase):
    def snapshot(self):
        return {(m.__name__, k): id(v) for m in tracing.abflux_modules()
                for k, v in vars(m).items()}

    def test_wrappers_are_restored(self):
        before = self.snapshot()
        tracer = tracing.Tracer()
        with tracer.installed():
            self.assertNotEqual(before, self.snapshot())
        self.assertEqual(before, self.snapshot())

    def test_restored_after_an_exception(self):
        before = self.snapshot()
        with self.assertRaises(KeyError):
            with tracing.Tracer().installed():
                raise KeyError("x")
        self.assertEqual(before, self.snapshot())

    def test_counts_are_exact(self):
        from abflux import geometry
        f = SolenoidField(B=2.0, R=1.0, gamma=1.5)
        loop = Circle(Point(0.0, 0.0, 0.0), 3.0, 2)
        counts = []
        for _ in range(2):
            tracer = tracing.Tracer()
            with tracer.installed():
                tracer.run_op(0, lambda: geometry.circulation(f, loop))
            counts.append(tracer.counts())
            self.assertEqual(tracer.calls["geometry.circulation"], 1)
            self.assertGreater(tracer.seed_panels, 0)
            self.assertEqual(tracer.panels[0], tracer.seed_panels + 2 * tracer.splits)
            self.assertEqual(tracer.calls["fields.eval_A"], 15 * tracer.panels[0])
            self.assertEqual({s.layer for s in tracer.spans}, {"op", "geometry"})
        self.assertEqual(counts[0], counts[1])


if __name__ == "__main__":
    unittest.main()
