"""Self-tests of the benchmark's helpers, on a seconds-long configuration.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import unittest  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import SpanRecord, SpanRecorder, instrument, self_times, tail_percentile  # noqa: E402

QUALITY = ("served_accuracy", "subgraph_auc", "sufficiency", "necessity", "signature_recall")


class TailPercentileTest(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_samples_beyond(self):
        cases = {1000: 99.0, 999: 95.0, 200: 95.0, 199: 90.0, 100: 90.0, 40: 75.0, 20: 50.0}
        for count, expected in cases.items():
            q, value, samples = tail_percentile(range(count))
            self.assertEqual(q, expected, count)
            self.assertEqual(samples, count)
            self.assertAlmostEqual(value, float(np.percentile(range(count), expected)))

    def test_too_few_samples_has_no_tail(self):
        q, value, samples = tail_percentile([3.0] * 19)
        self.assertIsNone(q)
        self.assertTrue(np.isnan(value))
        self.assertEqual(samples, 19)


class SelfTimeTest(unittest.TestCase):
    def test_nested_children_are_subtracted_once(self):
        spans = [
            SpanRecord(1, "parent", 0.0, 10.0, None, "r", "t"),
            SpanRecord(2, "a", 1.0, 3.0, 1, "r", "t"),
            SpanRecord(3, "b", 2.0, 5.0, 1, "r", "t"),  # overlaps a
            SpanRecord(4, "c", 7.0, 8.0, 1, "r", "t"),
            SpanRecord(5, "grandchild", 7.2, 7.6, 4, "r", "t"),
            SpanRecord(6, "late", 9.5, 12.0, 1, "r", "t"),  # clipped at 10
        ]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - (4.0 + 1.0 + 0.5))
        self.assertAlmostEqual(selfs[4], 1.0 - 0.4)
        self.assertAlmostEqual(selfs[2], 2.0)
        self.assertAlmostEqual(selfs[5], 0.4)

    def test_recorder_nests_per_thread_under_contention(self):
        recorder = SpanRecorder()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work(k: int) -> None:
                for i in range(200):
                    with recorder.span("outer", request=f"{k}-{i}", root=True):
                        with recorder.span("inner"):
                            pass

            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            self.assertFalse(any(t.is_alive() for t in threads))
        finally:
            sys.setswitchinterval(interval)
        by_id = {s.id: s for s in recorder.spans}
        self.assertEqual(len(by_id), 8 * 200 * 2)
        for span in recorder.spans:
            if span.name == "inner":
                parent = by_id[span.parent]
                self.assertEqual(parent.name, "outer")
                self.assertEqual(parent.request, span.request)
                self.assertEqual(parent.thread, span.thread)
                self.assertTrue(parent.start <= span.start <= span.end <= parent.end)


def _same_response(test, a, b):
    test.assertEqual(type(a), type(b))
    test.assertEqual(a.fingerprint, b.fingerprint)
    test.assertEqual(a.family, b.family)
    test.assertEqual(a.probabilities.tobytes(), b.probabilities.tobytes())
    test.assertEqual(a.explanation.node_order.tobytes(), b.explanation.node_order.tobytes())
    test.assertEqual(a.explanation.node_scores.tobytes(), b.explanation.node_scores.tobytes())


class InstrumentationTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.setup = workloads.run_setup(workloads.TINY, trace=False)

    def test_wrapped_layers_return_bit_identical_results(self):
        from repro.serve.daemon import ServeDaemon

        engine, gnn = self.setup.engine, self.setup.artifacts.gnn
        explainers = {name: engine.explainers[name] for name in workloads.EXPLAINERS}
        samples = workloads.submissions(stream=0, count=3, multiplier=1)
        graph = self.setup.artifacts.test_set[0]
        kept = np.arange(max(1, graph.n_real // 2))

        def observe(daemon):
            responses = [daemon.submit(sample) for sample in samples]
            explanations = {n: e.explain(graph) for n, e in explainers.items()}
            return responses, explanations, gnn.subgraph_proba(graph, kept)

        with ServeDaemon(engine) as daemon:
            plain = observe(daemon)
        recorder = SpanRecorder()
        daemon = ServeDaemon(engine)
        inst = instrument(recorder, gnn, explainers, engine=engine, daemon=daemon)
        try:
            with daemon:
                wrapped = observe(daemon)
        finally:
            inst.remove()
        for a, b in zip(plain[0], wrapped[0]):
            _same_response(self, a, b)
        for name in explainers:
            self.assertEqual(
                plain[1][name].node_order.tobytes(), wrapped[1][name].node_order.tobytes()
            )
        self.assertEqual(plain[2].tobytes(), wrapped[2].tobytes())
        names = {s.name for s in recorder.spans}
        for expected in ("request", "ingest.admit", "ingest.sanitize", "ingest.verify",
                         "ingest.reduce", "daemon.queue_wait", "gnn.classify",
                         "serve.execute", "daemon.handoff", "gnn.embed",
                         "gnn.subgraph_forward", "explain.SubgraphX"):
            self.assertIn(expected, names)
        for owner in (engine, gnn, daemon, *explainers.values()):
            self.assertFalse(
                {"admit", "classify", "execute", "submit", "explain", "embed",
                 "subgraph_proba"} & set(vars(owner)),
                f"{owner!r} still wrapped",
            )


class DeterminismTest(unittest.TestCase):
    def test_quality_is_bit_identical_across_runs_and_seeds(self):
        for workload in workloads.WORKLOADS:
            runs = [
                workloads.run_workload(workload, seed, 0.1, False, scale=workloads.TINY)
                for seed in (3, 3, 4)
            ]
            for run in runs:
                self.assertTrue(run.correct, run.problems)
            for metric in QUALITY + ("test_accuracy",):
                values = {run.metrics[metric] for run in runs}
                self.assertEqual(len(values), 1, (workload, metric, values))

    def test_different_seed_gives_different_inputs(self):
        pool = workloads.submissions(stream=0, count=24, multiplier=1)
        traced = workloads.submissions(stream=1, count=24, multiplier=1)
        names = [s.program.name for s in pool]
        self.assertEqual(len(set(names)), len(names))
        self.assertFalse(set(names) & {s.program.name for s in traced})
        self.assertEqual(sorted({s.family for s in pool}), sorted(workloads.FAMILIES))
        longer = workloads.submissions(stream=0, count=30, multiplier=1)
        self.assertEqual(names, [s.program.name for s in longer[:24]])
        orders = {tuple(workloads.send_order(seed, 24)) for seed in range(3)}
        self.assertEqual(len(orders), 3)
        self.assertEqual(workloads.send_order(7, 24), workloads.send_order(7, 24))

        test_set = [
            SimpleNamespace(family=family, name=f"{family}-{i}")
            for family in workloads.FAMILIES
            for i in range(2)
        ]
        orders = {
            seed: [g.name for g in workloads.audit_graphs(test_set, seed)] for seed in range(3)
        }
        self.assertGreater(len({tuple(o) for o in orders.values()}), 1)
        for order in orders.values():
            self.assertEqual(sorted(order), sorted(f"{f}-0" for f in workloads.FAMILIES))


class EntryPointTest(unittest.TestCase):
    def test_fails_without_program_sources(self):
        bare = HERE / "out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "triage",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        for line in result.stdout.splitlines():
            with self.assertRaises(json.JSONDecodeError):
                json.loads(line)


if __name__ == "__main__":
    unittest.main()
