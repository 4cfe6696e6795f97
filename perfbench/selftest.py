"""Toy-size self-test of the benchmark itself.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

It checks that every workload emits every metric ``BENCHMARK.json`` names,
with its unit, for ``--trace 0`` and ``--trace 1``; that the traced runs see
the predicted kernel dispatch; and that each output check fires when an
output is deliberately corrupted.  The file is not named ``test_*.py`` so
the repository's own test suite does not collect it.
"""

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import figures  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY = {"fig_wide": {"repetitions": 8}, "fig_narrow": {"repetitions": 8},
       "replay_zipf": {"requests": 3000}, "serve_wal": {}}
SECONDS = {"fig_wide": 0.1, "fig_narrow": 0.1, "replay_zipf": 0.1, "serve_wal": 6.0}


class BenchTestCase(unittest.TestCase):
    def setUp(self):
        self.workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def toy(self, workload, trace, corrupt=None):
        return run.run_workload(workload, 1, SECONDS[workload], trace, self.workdir,
                                sizes=TOY[workload], setup_repeats=1, corrupt=corrupt)


class TestContract(BenchTestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in BENCH["per_layer"]],
                         list(run.PER_LAYER))

    def test_every_metric_with_its_unit(self):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    out = self.toy(workload, trace)
                    line = run.result_line(out, trace)
                    self.assertEqual(out["problems"], [])
                    self.assertTrue(line["correct"])
                    self.assertEqual(line["failed"], 0)
                    self.assertGreaterEqual(line["attempted"], 1)
                    got = {k: v["unit"] for k, v in line["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in line["metrics"].items():
                        self.assertIsInstance(m["value"], float, name)
                        if not trace:
                            self.assertGreater(m["value"], 0.0, name)
                    if trace:
                        self.check_dispatch(workload, line["metrics"], out)

    def check_dispatch(self, workload, metrics, out):
        value = {k: v["value"] for k, v in metrics.items()}
        if workload == "fig_wide":
            self.assertEqual(value["core.perball_calls"], 0)
            self.assertGreater(value["core.wavefront_calls"], 0)
            self.assertEqual(run.kernel_tier(out["layers"]), "wavefront")
        elif workload == "fig_narrow":
            self.assertEqual(value["core.wavefront_calls"], 0)
            self.assertGreater(value["core.perball_calls"], 0)
            self.assertEqual(run.kernel_tier(out["layers"]), "per-ball")
        elif workload == "replay_zipf":
            self.assertEqual(value["service.fsyncs"], 0)
            self.assertGreater(value["service.churn_ops"], 0)
        else:
            self.assertGreater(value["service.fsyncs"], 0)
            self.assertGreater(value["service.wire_ms"], 0)


class TestChecksFire(BenchTestCase):
    def assert_counted(self, out, fragment):
        self.assertGreater(out["failed"], 0)
        self.assertFalse(run.result_line(out, False)["correct"])
        self.assertTrue(any(fragment in p for p in out["problems"]), out["problems"])

    def test_figure_mean_load(self):
        def corrupt(result):
            name = sorted(result.series)[0]
            result.series[name] = result.series[name] * 1.01

        out = figures.run("fig_wide", 1, 0.1, False, self.workdir, repetitions=8,
                          corrupt=corrupt)
        self.assert_counted(out, "mean normalised load")

    def test_figure_max_below_mean(self):
        def corrupt(result):
            name = sorted(result.series)[0]
            result.series[name] = result.series[name] * 0 + 0.5

        out = figures.run("fig_narrow", 1, 0.1, False, self.workdir, repetitions=8,
                          corrupt=corrupt)
        self.assert_counted(out, "below the mean load")

    def test_figure_digest(self):
        calls = []

        def corrupt(result):
            calls.append(1)
            if len(calls) == 2:
                name = sorted(result.series)[-1]
                result.series[name] = result.series[name].copy()
                result.series[name][-1] = 2.0

        out = figures.run("fig_narrow", 1, 0.1, False, self.workdir, repetitions=8,
                          corrupt=corrupt)
        self.assert_counted(out, "series digest")

    def test_replay_checks(self):
        cases = {
            "placements for": lambda p, loads, d: (p[:-1], loads, d),
            "final loads disagree": lambda p, loads, d: (
                p, {k: v + (i == 0) for i, (k, v) in enumerate(loads.items())}, d),
            "digest of the returned placements": lambda p, loads, d: (p, loads, "0" * 64),
        }
        for fragment, corrupt in cases.items():
            with self.subTest(fragment=fragment):
                out = replay.run(1, 0.1, False, self.workdir, requests=3000, corrupt=corrupt)
                self.assert_counted(out, fragment)

    def test_serve_reply_mismatch(self):
        def corrupt(exchanges):
            key = next(k for k, (req, _) in exchanges.items() if req["op"] == "alloc")
            req, reply = exchanges[key]
            exchanges[key] = (req, dict(reply, peer="peer-nowhere"))

        out = serve.run(1, SECONDS["serve_wal"], False, self.workdir, corrupt=corrupt)
        self.assert_counted(out, "reply does not match")

    def test_serve_session_checks(self):
        meta = {"t": "meta", "peers": ["a", "b"]}
        good = [meta, {"t": "alloc", "c": "x", "s": 1, "p": "a"},
                {"t": "churn", "c": "x", "s": 2, "res": "leave", "peer": "a"},
                {"t": "alloc", "c": "x", "s": 3, "p": "b"}]
        exchanges = {("x", 1): ({}, {"ok": True, "peer": "a"}),
                     ("x", 2): ({}, {"ok": True}),
                     ("x", 3): ({}, {"ok": True, "peer": "b"})}
        self.assertEqual(serve.check_session(exchanges, good, "d", "d"), [])
        cases = {
            "non-member": (good[:3] + [dict(good[3], p="a")],
                           {**exchanges, ("x", 3): ({}, {"ok": True, "peer": "a"})},
                           "d"),
            "without an ok reply": (good, {**exchanges, ("x", 1): ({}, {"ok": False})}, "d"),
            "missing from the WAL": (good[:3], exchanges, "d"),
            "recovered digest": (good, exchanges, "e"),
        }
        for fragment, (records, ex, recovered) in cases.items():
            with self.subTest(fragment=fragment):
                problems = serve.check_session(ex, records, "d", recovered)
                self.assertTrue(any(fragment in p for p in problems), problems)


if __name__ == "__main__":
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    unittest.main()
