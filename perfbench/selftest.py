"""The benchmark's own tests.  Run from the checkout root::

    python3 perfbench/selftest.py

* every workload runs in tiny mode, untraced and traced, and reports exactly
  the metric names and units ``BENCHMARK.json`` declares;
* a corrupted golden value makes the run report failed ops;
* after a traced run every patched attribute is the original object again;
* the host-speed sampler takes samples and restores the alarm it borrowed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

from run import BENCH_DIR, ROOT, process_edge

RUN = os.path.join(BENCH_DIR, "run.py")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def scratch_dir() -> str:
    root = os.path.join(ROOT, ".perfbench")
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=root)


def run_tiny(workload: str, trace: int, *extra: str) -> dict:
    command = [
        sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--tiny", *extra,
    ]
    completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if completed.returncode != 0:
        raise AssertionError(f"{command} exited {completed.returncode}:\n{completed.stderr[-3000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        benchmark = load_benchmark()
        expected = {
            0: {metric["name"]: metric["unit"] for metric in benchmark["end_to_end"]},
            1: {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]},
        }
        for workload in (entry["name"] for entry in benchmark["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = run_tiny(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: value["unit"] for name, value in result["metrics"].items()}
                    self.assertEqual(units, expected[trace])

    def test_corrupted_golden_counts_failures(self):
        with open(os.path.join(BENCH_DIR, "golden.json"), encoding="utf-8") as handle:
            golden = json.load(handle)
        for key in golden["enumerate-conv:tiny"]:
            golden["enumerate-conv:tiny"][key] = "0" * 64
        scratch = scratch_dir()
        try:
            path = os.path.join(scratch, "golden.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(golden, handle)
            result = run_tiny("enumerate-conv", 0, "--golden", path)
        finally:
            shutil.rmtree(scratch)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["verified_ratio"]["value"], 0.0)


class ShimRestore(unittest.TestCase):
    def test_traced_run_restores_every_patched_attribute(self):
        process_edge()
        from layertrace import TARGETS, Tracer
        from workloads import EnumerateConv, SearchGpt2

        def bindings() -> dict:
            snapshot = {}
            for name, module in list(sys.modules.items()):
                if module is not None and (name == "repro" or name.startswith("repro.")):
                    for attr, value in vars(module).items():
                        if callable(value):
                            snapshot[(name, attr)] = value
                        if isinstance(value, type):
                            for member, member_value in vars(value).items():
                                if callable(member_value):
                                    snapshot[(name, attr, member)] = member_value
            return snapshot

        scratch = scratch_dir()
        try:
            # Import everything a traced run touches before taking the snapshot.
            search = SearchGpt2(os.path.join(scratch, "search"), seed=0, tiny=True)
            enumerate_ = EnumerateConv(os.path.join(scratch, "enumerate"), seed=0, tiny=True)
            before = bindings()
            spill = os.path.join(scratch, "spans")
            os.makedirs(spill)
            tracer = Tracer(spill)
            tracer.install()
            try:
                patched = sum(1 for key, value in bindings().items() if before.get(key) is not value)
                search.run("0")
                enumerate_.run("resnet")
            finally:
                tracer.uninstall()
            after = bindings()
            worker_files = tracer.absorb_worker_spills()
        finally:
            shutil.rmtree(scratch)
        self.assertGreaterEqual(patched, len(TARGETS))
        changed = [key for key, value in before.items() if after.get(key) is not value]
        self.assertEqual(changed, [])
        # Forked shard workers wrote their own spans.
        self.assertGreater(worker_files, 0)
        self.assertIn("core.enumerate", {span.name for span in tracer.spans})


class HostSpeed(unittest.TestCase):
    def test_sampler_samples_and_restores_the_alarm(self):
        import signal
        import time

        import hostspeed

        before = signal.getsignal(signal.SIGALRM)
        with hostspeed.Sampler() as sampler:
            start = time.perf_counter()
            while time.perf_counter() - start < 0.3:
                sum(range(1000))
            end = time.perf_counter()
        self.assertGreaterEqual(len(sampler.samples), 3)
        self.assertGreater(sampler.probe_seconds(start, end), 0.0)
        self.assertGreater(sampler.scale(start, end), 0.0)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


if __name__ == "__main__":
    unittest.main()
