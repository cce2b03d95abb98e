"""The repo benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload cost-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no shims installed, in
seconds at a reference host speed sampled during each op (see
``hostspeed.py``).  ``--trace 1`` measures the same op sequence twice, untraced and then traced
from cold caches, and reports the per-layer metrics derived from the spans
(see ``layertrace.py``).  The last line of standard output is the JSON result;
the lines before it give the resolved config, the host and a readable table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import hostspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def process_edge() -> None:
    """Isolate the measured program; call before numpy or repro is imported.

    Nothing from the caller's REPRO_* environment may steer the program, and
    numpy stays on one thread so a run keeps at most nproc busy processes.
    """
    for variable in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[variable]
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    for path in (BENCH_DIR, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


#: set-up is timed in this many fresh processes; the median is reported.
SETUP_SAMPLES = 5

#: end-to-end metrics (name, unit); must match BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verified_ratio", "ratio"),
)

#: per-layer metrics (name, unit) from the traced run; must match BENCHMARK.json.
PER_LAYER = (
    ("ir.size.mul_calls", "count/op"),
    ("ir.size.evaluate_calls", "count/op"),
    ("core.enumerate.calls", "count/op"),
    ("core.enumerate.self_s", "s/op"),
    ("core.enumerate.children", "count/op"),
    ("core.enumerate.pruned_ratio", "ratio"),
    ("core.shape_distance.calls", "count/op"),
    ("core.shape_distance.self_s", "s/op"),
    ("core.canonicalize.rejections", "count/op"),
    ("core.mcts.propose_s", "s/op"),
    ("core.mcts.rollouts", "count/op"),
    ("core.mcts.rewarded_ratio", "ratio"),
    ("codegen.loopnest.calls", "count/op"),
    ("codegen.loopnest.self_s", "s/op"),
    ("codegen.loopnest.errors", "count/op"),
    ("codegen.loopnest.repeat_ratio", "ratio"),
    ("codegen.plan.compiles", "count/op"),
    ("codegen.plan.self_s", "s/op"),
    ("nn.train.runs", "count/op"),
    ("nn.train.steps", "count/op"),
    ("nn.train.self_s", "s/op"),
    ("nn.train.step_ms", "ms"),
    ("nn.backward.self_s", "s/op"),
    ("compiler.compile.calls", "count/op"),
    ("compiler.compile.self_s", "s/op"),
    ("compiler.tune.calls", "count/op"),
    ("search.reward.evaluations", "count/op"),
    ("search.reward.error_ratio", "ratio"),
    ("search.latency.lowering_skips", "count/op"),
    ("search.parallel.fanouts", "count/op"),
    ("search.parallel.fanout_s", "s/op"),
    ("search.parallel.shard_failures", "count"),
    ("runtime.cache.reward.hit_ratio", "ratio"),
    ("runtime.cache.compile.hit_ratio", "ratio"),
    ("runtime.cache.plan.hit_ratio", "ratio"),
    ("runtime.cache.entries", "count"),
    ("runtime.store.publish_s", "s/op"),
    ("runtime.store.load_s", "s/op"),
    ("runtime.store.lock_wait_s", "s/op"),
    ("library.build.entries", "count/op"),
    ("library.embed_s", "s/op"),
    ("library.write_s", "s/op"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s/op"),
)


@dataclass
class Measurement:
    """What one closed-loop pass over the schedule observed."""

    keys: list[str] = field(default_factory=list)
    #: op wall and CPU seconds at the reference host speed (raw when unsampled).
    op_seconds: list[float] = field(default_factory=list)
    op_cpu: list[float] = field(default_factory=list)
    #: op wall seconds as the clock read them, less the parent's kernel samples.
    op_raw: list[float] = field(default_factory=list)
    #: per op: reference host speed / the speed sampled during the op.
    op_scale: list[float] = field(default_factory=list)
    verified: list[bool] = field(default_factory=list)
    round_wall: list[float] = field(default_factory=list)
    round_cpu: list[float] = field(default_factory=list)
    layer_counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    @property
    def failed(self) -> int:
        return self.verified.count(False)


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def run_op(workload, golden: dict, key: str, measurement: Measurement, op_runner=None, sampler=None) -> None:
    """Run one op, check it against the golden and record its times.

    With a running ``sampler`` the op's times are scaled to the reference
    host speed by the kernel samples taken during the op, and the parent's
    own sampling time is taken out of them.
    """
    start, cpu_start = time.perf_counter(), cpu_seconds()
    result = None
    try:
        result = op_runner(key) if op_runner is not None else workload.run(key)
        ok = True
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    end, cpu = time.perf_counter(), cpu_seconds() - cpu_start
    probe, scale = 0.0, 1.0
    if sampler is not None:
        sampler.absorb_worker_spills()
        probe, scale = sampler.probe_seconds(start, end), sampler.scale(start, end)
    if ok:
        expected = golden.get(key)
        ok = expected is not None and workload.matches(workload.output(result), expected)
        if not ok:
            print(f"perfbench: op {key} output differs from the golden", file=sys.stderr)
        for name, value in workload.layer_counts(result).items():
            measurement.layer_counts[name] += value
    measurement.keys.append(key)
    measurement.op_raw.append(end - start - probe)
    measurement.op_scale.append(scale)
    measurement.op_seconds.append((end - start - probe) * scale)
    measurement.op_cpu.append((cpu - probe) * scale)
    measurement.verified.append(ok)


def measure(workload, golden: dict, seconds: float, sampler) -> Measurement:
    """Run whole rounds of the seeded schedule until ``seconds`` have passed.

    A round's wall and CPU time are the sums over its ops.
    """
    measurement = Measurement()
    start = time.perf_counter()
    for keys in workload.rounds():
        first = len(measurement.op_seconds)
        for key in keys:
            run_op(workload, golden, key, measurement, sampler=sampler)
        measurement.round_wall.append(sum(measurement.op_seconds[first:]))
        measurement.round_cpu.append(sum(measurement.op_cpu[first:]))
        if time.perf_counter() - start >= seconds:
            return measurement
    raise AssertionError("unreachable: schedules are endless")


def replay(workload, golden: dict, keys: list[str], tracer) -> Measurement:
    """Run exactly ``keys`` again, each op inside a traced ``bench.op`` span."""
    measurement = Measurement()
    for index, key in enumerate(keys):
        tracer.op = index
        run_op(
            workload, golden, key, measurement,
            op_runner=lambda k: tracer.call("bench.op", workload.run, (k,), {}, None),
        )
    tracer.op = None
    return measurement


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_seconds(args) -> list[tuple[float, float]]:
    """(raw, scaled) wall time of fresh processes that import, derive and set up.

    Each process samples the host speed itself and prints its sampling time
    and scale as its last line (``--setup-only``).
    """
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        completed = subprocess.run(
            command, check=True, timeout=120, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        raw = time.perf_counter() - start
        probe = json.loads(completed.stdout.strip().splitlines()[-1])
        samples.append((raw, (raw - probe["probe_s"]) * probe["scale"]))
    return samples


# ---------------------------------------------------------------------------
# Host and config blocks
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD's commit from ``.git`` when the checkout is a repository."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """sha256 over ``src/`` python files: identifies the code without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def cpu_ticks() -> list[int] | None:
    """The aggregate ``cpu`` line of /proc/stat, where the host exposes it."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            return [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(start: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor stole since ``start`` (8th field)."""
    end = cpu_ticks()
    if start is None or end is None or len(end) < 8:
        return None
    deltas = [after - before for before, after in zip(start, end)]
    return round(deltas[7] / sum(deltas), 4) if sum(deltas) else 0.0


def host_block(load_start: tuple, ticks_start: list[int] | None) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(value, 2) for value in load_start],
        "loadavg_end": [round(value, 2) for value in os.getloadavg()],
        "cpu_steal_share": steal_share(ticks_start),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(measurement: Measurement, setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics; every time is at the reference host speed."""
    attempted = len(measurement.keys)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(measurement.round_wall),
        "ops_per_s": attempted / sum(measurement.round_wall),
        "op_p50_s": statistics.median(measurement.op_seconds),
        "cpu_s": statistics.median(measurement.round_cpu),
        "peak_rss_mb": peak_rss_mb(),
        "verified_ratio": (attempted - measurement.failed) / attempted,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(tracer, traced: Measurement, untraced: Measurement, caches) -> dict[str, float]:
    from layertrace import self_times

    ops = len(traced.keys)
    spans = tracer.spans
    selfs = self_times(spans)
    calls = defaultdict(int)
    errors = defaultdict(int)
    durations = defaultdict(float)
    for span in spans:
        calls[span.name] += 1
        errors[span.name] += span.failed
        durations[span.name] += span.duration
    counters = defaultdict(float, tracer.counters)
    for name, value in traced.layer_counts.items():
        counters[name] += value
    stats = caches.stats()

    def hit_ratio(cache: str) -> float:
        return _ratio(stats[cache].hits, stats[cache].hits + stats[cache].misses)

    values = {
        "ir.size.mul_calls": counters["ir.size.mul.calls"],
        "ir.size.evaluate_calls": counters["ir.size.evaluate.calls"],
        "core.enumerate.calls": calls["core.enumerate"],
        "core.enumerate.self_s": selfs["core.enumerate"],
        "core.enumerate.children": counters["core.enumerate.children"],
        "core.shape_distance.calls": calls["core.shape_distance"],
        "core.shape_distance.self_s": selfs["core.shape_distance"],
        "core.canonicalize.rejections": counters["core.canonicalize.rejections"],
        "core.mcts.propose_s": selfs["core.mcts.propose"],
        "core.mcts.rollouts": counters["core.mcts.rollouts"],
        "codegen.loopnest.calls": calls["codegen.loopnest"],
        "codegen.loopnest.self_s": selfs["codegen.loopnest"],
        "codegen.loopnest.errors": errors["codegen.loopnest"],
        "codegen.plan.compiles": calls["codegen.plan"],
        "codegen.plan.self_s": selfs["codegen.plan"],
        "nn.train.runs": calls["nn.train"],
        "nn.train.steps": counters["nn.train.steps"],
        "nn.train.self_s": selfs["nn.train"],
        "nn.backward.self_s": selfs["nn.backward"],
        "compiler.compile.calls": calls["compiler.compile"],
        "compiler.compile.self_s": selfs["compiler.compile"],
        "compiler.tune.calls": stats["compile"].misses,
        "search.reward.evaluations": counters["search.reward.evaluations"],
        "search.latency.lowering_skips": counters["search.latency.lowering_skips"],
        "search.parallel.fanouts": counters["search.parallel.fanouts"],
        "search.parallel.fanout_s": counters["search.parallel.fanout_s"],
        "runtime.store.publish_s": selfs["runtime.store.publish"],
        "runtime.store.load_s": selfs["runtime.store.load"],
        "runtime.store.lock_wait_s": counters["runtime.store.lock_wait_s"],
        "library.build.entries": counters["library.build.entries"],
        "library.embed_s": selfs["library.embed"],
        "library.write_s": selfs["library.write"],
        "trace.unattributed_s": selfs["bench.op"],
    }
    # Everything above is a total over the traced ops: report it per op.
    values = {name: value / ops for name, value in values.items()}
    values.update(
        {
            "core.enumerate.pruned_ratio": _ratio(
                counters["core.enumerate.pruned"], counters["core.enumerate.generated"]
            ),
            "core.mcts.rewarded_ratio": _ratio(counters["core.mcts.rewarded"], counters["core.mcts.rollouts"]),
            "codegen.loopnest.repeat_ratio": _ratio(
                counters["codegen.loopnest.repeats"], calls["codegen.loopnest"]
            ),
            "nn.train.step_ms": _ratio(durations["nn.train"] * 1e3, counters["nn.train.steps"]),
            "search.reward.error_ratio": _ratio(
                counters["search.reward.zero_by_error"], counters["search.reward.evaluations"]
            ),
            "search.parallel.shard_failures": counters["search.parallel.shard_failures"],
            "runtime.cache.reward.hit_ratio": hit_ratio("reward"),
            "runtime.cache.compile.hit_ratio": hit_ratio("compile"),
            "runtime.cache.plan.hit_ratio": hit_ratio("plan"),
            "runtime.cache.entries": sum(caches.sizes().values()),
            "trace.overhead_ratio": sum(traced.op_raw) / sum(untraced.op_raw) - 1.0,
        }
    )
    return values


def layer_table(spans, op: int | None = None) -> list[tuple[str, float]]:
    """(layer, self seconds) rows, largest first; ``op`` restricts to one op."""
    from layertrace import self_times

    selected = [span for span in spans if op is None or span.op == op]
    return sorted(self_times(selected).items(), key=lambda row: -row[1])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs: every workload in seconds")
    parser.add_argument("--golden", default=os.path.join(BENCH_DIR, "golden.json"))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    host_start = os.getloadavg(), cpu_ticks()
    if args.setup_only:
        # Sampled from the start: set-up time is scaled like op time.
        with hostspeed.Sampler() as sampler:
            code = set_up(args)
        everything = (float("-inf"), float("inf"))
        print(json.dumps({"probe_s": sampler.probe_seconds(*everything), "scale": sampler.scale(*everything)}))
        return code
    return set_up(args, host_start)


def set_up(args, host_start: tuple | None = None) -> int:
    """Build the workload; unless ``--setup-only``, measure and report it."""
    process_edge()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        workload = WORKLOADS[args.workload](scratch, args.seed, args.tiny)
        if args.setup_only:
            return 0
        with open(args.golden, encoding="utf-8") as handle:
            golden = json.load(handle)[args.workload + (":tiny" if args.tiny else "")]
        return measure_and_report(args, workload, golden, scratch, host_start)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure_and_report(args, workload, golden: dict, scratch: str, host_start: tuple) -> int:
    sampler = hostspeed.Sampler(spill_dir=os.path.join(scratch, "probes"))
    os.makedirs(sampler.spill_dir)
    with sampler:
        untraced = measure(workload, golden, args.seconds, sampler)
    summary = {
        "ops": len(untraced.keys),
        "rounds": len(untraced.round_wall),
        "op_p50_s": statistics.median(untraced.op_seconds),
        "failed_ratio": untraced.failed / len(untraced.keys),
        "op_seconds": [round(value, 3) for value in untraced.op_seconds],
        "round_wall_s": [round(value, 3) for value in untraced.round_wall],
        "round_cpu_s": [round(value, 3) for value in untraced.round_cpu],
        "raw_op_seconds": [round(value, 3) for value in untraced.op_raw],
        "host_scale_p50": statistics.median(untraced.op_scale),
        "host_samples": len(sampler.samples) + len(sampler.worker_samples),
    }
    if len(untraced.op_seconds) >= 100:
        # Only with at least ten samples beyond it.
        summary["op_p90_s"] = statistics.quantiles(untraced.op_seconds, n=10)[-1]
    attempted, failed = len(untraced.keys), untraced.failed
    if args.trace:
        from layertrace import Tracer

        spill = os.path.join(scratch, "spans")
        os.makedirs(spill)
        workload.reset()
        tracer = Tracer(spill)
        tracer.install()
        try:
            traced = replay(workload, golden, untraced.keys, tracer)
        finally:
            tracer.uninstall()
        summary["worker_span_files"] = tracer.absorb_worker_spills()
        attempted += len(traced.keys)
        failed += traced.failed
        metrics = per_layer(tracer, traced, untraced, workload.context.caches)
        units = dict(PER_LAYER)
        out_dir = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(spans_path)
        summary["spans"] = os.path.relpath(spans_path, ROOT)
        summary["self_s_all_ops"] = {name: round(value, 4) for name, value in layer_table(tracer.spans)}
        summary["self_s_first_op"] = {name: round(value, 4) for name, value in layer_table(tracer.spans, op=0)}
    else:
        setups = setup_seconds(args)
        summary["setup_raw_s"] = [round(raw, 3) for raw, _ in setups]
        summary["setup_s"] = [round(scaled, 3) for _, scaled in setups]
        metrics = end_to_end(untraced, [scaled for _, scaled in setups])
        units = dict(END_TO_END)
    config = workload.context.config
    print("config: " + json.dumps({"resolved": config.describe(), "provenance": config.provenance_map()}, sort_keys=True))
    print("host: " + json.dumps(host_block(*host_start), sort_keys=True))
    print("summary: " + json.dumps(summary, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
