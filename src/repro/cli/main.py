"""Implementation of the ``repro`` command line (see :mod:`repro.cli`).

The CLI is a thin shell over three layers that do the real work:

* :mod:`repro.runtime` — ``main()`` is a process edge: it calls
  ``RuntimeConfig.from_env()`` exactly once, builds a
  :class:`~repro.runtime.RuntimeContext` and activates it around the
  command; flags become explicit config overrides on derived contexts;
* :mod:`repro.experiments.runner` — maps an :class:`ExperimentConfig` onto
  the experiment's ``run()`` under a derived runtime context;
* :mod:`repro.results` — the artifact store that records land in, with the
  context's cache snapshot loaded/saved around every run so repeated
  invocations reuse each other's work.

``config_from_args`` is deliberately a pure function of the parsed arguments
so the flag → config mapping is unit-testable without running anything.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import io
import json
import logging
import os
import signal
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.analysis.rules import ALL_RULES
from repro.experiments.runner import (
    ExperimentConfig,
    experiment_descriptions,
    experiment_names,
    run_experiment,
)
from repro.results import ArtifactStore, ResultRecord
from repro.runtime import (
    ENV_KNOBS,
    CacheLockTimeout,
    FaultPlan,
    FaultPlanError,
    RuntimeConfig,
    RuntimeContext,
    current,
    default_context,
)

#: exit code of a run refused because another process holds the store lock.
EXIT_STORE_LOCKED = 4

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run, store and report the paper's experiments.",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log cache and runner activity"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run one experiment and store its record")
    run.add_argument("experiment", choices=experiment_names(), help="which figure/table to run")
    fidelity = run.add_mutually_exclusive_group()
    fidelity.add_argument(
        "--smoke", action="store_true", help="shrunken workloads (REPRO_SMOKE=1)"
    )
    fidelity.add_argument(
        "--full", action="store_true", help="full-fidelity workloads (REPRO_SMOKE=0)"
    )
    run.add_argument("--train-steps", type=int, help="proxy-training step budget")
    run.add_argument("--processes", type=int, help="worker processes for candidate evaluation")
    run.add_argument(
        "--shards",
        type=int,
        help="worker shards for sharded search execution (REPRO_SEARCH_SHARDS); "
        "results are identical at any shard count",
    )
    run.add_argument("--seed", type=int, help="random seed for experiments that take one")
    run.add_argument(
        "--option",
        action="append",
        default=[],
        type=_parse_option,
        metavar="KEY=VALUE",
        help="extra keyword for the experiment's run(), e.g. models=['resnet18'] "
        "(VALUE is parsed as a Python literal, falling back to a string)",
    )
    run.add_argument("--results-dir", help="artifact store root (default: $REPRO_RESULTS_DIR or ./results)")
    run.add_argument(
        "--no-cache-persist",
        action="store_true",
        help="do not load/save the evaluation-cache snapshot around this run",
    )
    run.add_argument(
        "--debug",
        action="store_true",
        help="re-raise experiment failures with the full traceback "
        "(default: a one-line message; the traceback goes to the debug log)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the coalescing search service (concurrent clients share "
        "reward waves and the warm caches)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (default 0: pick an ephemeral port)"
    )
    serve.add_argument("--socket", help="serve on this unix socket path instead of TCP")
    serve.add_argument(
        "--window-ms",
        type=float,
        default=50.0,
        help="wave coalescing window in milliseconds: how long a lone request's "
        "wave waits for company before firing (default 50)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        help="worker shards for each coalesced fan-out (REPRO_SEARCH_SHARDS)",
    )
    serve.add_argument("--results-dir", help="artifact store root request records land in")
    serve.add_argument(
        "--no-cache-persist",
        action="store_true",
        help="do not load/save the evaluation-cache snapshot around the service",
    )

    bench = subparsers.add_parser(
        "bench",
        help="time one experiment (compiled vs eager-float64) and record the trajectory",
    )
    bench.add_argument(
        "experiment",
        nargs="?",
        choices=experiment_names() + ["serve", "library"],
        help="which figure/table to time (omit with --all); `serve` benchmarks "
        "the coalescing search service against serial parity runs; `library` "
        "benchmarks graph-library builds and warm-started search",
    )
    bench.add_argument(
        "--clients",
        type=int,
        default=3,
        help="bench serve: concurrent clients driving the service (default 3)",
    )
    bench.add_argument(
        "--all",
        action="store_true",
        dest="all_experiments",
        help="sweep every registered experiment into one trajectory file",
    )
    bench_fidelity = bench.add_mutually_exclusive_group()
    bench_fidelity.add_argument(
        "--smoke", action="store_true", help="shrunken workloads (REPRO_SMOKE=1)"
    )
    bench_fidelity.add_argument(
        "--full", action="store_true", help="full-fidelity workloads (REPRO_SMOKE=0)"
    )
    bench.add_argument("--train-steps", type=int, help="proxy-training step budget")
    bench.add_argument("--processes", type=int, help="worker processes for candidate evaluation")
    bench.add_argument(
        "--shards",
        type=int,
        help="worker shards for sharded search execution (REPRO_SEARCH_SHARDS); "
        "results are identical at any shard count",
    )
    bench.add_argument("--seed", type=int, help="random seed for experiments that take one")
    bench.add_argument(
        "--repeats", type=int, default=1, help="timed repetitions per leg (caches cleared between)"
    )
    bench.add_argument(
        "--no-compare",
        action="store_true",
        help="skip the eager-interpreter float64 reference leg",
    )
    bench.add_argument(
        "--max-seconds",
        type=float,
        help="exit non-zero if the mean compiled wall-clock exceeds this (CI regression guard)",
    )
    bench.add_argument("--results-dir", help="artifact store root (BENCH_<experiment>.json lives there)")
    bench.add_argument(
        "--output", help="write the bench record here instead of <results-dir>/BENCH_<experiment>.json"
    )

    report = subparsers.add_parser("report", help="summarize stored runs")
    report.add_argument("--results-dir", help="artifact store root")
    report.add_argument("--experiment", choices=experiment_names(), help="only this experiment")
    report.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    report.add_argument("--output", help="write the report here instead of stdout")

    cache = subparsers.add_parser("cache", help="show evaluation-cache statistics")
    cache.add_argument("--results-dir", help="artifact store root")
    cache.add_argument(
        "--clear", action="store_true", help="delete the persisted snapshot and clear in-memory caches"
    )
    cache.add_argument(
        "--json", action="store_true", help="machine-readable snapshot/lock state"
    )

    lister = subparsers.add_parser("list", help="list experiments and stored runs")
    lister.add_argument("--results-dir", help="artifact store root")
    lister.add_argument(
        "--json", action="store_true", help="machine-readable experiments and runs"
    )

    library = subparsers.add_parser(
        "library",
        help="build and inspect the ahead-of-time graph library "
        "(enumerate once, warm-start every search)",
    )
    library_sub = library.add_subparsers(dest="library_command", required=True)

    lib_build = library_sub.add_parser(
        "build", help="enumerate a slot family's design space into a library artifact"
    )
    lib_build.add_argument(
        "family",
        nargs="?",
        default="all",
        help="slot family to build (gpt2, resnet, resnext, densenet, "
        "efficientnet) or 'all' (default)",
    )
    lib_build.add_argument(
        "--max-depth", type=int, help="enumeration depth (default: per-family)"
    )
    lib_build.add_argument(
        "--shards",
        type=int,
        help="worker shards per enumeration level (REPRO_SEARCH_SHARDS); the "
        "artifact is bit-identical at any shard count",
    )
    lib_build.add_argument(
        "--neighbours",
        type=int,
        default=8,
        help="nearest-neighbour list length per complete entry (default 8)",
    )
    lib_build.add_argument(
        "--force", action="store_true", help="rebuild even if a matching artifact exists"
    )
    lib_build.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="skip per-level checkpointing (a killed build restarts from scratch)",
    )
    lib_build.add_argument("--json", action="store_true", help="machine-readable summary")
    lib_build.add_argument(
        "--library-dir", help="library root (default: $REPRO_LIBRARY_DIR or <results>/library)"
    )
    lib_build.add_argument("--results-dir", help="artifact store root")

    lib_stats = library_sub.add_parser(
        "stats", help="show a built library's entry counts, pruning statistics and hash"
    )
    lib_stats.add_argument(
        "family", nargs="?", help="one slot family (default: every artifact present)"
    )
    lib_stats.add_argument("--json", action="store_true", help="machine-readable output")
    lib_stats.add_argument(
        "--library-dir", help="library root (default: $REPRO_LIBRARY_DIR or <results>/library)"
    )
    lib_stats.add_argument("--results-dir", help="artifact store root")

    lib_query = library_sub.add_parser(
        "query", help="look up library entries (complete candidates, neighbours)"
    )
    lib_query.add_argument("family", help="slot family whose library to query")
    lib_query.add_argument(
        "--signature", help="show one entry (with its nearest neighbours) by signature"
    )
    lib_query.add_argument(
        "--top", type=int, default=10, help="how many complete entries to list (default 10)"
    )
    lib_query.add_argument("--json", action="store_true", help="machine-readable output")
    lib_query.add_argument(
        "--library-dir", help="library root (default: $REPRO_LIBRARY_DIR or <results>/library)"
    )
    lib_query.add_argument("--results-dir", help="artifact store root")

    show = subparsers.add_parser(
        "config", help="print the resolved runtime configuration and its provenance"
    )
    show.add_argument("--json", action="store_true", help="machine-readable output")
    show.add_argument(
        "--diff",
        metavar="RUN_ID",
        help="compare the live resolved config against a stored record's "
        "captured environment (exit 1 when they differ)",
    )
    show.add_argument("--results-dir", help="artifact store root the record lives in")

    chaos = subparsers.add_parser(
        "chaos",
        help="run an experiment under a fault plan and assert fingerprint "
        "parity with the clean serial run",
    )
    chaos.add_argument("experiment", choices=experiment_names(), help="which figure/table to run")
    chaos.add_argument(
        "--plan",
        required=True,
        help="fault plan spec (REPRO_FAULT_PLAN grammar, e.g. "
        "'kill:shard-entry:shard=1,attempt=1')",
    )
    chaos_fidelity = chaos.add_mutually_exclusive_group()
    chaos_fidelity.add_argument(
        "--smoke", action="store_true", help="shrunken workloads (REPRO_SMOKE=1)"
    )
    chaos_fidelity.add_argument(
        "--full", action="store_true", help="full-fidelity workloads (REPRO_SMOKE=0)"
    )
    chaos.add_argument("--train-steps", type=int, help="proxy-training step budget")
    chaos.add_argument("--seed", type=int, help="random seed for experiments that take one")
    chaos.add_argument(
        "--shards",
        type=int,
        default=2,
        help="shard count of the chaos leg (default 2; the clean leg is serial)",
    )
    chaos.add_argument(
        "--timeout", type=float, help="per-shard wall-clock timeout seconds (REPRO_SHARD_TIMEOUT)"
    )
    chaos.add_argument(
        "--retries", type=int, help="per-shard retries before serial fallback (REPRO_SHARD_RETRIES)"
    )
    chaos.add_argument(
        "--expect-failures",
        action="store_true",
        help="fail unless the plan actually fired (guards against typo'd plans "
        "that silently run fault-free)",
    )

    lint = subparsers.add_parser(
        "lint", help="statically check src/repro against the project invariants"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="RULE_ID",
        choices=sorted(cls.rule_id for cls in ALL_RULES),
        help="run only this rule (repeatable; default: every rule)",
    )
    lint.add_argument("--json", action="store_true", help="machine-readable findings")
    lint.add_argument(
        "--baseline",
        help="baseline file of reviewed findings (default: scripts/lint_baseline.txt)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true", help="report baselined findings too"
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings as the reviewed baseline and exit",
    )
    return parser


def _parse_option(text: str) -> tuple[str, object]:
    key, separator, raw = text.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    try:
        value: object = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    return key, value


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The pure flag → :class:`ExperimentConfig` mapping of ``repro run``."""
    smoke: bool | None = None
    if getattr(args, "smoke", False):
        smoke = True
    elif getattr(args, "full", False):
        smoke = False
    # argparse already ran each --option through _parse_option (type=), so
    # entries arrive as (key, value) pairs and malformed input died with a
    # usage error at parse time.
    options = dict(getattr(args, "option", []))
    return ExperimentConfig(
        smoke=smoke,
        train_steps=args.train_steps,
        processes=args.processes,
        shards=getattr(args, "shards", None),
        seed=args.seed,
        options=options,
    )


def _command_runtime(args: argparse.Namespace) -> RuntimeContext:
    """The context a command runs under: the edge context, re-rooted by flags."""
    results_dir = getattr(args, "results_dir", None)
    if results_dir:
        return current().derive(results_dir=str(results_dir))
    return current()


def _store(args: argparse.Namespace) -> ArtifactStore:
    return _command_runtime(args).store


# ---------------------------------------------------------------------------
# repro run
# ---------------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    runtime = _command_runtime(args)
    store = runtime.store
    config = config_from_args(args)
    persist = not args.no_cache_persist

    if persist:
        status = runtime.load_caches(str(store.cache_path))
        if status.status == "locked":
            # Refusing up front beats running: the save at the end would hit
            # the same held lock and this run's work would never be shared.
            _print_lock_advice(status.error, store.cache_path)
            return EXIT_STORE_LOCKED
        if status.status == "loaded" and any(status.entries.values()):
            print(f"cache snapshot {status.summary()}")
        elif not status.ok:
            # Version mismatch or corruption: the run proceeds cold, but say
            # so instead of silently retraining everything.
            print(f"cache snapshot {status.summary()}", file=sys.stderr)

    def _save_snapshot() -> None:
        if not persist:
            return
        status = runtime.save_caches(str(store.cache_path))
        if status.status in ("saved", "merged"):
            # `merged` means other processes' entries were already in the
            # shared store and our delta joined them; the summary carries the
            # merged-entry counts and any lock wait.
            print(f"cache snapshot saved to {store.cache_path}: {status.summary()}")
        else:
            # Caches disabled, the store lock timed out, or the write failed —
            # the status (and the log) carry the details; don't claim success.
            print(f"cache snapshot not written ({status.summary()})")

    try:
        with runtime.activate():
            outcome = run_experiment(args.experiment, config, store=store)
    except KeyboardInterrupt:
        # The partial record (status=interrupted) was already stored by the
        # runner; persisting the caches makes the rerun skip finished work.
        # The save is shielded: a second Ctrl-C here would otherwise unwind
        # it mid-critical-section and strand the shared store lock for every
        # other process.
        with _deferred_interrupts():
            _save_snapshot()
        print(
            f"\ninterrupted — rerun `repro run {args.experiment}` to resume "
            "from the persisted caches",
            file=sys.stderr,
        )
        return 130
    except CacheLockTimeout as exc:
        # A held store lock inside the run (partial record already saved by
        # the runner): actionable advice, never a traceback.
        _print_lock_advice(str(exc), store.cache_path)
        return EXIT_STORE_LOCKED
    except Exception as exc:
        _save_snapshot()
        log.debug("experiment %s failed", args.experiment, exc_info=True)
        if getattr(args, "debug", False):
            raise
        print(
            f"experiment failed: {exc} (rerun with --debug for the full traceback)",
            file=sys.stderr,
        )
        return 1

    record = outcome.record
    print(record.table)
    print()
    for name, value in sorted(record.metrics.items()):
        print(f"  {name} = {_format_number(value)}")
    print()
    print(f"run {record.run_id}: {record.status} in {record.duration_seconds:.1f}s")
    print(f"fingerprint {record.fingerprint()}")
    print("cache activity:", _format_cache_delta(record.cache_stats))
    _print_shard_failures(record)
    print(f"record stored in {store.run_dir(record.run_id)}")
    _save_snapshot()
    return 0


@contextlib.contextmanager
def _deferred_interrupts():
    """Delay SIGINT delivery for the duration of the block.

    Shields a critical section on the interrupt path — specifically the
    cache-snapshot save, which holds the shared store lock: interrupting it
    would leave the lock held and wedge every other process on the store.
    A Ctrl-C received inside the block is acknowledged on stderr and then
    dropped, because the caller is already on its way to exit 130 — the
    user's intent — the moment the block ends.  Signal handlers can only be
    retargeted from the main thread; elsewhere (tests driving ``main()``
    from a worker thread) the block runs unshielded.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.getsignal(signal.SIGINT)

    def _defer(signum, frame):
        del signum, frame
        print(
            "\nfinishing the cache save before exiting (interrupt deferred)...",
            file=sys.stderr,
        )

    signal.signal(signal.SIGINT, _defer)
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)


def _print_lock_advice(detail: str | None, cache_path) -> None:
    """Actionable guidance when the shared cache store lock is held."""
    print(f"run refused: the shared cache store is locked ({detail})", file=sys.stderr)
    print(
        "another process is using the store — wait for it and retry, raise "
        "REPRO_CACHE_LOCK_TIMEOUT, run with --no-cache-persist to skip the "
        f"store, or `repro cache --clear` if the holder is dead and the lock "
        f"is stale ({cache_path}.lock)",
        file=sys.stderr,
    )


def _print_shard_failures(record: ResultRecord) -> None:
    """The run summary's view of supervised-executor diagnostics."""
    failures = record.environment.get("shard_failures") or []
    if not failures:
        return
    print(
        f"shard failures: {len(failures)} worker attempt(s) lost and recovered "
        "(results unaffected)"
    )
    for failure in failures:
        print(
            f"  shard {failure.get('shard')} attempt {failure.get('attempt')} "
            f"[{failure.get('kind')}]: {failure.get('detail')}"
        )


def _format_number(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _format_cache_delta(cache_deltas: dict) -> str:
    parts = []
    for name in sorted(cache_deltas):
        delta = cache_deltas[name]
        parts.append(f"{name} {delta.get('hits', 0)} hits / {delta.get('misses', 0)} misses")
    return "; ".join(parts) if parts else "none"


# ---------------------------------------------------------------------------
# repro serve
# ---------------------------------------------------------------------------


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the coalescing search service until interrupted.

    The daemon loads the cache snapshot once, serves every request over the
    warm shared caches (per-request contexts derived from one root), and
    saves the snapshot on the way out — interrupt-shielded, so Ctrl-C
    Ctrl-C cannot strand the store lock.
    """
    from repro.serve import SearchServer, run_server

    runtime = _command_runtime(args)
    if args.shards is not None:
        runtime = runtime.derive(shards=max(args.shards, 1))
    store = runtime.store
    persist = not args.no_cache_persist

    if persist:
        status = runtime.load_caches(str(store.cache_path))
        if status.status == "locked":
            _print_lock_advice(status.error, store.cache_path)
            return EXIT_STORE_LOCKED
        if status.status == "loaded" and any(status.entries.values()):
            print(f"cache snapshot {status.summary()}")
        elif not status.ok:
            print(f"cache snapshot {status.summary()}", file=sys.stderr)

    server = SearchServer(runtime, window_seconds=max(args.window_ms, 0.0) / 1000.0)

    def _announce(address: str) -> None:
        print(f"serving on {address} — press Ctrl-C to stop", flush=True)

    exit_code = 0
    try:
        with runtime.activate():
            run_server(
                server,
                host=args.host,
                port=args.port,
                socket_path=args.socket,
                on_ready=_announce,
            )
    except KeyboardInterrupt:
        print("\ninterrupted — shutting down", file=sys.stderr)
        exit_code = 130
    finally:
        if args.socket:
            # asyncio closes the listening socket but leaves the filesystem
            # entry; a stale path would fail the next bind with EADDRINUSE.
            Path(args.socket).unlink(missing_ok=True)
        if persist:
            with _deferred_interrupts():
                status = runtime.save_caches(str(store.cache_path))
            if status.status in ("saved", "merged"):
                print(f"cache snapshot saved to {store.cache_path}: {status.summary()}")
            else:
                print(f"cache snapshot not written ({status.summary()})")

    summary = server.status()
    requests = summary["requests"]
    coalescer = summary["coalescer"]
    print(
        f"served {requests['completed']} request(s) "
        f"({requests['failed']} failed) over {summary['derived_contexts']} "
        "derived context(s)"
    )
    print(
        f"coalescer: {coalescer['waves']} wave(s), {coalescer['pending']} "
        f"evaluation(s) -> {coalescer['tasks']} task(s) "
        f"({coalescer['coalesced']} coalesced, {coalescer['cache_hits']} cache hit(s))"
    )
    return exit_code


# ---------------------------------------------------------------------------
# repro bench
# ---------------------------------------------------------------------------


def _bench_leg(
    experiment: str, config: ExperimentConfig, repeats: int, overrides: dict
) -> dict:
    """Time ``repeats`` cold runs of one experiment under config overrides.

    ``overrides`` are explicit :class:`~repro.runtime.RuntimeConfig` fields
    (the reference leg pins ``compiled_forward``/``dtype``), applied by
    activating a context derived from the ambient one.  Every repeat starts
    from cleared in-memory caches and nothing is loaded from or saved to the
    persisted snapshot, so the wall-clock numbers measure real
    training/tuning work rather than cache state.
    """
    times: list[float] = []
    cache_activity: list[dict] = []
    runtime = current().derive(**overrides) if overrides else current()
    with runtime.activate():
        for _ in range(repeats):
            runtime.caches.clear()
            start = time.perf_counter()
            outcome = run_experiment(experiment, config, store=None)
            times.append(round(time.perf_counter() - start, 3))
            cache_activity.append(outcome.record.cache_stats)
        runtime.caches.clear()
    return {
        "times_seconds": times,
        "mean_seconds": round(sum(times) / len(times), 3),
        "min_seconds": min(times),
        "cache_activity": cache_activity,
    }


def _append_bench_record(path: Path, entry: dict, name: str | None = None) -> None:
    """Append one entry to the machine-readable perf trajectory file."""
    history: list = []
    if path.exists():
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(payload, dict) and isinstance(payload.get("entries"), list):
                history = payload["entries"]
        except (OSError, ValueError) as exc:
            log.warning("starting a fresh bench record (unreadable %s: %s)", path, exc)
    history.append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Atomic replace: a reader (or a crash) never sees a half-written
    # trajectory file.
    tmp_path = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp_path.write_text(
        json.dumps(
            {"experiment": name or entry["experiment"], "entries": history}, indent=2
        )
        + "\n",
        encoding="utf-8",
    )
    os.replace(tmp_path, path)


def _bench_one(experiment: str, config, repeats: int, no_compare: bool, dtype: str) -> dict:
    """Time one experiment's compiled (and optionally reference) legs."""
    print(f"benchmarking {experiment} (repeats={repeats}, compiled dtype={dtype}) ...")
    compiled = _bench_leg(experiment, config, repeats, {})
    print(
        f"  compiled:  mean {compiled['mean_seconds']:.2f}s  "
        f"min {compiled['min_seconds']:.2f}s  over {compiled['times_seconds']}"
    )

    reference = None
    speedup = None
    if not no_compare:
        reference = _bench_leg(
            experiment,
            config,
            repeats,
            {"compiled_forward": False, "dtype": "float64"},
        )
        speedup = round(
            reference["mean_seconds"] / max(compiled["mean_seconds"], 1e-9), 3
        )
        print(
            f"  reference: mean {reference['mean_seconds']:.2f}s  "
            f"min {reference['min_seconds']:.2f}s  (eager interpreter, float64)"
        )
        print(f"  speedup:   {speedup:.2f}x (compiled {dtype} vs eager float64)")
    print("  cache activity (first compiled run):", _format_cache_delta(compiled["cache_activity"][0]))

    return {
        "experiment": experiment,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": config.to_dict(),
        "repeats": repeats,
        "compiled_dtype": dtype,
        "compiled": compiled,
        "reference": reference,
        "speedup_vs_eager_float64": speedup,
    }


def _bench_serve(args: argparse.Namespace, store: ArtifactStore, config: ExperimentConfig) -> int:
    """Benchmark the coalescing search service against serial parity runs.

    Starts an in-process server on an ephemeral port, drives ``--clients``
    concurrent ``search`` requests (distinct seeds) through real sockets,
    then re-runs every request serially through the same runner and compares
    fingerprints.  The serve leg goes first, from cold caches, so its waves
    measure real coalescing; the serial legs then run warm — which *is* the
    parity claim: a reward's value cannot depend on where or when it was
    computed, only on its cache key.
    """
    from repro.serve import SearchServer, ServeClient, start_server_thread

    clients = max(args.clients, 1)
    base_seed = config.seed if config.seed is not None else current().config.seed
    experiment = "search"

    def _request_config(index: int) -> ExperimentConfig:
        return ExperimentConfig(
            smoke=config.smoke,
            train_steps=config.train_steps,
            seed=base_seed + index,
            options=dict(config.options),
        )

    runtime = current()
    runtime.caches.clear()
    server = SearchServer(runtime)
    server_thread, address = start_server_thread(server)
    print(f"bench serve: {clients} client(s) against {address} running `{experiment}`")

    results: list[dict | None] = [None] * clients
    failures: list[tuple[int, Exception]] = []

    def _drive(index: int) -> None:
        try:
            with ServeClient(port=server.port) as client:
                results[index] = client.run(
                    experiment, _request_config(index), request_id=f"client-{index}"
                )
        except Exception as exc:
            failures.append((index, exc))
            log.warning("bench serve client %d failed", index, exc_info=True)

    start = time.perf_counter()
    workers = [
        threading.Thread(target=_drive, args=(index,), name=f"bench-client-{index}")
        for index in range(clients)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    serve_seconds = round(time.perf_counter() - start, 3)
    coalescer_stats = server.coalescer.stats()

    server.request_shutdown()
    server_thread.join(timeout=30.0)
    if server_thread.is_alive():
        print("FAIL: the server did not shut down cleanly", file=sys.stderr)
        return 1
    if failures:
        for index, exc in failures:
            print(f"client {index} failed: {exc}", file=sys.stderr)
        return 1

    mismatches: list[int] = []
    serial_times: list[float] = []
    for index in range(clients):
        leg_start = time.perf_counter()
        record = run_experiment(experiment, _request_config(index), store=None).record
        serial_times.append(round(time.perf_counter() - leg_start, 3))
        served = results[index]
        serial_fingerprint = record.fingerprint()
        match = served is not None and served["fingerprint"] == serial_fingerprint
        if not match:
            mismatches.append(index)
        print(
            f"  client {index} (seed {base_seed + index}): "
            f"serve {served['fingerprint'][:16] if served else '<missing>'}  "
            f"serial {serial_fingerprint[:16]}  "
            f"{'ok' if match else 'MISMATCH'}"
        )

    print(
        f"  serve leg: {clients} request(s) in {serve_seconds:.2f}s "
        f"({clients / max(serve_seconds, 1e-9):.2f} req/s)"
    )
    print(
        f"  coalescer: {coalescer_stats['waves']} wave(s), "
        f"{coalescer_stats['pending']} evaluation(s) -> "
        f"{coalescer_stats['tasks']} task(s) "
        f"({coalescer_stats['coalesced']} coalesced across clients, "
        f"{coalescer_stats['cache_hits']} cache hit(s))"
    )

    entry = {
        "experiment": "serve",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": config.to_dict(),
        "clients": clients,
        "serve_wall_seconds": serve_seconds,
        "requests_per_second": round(clients / max(serve_seconds, 1e-9), 3),
        # Warm-cache parity reruns, not a fair serial baseline.
        "serial_parity_seconds": serial_times,
        "coalescer": coalescer_stats,
        "parity": not mismatches,
    }
    output = Path(args.output) if args.output else store.root / "BENCH_serve.json"
    _append_bench_record(output, entry, name="serve")
    print(f"bench record appended to {output}")

    if mismatches:
        print(
            f"FAIL: serve/serial fingerprints diverge for client(s) "
            f"{', '.join(map(str, mismatches))}",
            file=sys.stderr,
        )
        return 1
    print(f"OK: {clients}/{clients} client fingerprint(s) identical to serial runs")
    return 0


def _bench_library(
    args: argparse.Namespace, store: ArtifactStore, config: ExperimentConfig
) -> int:
    """Benchmark library builds and the warm-start contract end to end.

    Three legs, all asserted rather than merely timed:

    1. **Build parity** — the gpt2 space is built serially and at two shards;
       the artifacts must be bit-identical (same content hash).
    2. **Family sweep** — every slot family is built (reusing matching
       artifacts), recording entry counts and enumeration statistics.
    3. **Warm start** — a cold search (fresh caches, no library) is timed and
       its proxy-training count measured, its rewards are exported to the
       library sidecar, then a warm-started search (fresh caches again) must
       reach at least the same best reward with strictly fewer proxy
       trainings.

    Proxy trainings are counted as new reward-cache entries: each leg runs in
    an isolated context whose reward cache starts empty, so entries present
    afterwards were either trained in that leg or (warm leg only) seeded from
    the sidecar — the seeded count is subtracted.
    """
    from repro.library.builder import build_library
    from repro.library.warmstart import export_rewards, plan_warm_start

    runtime = _command_runtime(args)
    depth = 3 if config.smoke else None
    spaces = _library_spaces(depth)
    gpt2 = spaces["gpt2"]
    print(f"bench library: root {runtime.library_path()} (smoke={config.smoke})")

    # Leg 1: serial vs sharded build parity.
    start = time.perf_counter()
    serial = build_library(
        gpt2.spec, gpt2.options, name=gpt2.name, runtime=runtime, shards=1, force=True
    )
    serial_seconds = round(time.perf_counter() - start, 3)
    start = time.perf_counter()
    sharded = build_library(
        gpt2.spec, gpt2.options, name=gpt2.name, runtime=runtime, shards=2, force=True
    )
    sharded_seconds = round(time.perf_counter() - start, 3)
    build_parity = serial.content_hash == sharded.content_hash
    print(
        f"  build gpt2: serial {serial_seconds:.2f}s, 2 shards {sharded_seconds:.2f}s, "
        f"{serial.entries} entries, hash {serial.content_hash[:16]} "
        f"{'== sharded' if build_parity else '!= sharded ' + sharded.content_hash[:16]}"
    )

    # Leg 2: sweep every slot family (reuses the artifact when it matches).
    sweep: list[dict] = []
    for name in sorted(spaces):
        space = spaces[name]
        start = time.perf_counter()
        result = build_library(
            space.spec, space.options, name=space.name, runtime=runtime
        )
        # Meta stats survive artifact reuse (a reused build carries no live
        # SynthesisStats of its own).
        stats = result.library.meta.get("stats") or {}
        sweep.append(
            {
                "family": name,
                "entries": result.entries,
                "complete": result.complete,
                "levels": result.levels,
                "reused": result.reused,
                "seconds": round(time.perf_counter() - start, 3),
                "dead_ends_by_distance": stats.get("dead_ends_by_distance", 0),
                "canonicalization_rejections": sum(
                    (stats.get("canonicalization_rejections") or {}).values()
                ),
            }
        )
        print(
            f"  sweep {name:13s} {result.entries:5d} entries "
            f"({result.complete} complete){'  [reused]' if result.reused else ''}"
        )

    # Leg 3: cold search, export rewards, warm-started search.
    cold = runtime.isolated(warm_start=False)
    with cold.activate():
        start = time.perf_counter()
        cold_outcome = run_experiment("search", config, store=None)
        cold_seconds = round(time.perf_counter() - start, 3)
    cold_entries = cold.caches.reward.export_entries()
    cold_trainings = len(cold_entries)
    cold_best = max(cold_entries.values(), default=0.0)
    if not cold_entries:
        print("FAIL: the cold search trained nothing to warm-start from", file=sys.stderr)
        return 1
    cache_context = next(iter(cold_entries))[0]
    exported = export_rewards(
        {signature: reward for (_, signature), reward in cold_entries.items()},
        name=gpt2.name,
        cache_context=cache_context,
        runtime=runtime,
    )
    print(
        f"  cold search: {cold_trainings} proxy training(s) in {cold_seconds:.2f}s, "
        f"best reward {cold_best:.6f}, {exported} reward(s) exported to the sidecar"
    )

    warm = runtime.isolated(warm_start=True)
    with warm.activate():
        # Planning ahead of the run seeds the reward cache now and tells us
        # how many entries were seeds; the run's own plan then seeds nothing,
        # so trainings = entries afterwards - seeded.
        plan = plan_warm_start(
            gpt2.spec, cache_context=cache_context, name=gpt2.name, runtime=warm
        )
        seeded = plan.seeded_rewards if plan is not None else 0
        start = time.perf_counter()
        warm_outcome = run_experiment("search", config, store=None)
        warm_seconds = round(time.perf_counter() - start, 3)
    warm_entries = warm.caches.reward.export_entries()
    warm_trainings = len(warm_entries) - seeded
    warm_best = max(warm_entries.values(), default=0.0)
    fingerprint_parity = (
        cold_outcome.record.fingerprint() == warm_outcome.record.fingerprint()
    )
    print(
        f"  warm search: {warm_trainings} proxy training(s) "
        f"({seeded} seeded) in {warm_seconds:.2f}s, best reward {warm_best:.6f}"
    )

    entry = {
        "experiment": "library",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": config.to_dict(),
        "build": {
            "family": gpt2.name,
            "entries": serial.entries,
            "complete": serial.complete,
            "serial_seconds": serial_seconds,
            "sharded_seconds": sharded_seconds,
            "content_hash": serial.content_hash,
            "parity": build_parity,
        },
        "sweep": sweep,
        "warm_start": {
            "cold_trainings": cold_trainings,
            "cold_seconds": cold_seconds,
            "cold_best_reward": cold_best,
            "seeded_rewards": seeded,
            "warm_trainings": warm_trainings,
            "warm_seconds": warm_seconds,
            "warm_best_reward": warm_best,
            "fingerprint_parity": fingerprint_parity,
        },
    }
    output = Path(args.output) if args.output else store.root / "BENCH_library.json"
    _append_bench_record(output, entry, name="library")
    print(f"bench record appended to {output}")

    failures: list[str] = []
    if not build_parity:
        failures.append("serial and sharded gpt2 builds diverge")
    if warm_trainings >= cold_trainings:
        failures.append(
            f"warm start did not save proxy trainings "
            f"({warm_trainings} warm vs {cold_trainings} cold)"
        )
    if warm_best < cold_best - 1e-12:
        failures.append(
            f"warm best reward {warm_best:.6f} below cold {cold_best:.6f}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"OK: sharded build bit-identical; warm start reached reward "
        f"{warm_best:.6f} with {warm_trainings}/{cold_trainings} trainings"
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    store = _store(args)
    config = config_from_args(args)
    repeats = max(args.repeats, 1)

    if args.experiment in ("serve", "library"):
        flags = [
            flag for flag, given in (
                ("--all", args.all_experiments),
                ("--max-seconds", args.max_seconds is not None),
            ) if given
        ]
        if flags:
            print(
                f"bench {args.experiment}: {' and '.join(flags)} "
                "apply to experiment benches only",
                file=sys.stderr,
            )
            return 2
        if args.experiment == "serve":
            return _bench_serve(args, store, config)
        return _bench_library(args, store, config)

    if args.all_experiments:
        if args.experiment is not None:
            print("bench: give an experiment or --all, not both", file=sys.stderr)
            return 2
        experiments = experiment_names()
    elif args.experiment is not None:
        experiments = [args.experiment]
    else:
        print("bench: an experiment name (or --all) is required", file=sys.stderr)
        return 2

    dtype = current().config.with_overrides(**config.runtime_overrides()).dtype_name()

    trajectory = "all" if args.all_experiments else args.experiment
    output = Path(args.output) if args.output else store.root / f"BENCH_{trajectory}.json"

    over_threshold: list[str] = []
    for experiment in experiments:
        entry = _bench_one(experiment, config, repeats, args.no_compare, dtype)
        _append_bench_record(output, entry, name=trajectory)
        if args.max_seconds is not None and entry["compiled"]["mean_seconds"] > args.max_seconds:
            over_threshold.append(experiment)
    print(f"bench record appended to {output}")

    if over_threshold:
        print(
            f"FAIL: compiled mean of {', '.join(over_threshold)} exceeds the "
            f"--max-seconds threshold of {args.max_seconds:.2f}s",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# repro report
# ---------------------------------------------------------------------------


def _record_shards(record: ResultRecord) -> str:
    """The shard count a run executed with, from its captured environment.

    The runner deliberately nulls ``config["shards"]`` before fingerprinting
    (shards never change results, so they must not change record identity);
    the resolved runtime config in the record's environment is the one place
    the count survives.  Rendering it next to the fingerprint is what makes
    serial/sharded parity auditable from `repro report`: a sharded run of the
    same experiment must show the same metrics as its serial sibling.
    """
    runtime = record.environment.get("runtime")
    if isinstance(runtime, dict) and runtime.get("shards") is not None:
        return str(runtime["shards"])
    return "1"


def render_markdown_report(records: list[ResultRecord]) -> str:
    """Per-experiment markdown tables over the stored runs."""
    if not records:
        return "No stored runs. Start with: `repro run figure5 --smoke`"
    lines: list[str] = ["# Experiment runs", ""]
    experiments = sorted({record.experiment for record in records})
    for experiment in experiments:
        group = [record for record in records if record.experiment == experiment]
        metric_names = sorted({name for record in group for name in record.metrics})
        header = [
            "run", "status", "started (UTC)", "duration (s)", "shards", "fingerprint",
            *metric_names,
        ]
        lines.append(f"## {experiment}")
        lines.append("")
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join("---" for _ in header) + "|")
        for record in group:
            row = [
                record.run_id,
                record.status,
                record.started_at,
                f"{record.duration_seconds:.1f}",
                _record_shards(record),
                record.fingerprint(),
                *[_format_number(record.metrics.get(name)) for name in metric_names],
            ]
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    return "\n".join(lines)


def render_csv_report(records: list[ResultRecord]) -> str:
    """Long-format CSV: one row per (run, metric)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["run_id", "experiment", "status", "started_at", "duration_seconds", "shards",
         "fingerprint", "metric", "value"]
    )
    for record in records:
        base = [
            record.run_id,
            record.experiment,
            record.status,
            record.started_at,
            record.duration_seconds,
            _record_shards(record),
            record.fingerprint(),
        ]
        if not record.metrics:
            writer.writerow(base + ["", ""])
        for name in sorted(record.metrics):
            value = record.metrics[name]
            writer.writerow(base + [name, "" if value is None else value])
    return buffer.getvalue()


def cmd_report(args: argparse.Namespace) -> int:
    store = _store(args)
    records = store.list_runs(args.experiment)
    if args.format == "csv":
        text = render_csv_report(records)
    else:
        text = render_markdown_report(records)
    if not records:
        # Decide emptiness *before* touching --output: an exit-1 invocation
        # must never leave a freshly written report (and a "report written"
        # line) behind as if it had succeeded.
        print(text, end="" if text.endswith("\n") else "\n")
        if args.output:
            print(f"report not written to {args.output} (no stored runs)", file=sys.stderr)
        return 1
    if args.output:
        Path(args.output).write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")
        print(f"report written to {args.output}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


# ---------------------------------------------------------------------------
# repro cache
# ---------------------------------------------------------------------------


def cmd_cache(args: argparse.Namespace) -> int:
    runtime = _command_runtime(args)
    store = runtime.store
    path = store.cache_path
    shared = runtime.shared_store
    if args.clear:
        runtime.caches.clear()
        # The store's clear is race-free (no exists-then-unlink window) and
        # also removes a leftover lock, so a crashed holder never wedges the
        # next run.
        if shared.clear():
            print(f"deleted {path}")
        print("in-memory caches cleared")
        return 0

    if args.json:
        status = runtime.load_caches(str(path))
        payload = {
            "path": str(path),
            "load": status.to_dict(),
            "sizes": runtime.caches.sizes(),
            "store_entries": shared.entry_counts(),
            "lock": shared.lock_info(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    if path.exists():
        status = runtime.load_caches(str(path))
        try:
            size_kib = path.stat().st_size / 1024
            print(f"persisted snapshot: {path} ({size_kib:.1f} KiB)")
        except OSError:  # deleted under us by a concurrent --clear
            print(f"persisted snapshot: {path}")
        print(f"load status: {status.summary()}")
        for name, count in sorted(runtime.caches.sizes().items()):
            print(f"  {name:10s} {count} entries ({status.entries.get(name, 0)} loaded just now)")
    else:
        print(f"persisted snapshot: {path} (absent — run an experiment first)")
    lock_info = shared.lock_info()
    if lock_info is not None:
        print(
            f"store lock: held by pid {lock_info.get('pid')} on {lock_info.get('host')}"
        )
    else:
        print("store lock: free")

    stats = runtime.caches.stats()
    print("this process:", _format_cache_delta(
        {name: {"hits": s.hits, "misses": s.misses} for name, s in stats.items()}
    ))
    save_status = runtime.caches.last_save
    if save_status is not None:
        print(f"last save: {save_status.summary()}")

    recent = store.list_runs()[-5:]
    if recent:
        print("recent runs:")
        for record in recent:
            print(
                f"  {record.run_id:40s} {record.status:11s} "
                f"{_format_cache_delta(record.cache_stats)}"
            )
    return 0


# ---------------------------------------------------------------------------
# repro list
# ---------------------------------------------------------------------------


def cmd_list(args: argparse.Namespace) -> int:
    store = _store(args)
    records = store.list_runs()
    if args.json:
        payload = {
            "experiments": experiment_descriptions(),
            "results_dir": str(store.root),
            "runs": [
                {
                    "run_id": record.run_id,
                    "experiment": record.experiment,
                    "status": record.status,
                    "started_at": record.started_at,
                    "duration_seconds": record.duration_seconds,
                    "fingerprint": record.fingerprint(),
                }
                for record in records
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print("experiments:")
    for name, description in experiment_descriptions().items():
        print(f"  {name:26s} {description}")
    print()
    if records:
        print(f"stored runs in {store.root}:")
        for record in records:
            print(
                f"  {record.run_id:40s} {record.status:11s} "
                f"{record.duration_seconds:8.1f}s  {record.fingerprint()}"
            )
    else:
        print(f"no stored runs in {store.root}")
    return 0


# ---------------------------------------------------------------------------
# repro library
# ---------------------------------------------------------------------------


def _library_runtime(args: argparse.Namespace) -> RuntimeContext:
    """The context a library command runs under: ``--library-dir`` re-roots it."""
    runtime = _command_runtime(args)
    library_dir = getattr(args, "library_dir", None)
    if library_dir:
        runtime = runtime.derive(library_dir=str(library_dir))
    return runtime


def _library_spaces(max_depth: int | None):
    from repro.library.specs import design_spaces

    if max_depth is None:
        return design_spaces()
    return design_spaces(max_depth=max_depth, gpt2_depth=max_depth)


def _library_names_on_disk(root: str) -> list[str]:
    """Artifact names present under ``root`` (current format version only)."""
    from repro.library.store import library_filename

    suffix = library_filename("")
    try:
        filenames = sorted(os.listdir(root))
    except (FileNotFoundError, NotADirectoryError):
        return []
    return [
        filename[: -len(suffix)]
        for filename in filenames
        if filename.endswith(suffix) and not filename.startswith("rewards-")
    ]


def _library_build(args: argparse.Namespace) -> int:
    from repro.library.builder import build_library

    runtime = _library_runtime(args)
    spaces = _library_spaces(args.max_depth)
    if args.family == "all":
        names = sorted(spaces)
    elif args.family in spaces:
        names = [args.family]
    else:
        print(
            f"library build: unknown family {args.family!r} "
            f"(available: {', '.join(sorted(spaces))}, all)",
            file=sys.stderr,
        )
        return 2

    summaries: list[dict] = []
    if not args.json:
        print(f"library root: {runtime.library_path()}")
    for name in names:
        space = spaces[name]
        start = time.perf_counter()
        result = build_library(
            space.spec,
            space.options,
            name=space.name,
            runtime=runtime,
            shards=args.shards,
            neighbours=args.neighbours,
            checkpoint=not args.no_checkpoint,
            force=args.force,
        )
        elapsed = round(time.perf_counter() - start, 3)
        summaries.append(
            {
                "family": name,
                "path": result.path,
                "entries": result.entries,
                "complete": result.complete,
                "levels": result.levels,
                "content_hash": result.content_hash,
                "reused": result.reused,
                "resumed_from_level": result.resumed_from_level,
                "seconds": elapsed,
            }
        )
        if not args.json:
            if result.reused:
                status = "reused"
            elif result.resumed_from_level:
                status = f"resumed@{result.resumed_from_level}"
            else:
                status = "built"
            print(
                f"  {name:13s} {status:9s} {result.entries:5d} entries "
                f"({result.complete} complete, {result.levels} level(s))  "
                f"hash {result.content_hash[:16]}  {elapsed:7.2f}s"
            )
    if args.json:
        print(
            json.dumps(
                {"library_dir": runtime.library_path(), "builds": summaries}, indent=2
            )
        )
    return 0


def _format_library_stats(item: dict) -> list[str]:
    """Human lines for one library's enumeration statistics."""
    stats = item.get("stats") or {}
    lines = [
        f"{item['name']}: {item['entries']} entries "
        f"({item['complete']} complete, max depth {item['max_depth']}, "
        f"{item['levels']} level(s))  hash {item['content_hash'][:16]}",
        f"  path: {item['path']}",
    ]
    if stats:
        lines.append(
            f"  enumeration: {stats.get('nodes_visited', 0)} node(s) visited, "
            f"{stats.get('children_generated', 0)} children generated, "
            f"{stats.get('completed', 0)} completed, "
            f"{stats.get('rejected_by_budget', 0)} over budget"
        )
        lines.append(
            f"  shape distance: {stats.get('pruned_by_distance', 0)} pruned, "
            f"{stats.get('dead_ends_by_distance', 0)} dead end(s)"
        )
        rejections = stats.get("canonicalization_rejections") or {}
        if rejections:
            per_rule = ", ".join(
                f"{rule} {count}" for rule, count in sorted(rejections.items())
            )
            total = sum(rejections.values())
            lines.append(f"  canonicalization rejections: {total} ({per_rule})")
        else:
            lines.append("  canonicalization rejections: 0")
    return lines


def _library_stats(args: argparse.Namespace) -> int:
    from repro.library.store import GraphLibrary, library_filename

    runtime = _library_runtime(args)
    root = runtime.library_path()
    names = [args.family] if args.family else _library_names_on_disk(root)
    if not names:
        print(
            f"no library artifacts in {root} (run `repro library build` first)",
            file=sys.stderr,
        )
        return 1

    payload: list[dict] = []
    for name in names:
        path = os.path.join(root, library_filename(name))
        library = GraphLibrary.load(path)
        if library is None:
            print(
                f"library stats: no readable artifact for {name!r} at {path}",
                file=sys.stderr,
            )
            return 1
        meta = library.meta
        payload.append(
            {
                "name": meta.get("name", name),
                "path": path,
                "entries": len(library),
                "complete": meta.get("complete", len(library.complete_entries())),
                "max_depth": meta.get("max_depth"),
                "levels": meta.get("levels"),
                "content_hash": library.content_hash(),
                "spec_key": meta.get("spec_key"),
                "stats": meta.get("stats", {}),
            }
        )
    if args.json:
        print(json.dumps({"library_dir": root, "libraries": payload}, indent=2))
        return 0
    print(f"library root: {root}")
    for item in payload:
        for line in _format_library_stats(item):
            print(line)
    return 0


def _library_query(args: argparse.Namespace) -> int:
    from repro.library.store import GraphLibrary, library_filename

    runtime = _library_runtime(args)
    path = os.path.join(runtime.library_path(), library_filename(args.family))
    library = GraphLibrary.load(path)
    if library is None:
        print(
            f"library query: no artifact for {args.family!r} at {path} "
            f"(run `repro library build {args.family}` first)",
            file=sys.stderr,
        )
        return 1

    if args.signature:
        entry = library.get(args.signature)
        if entry is None:
            print(
                f"library query: signature not in the {args.family} library: "
                f"{args.signature}",
                file=sys.stderr,
            )
            return 1
        payload = json.loads(entry.to_payload())
        if args.json:
            print(json.dumps(payload, indent=2))
            return 0
        print(f"signature: {entry.signature}")
        print(f"  depth {entry.depth}  complete {entry.complete}")
        print(f"  macs {entry.macs}  params {entry.params}")
        print(f"  produced by {entry.primitive or '<root>'}")
        print(f"  parent: {entry.parent_signature or '<none>'}")
        if entry.neighbours:
            print("  nearest neighbours:")
            for neighbour in entry.neighbours:
                print(f"    {neighbour}")
        return 0

    # Cheapest complete candidates first: the library's ranking view.
    complete = sorted(
        library.complete_entries(), key=lambda entry: (entry.macs, entry.signature)
    )
    top = complete[: max(args.top, 1)]
    if args.json:
        print(
            json.dumps(
                {
                    "family": args.family,
                    "complete": len(complete),
                    "entries": [json.loads(entry.to_payload()) for entry in top],
                },
                indent=2,
            )
        )
        return 0
    print(
        f"{args.family}: {len(complete)} complete candidate(s), "
        f"cheapest {len(top)} by MACs:"
    )
    print(f"  {'signature':44s} {'depth':>5s} {'macs':>10s} {'params':>8s}")
    for entry in top:
        label = (
            entry.signature
            if len(entry.signature) <= 44
            else entry.signature[:41] + "..."
        )
        print(f"  {label:44s} {entry.depth:5d} {entry.macs:10d} {entry.params:8d}")
    return 0


def cmd_library(args: argparse.Namespace) -> int:
    handlers = {
        "build": _library_build,
        "stats": _library_stats,
        "query": _library_query,
    }
    return handlers[args.library_command](args)


# ---------------------------------------------------------------------------
# repro config
# ---------------------------------------------------------------------------


def render_config(config: RuntimeConfig) -> str:
    """The resolved runtime configuration as an aligned value/provenance table."""
    values = config.describe()
    provenance = config.provenance_map()
    rows = [("field", "value", "provenance", "env fallback")]
    for name in values:
        rows.append((name, str(values[name]), provenance[name], ENV_KNOBS[name]))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def cmd_config(args: argparse.Namespace) -> int:
    runtime = _command_runtime(args)
    config = runtime.config
    if args.diff:
        return _config_diff(args.diff, runtime, as_json=args.json)
    if args.json:
        payload = {"runtime": config.describe(), "provenance": config.provenance_map()}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_config(config))
    return 0


def _config_diff(run_id: str, runtime: RuntimeContext, as_json: bool) -> int:
    """Compare the live resolved config against a stored record's snapshot.

    The record's ``environment["runtime"]`` is the :meth:`RuntimeConfig.describe`
    mapping captured when the run executed, so the comparison answers the
    reproduction question directly: "would rerunning now resolve the same
    knobs that produced this record?"  Exit 0 when identical, 1 when any
    field differs, 2 when the record is missing or predates config capture.
    """
    store = runtime.store
    try:
        record = store.load(run_id)
    except (OSError, ValueError) as exc:
        print(f"config --diff: cannot load run {run_id!r} from {store.root}: {exc}",
              file=sys.stderr)
        return 2
    stored = record.environment.get("runtime")
    if not isinstance(stored, dict):
        print(
            f"config --diff: run {run_id!r} predates runtime-config capture "
            "(no environment['runtime'] in its record)",
            file=sys.stderr,
        )
        return 2
    live = runtime.config.describe()
    fields = sorted(set(live) | set(stored))
    differing = [
        name for name in fields
        if str(live.get(name, "<absent>")) != str(stored.get(name, "<absent>"))
    ]
    if as_json:
        payload = {
            "run_id": run_id,
            "identical": not differing,
            "differing": {
                name: {"live": live.get(name), "stored": stored.get(name)}
                for name in differing
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if differing else 0
    if not differing:
        print(f"live config matches run {run_id} ({len(fields)} fields)")
        return 0
    rows = [("field", "live", f"run {run_id}")]
    for name in differing:
        rows.append((name, str(live.get(name, "<absent>")), str(stored.get(name, "<absent>"))))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * width for width in widths))
    print("\n".join(lines))
    print(f"\n{len(differing)} field(s) differ from run {run_id}")
    return 1


# ---------------------------------------------------------------------------
# repro chaos
# ---------------------------------------------------------------------------


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run one experiment twice — faulted+sharded, then clean+serial — and
    assert the two records carry the same fingerprint.

    This is the executable form of the supervised executor's contract: worker
    loss, hangs and injected store faults may cost wall-clock, but they must
    never change results.
    """
    try:
        plan = FaultPlan.parse(args.plan)
    except FaultPlanError as exc:
        print(f"chaos: invalid fault plan: {exc}", file=sys.stderr)
        return 2

    smoke: bool | None = None
    if args.smoke:
        smoke = True
    elif args.full:
        smoke = False
    config = ExperimentConfig(smoke=smoke, train_steps=args.train_steps, seed=args.seed)

    overrides: dict = {"fault_plan": plan.spec, "shards": max(args.shards, 1)}
    if args.timeout is not None:
        overrides["shard_timeout"] = args.timeout
    if args.retries is not None:
        overrides["shard_retries"] = args.retries

    print(
        f"chaos leg: {args.experiment} with {overrides['shards']} shard(s) "
        f"under plan {plan.spec!r}"
    )
    chaos_runtime = current().derive(**overrides)
    with chaos_runtime.activate():
        chaos_record = run_experiment(args.experiment, config, store=None).record
    failures = chaos_record.environment.get("shard_failures") or []
    _print_shard_failures(chaos_record)
    if not failures:
        print("chaos leg completed fault-free (the plan never fired)")

    # The clean leg clears fault_plan explicitly so an ambient
    # REPRO_FAULT_PLAN cannot fault both legs and vacuously "agree".
    print(f"clean leg: {args.experiment} serial, no faults")
    clean_runtime = current().derive(shards=1, fault_plan="")
    with clean_runtime.activate():
        clean_record = run_experiment(args.experiment, config, store=None).record

    chaos_fingerprint = chaos_record.fingerprint()
    clean_fingerprint = clean_record.fingerprint()
    print(f"chaos fingerprint {chaos_fingerprint}")
    print(f"clean fingerprint {clean_fingerprint}")
    if chaos_fingerprint != clean_fingerprint:
        print(
            "FAIL: fingerprints diverge — fault recovery changed results",
            file=sys.stderr,
        )
        return 1
    if args.expect_failures and not failures:
        print(
            "FAIL: --expect-failures was given but no shard failure occurred "
            "(plan matched nothing — check shard/attempt matchers)",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: fingerprint parity under fault plan "
        f"({len(failures)} shard failure(s) recovered)"
    )
    return 0


# ---------------------------------------------------------------------------
# repro lint
# ---------------------------------------------------------------------------


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static invariant analyzer; exit non-zero on unbaselined findings.

    The contract is symmetric: every finding must either be fixed or be a
    reviewed baseline entry, and every baseline entry must still match a
    finding — stale entries fail the lint too, so a fixed exception cannot
    silently keep masking a future regression.
    """
    import repro
    from repro.analysis import (
        LintEngine,
        LintSyntaxError,
        apply_baseline,
        collect_modules,
        load_baseline,
        make_rules,
        save_baseline,
    )

    package_dir = Path(repro.__file__).resolve().parent
    # Relative paths are computed against src/ so findings read "repro/...".
    root = package_dir.parent
    paths = [Path(p) for p in args.paths] if args.paths else [package_dir]
    baseline_path = (
        Path(args.baseline)
        if args.baseline
        else root.parent / "scripts" / "lint_baseline.txt"
    )

    try:
        modules = collect_modules(paths, root)
    except LintSyntaxError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    engine = LintEngine(make_rules(args.rules))
    findings = engine.run(modules)

    if args.write_baseline:
        save_baseline(baseline_path, findings)
        print(f"baseline with {len(findings)} finding(s) written to {baseline_path}")
        return 0

    baseline = set() if args.no_baseline else load_baseline(baseline_path)
    # With --rule, entries of rules that did not run are neither suppressing
    # nor stale — only judge the baseline against the rules that executed.
    active = {rule.rule_id for rule in engine.rules}
    baseline = {entry for entry in baseline if entry.split(" ", 1)[0] in active}
    new, suppressed, stale = apply_baseline(findings, baseline)

    if args.json:
        payload = {
            "files": len(modules),
            "rules": sorted(active),
            "findings": [finding.to_dict() for finding in new],
            "suppressed": [finding.to_dict() for finding in suppressed],
            "stale_baseline": stale,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if new or stale else 0

    for finding in new:
        print(finding.render())
    if stale:
        print(
            "stale baseline entries (the finding was fixed — delete these lines "
            f"from {baseline_path}):",
            file=sys.stderr,
        )
        for entry in stale:
            print(f"  {entry}", file=sys.stderr)
    verdict = "FAIL" if new or stale else "OK"
    print(
        f"{verdict}: {len(new)} finding(s), {len(suppressed)} baselined, "
        f"{len(stale)} stale baseline entries over {len(modules)} file(s)"
    )
    return 1 if new or stale else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    handlers = {
        "run": cmd_run,
        "serve": cmd_serve,
        "bench": cmd_bench,
        "report": cmd_report,
        "cache": cmd_cache,
        "list": cmd_list,
        "library": cmd_library,
        "config": cmd_config,
        "chaos": cmd_chaos,
        "lint": cmd_lint,
    }
    # The CLI entry is a process edge: REPRO_* variables are read exactly
    # once, into one explicit context that scopes the whole command.  The
    # edge context shares the process-default CacheSet so sharded workers
    # inherit the warm caches through fork (config-only shipping) instead of
    # pickling the whole set into every shard payload.
    edge = RuntimeContext(RuntimeConfig.from_env(), caches=default_context().caches)
    with edge.activate():
        return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via `python -m repro.cli`
    sys.exit(main())
