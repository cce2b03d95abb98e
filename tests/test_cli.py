"""Tests for the ``repro`` CLI and the shared experiment runner."""

from __future__ import annotations

import itertools
import json
import signal
import subprocess
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest

from repro.cli.main import build_parser, config_from_args, main
from repro.experiments import runner as runner_module
from repro.experiments.runner import ExperimentConfig, ExperimentSpec, run_experiment
from repro.results import ArtifactStore
from repro.runtime import SharedCacheStore, SnapshotStatus, current

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _fresh_caches():
    current().caches.clear()
    yield
    current().caches.clear()


# ---------------------------------------------------------------------------
# Flag -> config mapping
# ---------------------------------------------------------------------------


def test_run_args_map_onto_experiment_config():
    args = build_parser().parse_args(
        [
            "run", "figure6",
            "--smoke",
            "--train-steps", "5",
            "--processes", "2",
            "--shards", "4",
            "--seed", "3",
            "--option", "models=['resnet18']",
            "--option", "label=quick",
        ]
    )
    config = config_from_args(args)
    assert config == ExperimentConfig(
        smoke=True,
        train_steps=5,
        processes=2,
        shards=4,
        seed=3,
        options={"models": ["resnet18"], "label": "quick"},
    )
    assert config.runtime_overrides() == {
        "smoke": True,
        "train_steps": 5,
        "eval_processes": 2,
        "shards": 4,
        "seed": 3,
    }


def test_full_flag_and_defaults():
    args = build_parser().parse_args(["run", "figure5", "--full"])
    config = config_from_args(args)
    assert config.smoke is False and config.runtime_overrides() == {"smoke": False}

    bare = config_from_args(build_parser().parse_args(["run", "figure5"]))
    assert bare == ExperimentConfig()
    assert bare.runtime_overrides() == {}


def test_unknown_experiment_is_rejected_at_parse_time(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "figure7"])
    assert "figure7" in capsys.readouterr().err


def test_malformed_option_is_a_usage_error_not_a_traceback(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "figure5", "--option", "noequals"])
    assert "KEY=VALUE" in capsys.readouterr().err


def test_config_round_trips_through_dict():
    config = ExperimentConfig(smoke=False, train_steps=7, seed=1, options={"trials": 10})
    assert ExperimentConfig.from_dict(config.to_dict()) == config


def test_inapplicable_kwargs_are_warned_and_excluded_from_the_record(caplog):
    # ablation-materialization's run() takes no seed and no options at all.
    config = ExperimentConfig(seed=7, options={"mistyped": True})
    with caplog.at_level("WARNING"):
        outcome = run_experiment("ablation-materialization", config)
    assert "mistyped" in caplog.text and "seed" in caplog.text
    assert outcome.record.config["seed"] is None
    assert outcome.record.config["options"] == {}
    # Identical effective runs agree on their fingerprint despite the noise.
    baseline = run_experiment("ablation-materialization")
    assert outcome.record.fingerprint() == baseline.record.fingerprint()


def test_shape_distance_ablation_fingerprint_is_stable_across_runs(monkeypatch):
    from repro.experiments import ablation_shape_distance

    # A clock whose every interval is longer than the last: if any elapsed
    # time reached the record, the two runs' fingerprints would differ.
    steps = itertools.count()
    monkeypatch.setattr(
        ablation_shape_distance.time, "perf_counter", lambda: float(next(steps) ** 2)
    )
    config = ExperimentConfig(seed=3, options={"trials": 12})
    first = run_experiment("ablation-shape-distance", config)
    second = run_experiment("ablation-shape-distance", config)
    assert first.result.guided_seconds != second.result.guided_seconds
    assert first.record.fingerprint() == second.record.fingerprint()


def test_runner_context_store_sentinel_resolves_to_the_run_context(tmp_path):
    """`store=CONTEXT_STORE` writes through the *derived* context's store.

    Concurrent runs into distinct results_dir roots each resolve their own
    store after deriving — a caller never has to thread a shared
    ArtifactStore object that would point all of them at one root.
    """
    from repro.experiments.runner import CONTEXT_STORE

    ctx = current().derive(results_dir=str(tmp_path / "mine"))
    with ctx.activate():
        outcome = run_experiment("ablation-materialization", store=CONTEXT_STORE)
    (record,) = ArtifactStore(tmp_path / "mine").list_runs()
    assert record.run_id == outcome.record.run_id

    with pytest.raises(ValueError):
        run_experiment("ablation-materialization", store="bogus")


# ---------------------------------------------------------------------------
# End-to-end through main() with a cheap experiment
# ---------------------------------------------------------------------------


def test_cli_run_writes_record_and_snapshot(tmp_path, capsys):
    argv = ["run", "ablation-materialization", "--results-dir", str(tmp_path)]
    assert main(argv) == 0
    assert main(argv) == 0  # second run over the same store

    store = ArtifactStore(tmp_path)
    records = store.list_runs()
    assert [record.status for record in records] == ["completed", "completed"]
    assert records[0].fingerprint() == records[1].fingerprint()
    assert store.cache_path.exists()

    payload = json.loads(store.record_path(records[0].run_id).read_text())
    assert payload["experiment"] == "ablation-materialization"
    assert payload["fingerprint"] == records[0].fingerprint()

    out = capsys.readouterr().out
    assert "operator1" in out and "record stored in" in out


def test_cli_report_and_list_render_stored_runs(tmp_path, capsys):
    assert main(["run", "ablation-materialization", "--results-dir", str(tmp_path)]) == 0
    run_id = ArtifactStore(tmp_path).list_runs()[0].run_id
    capsys.readouterr()

    assert main(["report", "--results-dir", str(tmp_path)]) == 0
    report = capsys.readouterr().out
    assert run_id in report and "## ablation-materialization" in report

    csv_file = tmp_path / "runs.csv"
    assert main(
        ["report", "--results-dir", str(tmp_path), "--format", "csv", "--output", str(csv_file)]
    ) == 0
    assert "operator1_gain" in csv_file.read_text()

    assert main(["list"]) == 0
    assert "ablation-materialization" in capsys.readouterr().out


def test_cli_report_fails_without_runs(tmp_path, capsys):
    assert main(["report", "--results-dir", str(tmp_path / "empty")]) == 1
    assert "No stored runs" in capsys.readouterr().out


def test_cli_report_output_is_not_written_when_the_store_is_empty(tmp_path, capsys):
    """Exit-1 emptiness must be decided before --output touches the disk."""
    out_file = tmp_path / "report.md"
    argv = ["report", "--results-dir", str(tmp_path / "empty"), "--output", str(out_file)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "No stored runs" in captured.out
    assert "report written" not in captured.out
    assert "report not written" in captured.err
    assert not out_file.exists()


def test_cli_cache_shows_snapshot_stats(tmp_path, capsys):
    assert main(["run", "ablation-materialization", "--results-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["cache", "--results-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "persisted snapshot" in out and "recent runs" in out
    assert "load status: loaded" in out

    assert main(["cache", "--results-dir", str(tmp_path), "--clear"]) == 0
    assert not ArtifactStore(tmp_path).cache_path.exists()


def test_cli_cache_lists_only_persisted_caches_as_snapshot_contents(tmp_path, capsys):
    """Memory-only caches get no snapshot line; process stats and --json keep them."""
    assert main(["run", "search", "--results-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["cache", "--results-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    listed = [line.split()[0] for line in lines if line.endswith("loaded just now)")]
    assert listed == ["baseline", "compile", "reward"]
    process = next(line for line in lines if line.startswith("this process:"))
    for name in ("plan", "lowering", "shape_distance", "children"):
        assert f"{name} " in process

    assert main(["cache", "--results-dir", str(tmp_path), "--json"]) == 0
    sizes = json.loads(capsys.readouterr().out)["sizes"]
    assert set(sizes) == {
        "reward", "compile", "baseline", "plan", "lowering", "shape_distance", "children"
    }
    assert sizes["children"] > 0


def test_cli_cache_surfaces_version_mismatch(tmp_path, capsys):
    """A stale snapshot is reported (path + versions), never silently dropped."""
    import pickle

    store = ArtifactStore(tmp_path)
    store.cache_path.parent.mkdir(parents=True, exist_ok=True)
    store.cache_path.write_bytes(pickle.dumps({"version": 999, "caches": {}}))
    assert main(["cache", "--results-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "load status: ignored: snapshot version 999" in out


def test_cli_cache_reports_absent_snapshot_and_free_lock(tmp_path, capsys):
    assert main(["cache", "--results-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "absent" in out
    assert "store lock: free" in out


def test_cli_cache_surfaces_unreadable_snapshot(tmp_path, capsys):
    store = ArtifactStore(tmp_path)
    store.cache_path.parent.mkdir(parents=True, exist_ok=True)
    store.cache_path.write_bytes(b"this is neither a frame nor a pickle")
    assert main(["cache", "--results-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "load status: ignored: unreadable snapshot" in out


def test_cli_cache_surfaces_a_held_store_lock(tmp_path, capsys, monkeypatch, lock_holder):
    """A concurrently held lock renders as `locked`, naming the holder."""
    monkeypatch.setenv("REPRO_CACHE_LOCK_TIMEOUT", "0.2")
    store = ArtifactStore(tmp_path)
    SharedCacheStore(store.cache_path).publish({"reward": {"warm": 1.0}})
    holder = lock_holder(str(store.cache_path) + ".lock")
    assert main(["cache", "--results-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "load status: locked:" in out
    assert f"store lock: held by pid {holder.pid}" in out


def test_cli_cache_json_round_trips_the_snapshot_status(tmp_path, capsys):
    assert main(["run", "ablation-materialization", "--results-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["cache", "--results-dir", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    status = SnapshotStatus(**payload["load"])
    assert status.status == "loaded" and status.ok
    assert payload["path"] == str(ArtifactStore(tmp_path).cache_path)
    assert payload["lock"] is None  # nobody is writing
    assert set(payload["sizes"]) >= {
        "reward", "compile", "baseline", "plan", "lowering", "shape_distance"
    }


def test_cli_config_renders_table_and_json(capsys, monkeypatch):
    """`repro config` shows resolved values with default/env/explicit provenance."""
    monkeypatch.setenv("REPRO_SEARCH_SHARDS", "3")
    assert main(["config"]) == 0
    out = capsys.readouterr().out
    assert "field" in out and "provenance" in out
    assert "REPRO_SEARCH_SHARDS" in out and "env" in out

    assert main(["config", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runtime"]["shards"] == 3
    assert payload["provenance"]["shards"] == "env"
    assert payload["provenance"]["compiled_forward"] == "default"


# ---------------------------------------------------------------------------
# repro bench
# ---------------------------------------------------------------------------


def test_bench_args_map_onto_experiment_config():
    args = build_parser().parse_args(
        ["bench", "figure8", "--smoke", "--train-steps", "4", "--repeats", "2"]
    )
    config = config_from_args(args)
    assert config.smoke is True and config.train_steps == 4
    assert args.repeats == 2 and not args.no_compare and args.max_seconds is None


def test_cli_bench_writes_trajectory_and_enforces_threshold(tmp_path, capsys):
    argv = [
        "bench", "ablation-materialization",
        "--results-dir", str(tmp_path),
        "--repeats", "2",
        "--no-compare",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "compiled:" in out and "bench record appended" in out

    bench_path = tmp_path / "BENCH_ablation-materialization.json"
    payload = json.loads(bench_path.read_text())
    (entry,) = payload["entries"]
    assert entry["repeats"] == 2
    assert len(entry["compiled"]["times_seconds"]) == 2
    assert entry["reference"] is None and entry["speedup_vs_eager_float64"] is None
    assert entry["compiled"]["min_seconds"] <= entry["compiled"]["mean_seconds"]

    # A second invocation appends to the trajectory instead of overwriting.
    assert main(argv) == 0
    assert len(json.loads(bench_path.read_text())["entries"]) == 2

    # An absurd threshold turns the exit code into a CI failure.
    assert main(argv + ["--max-seconds", "0.0"]) == 1
    assert "exceeds the --max-seconds threshold" in capsys.readouterr().err


def test_bench_all_sweeps_every_experiment_into_one_trajectory(tmp_path, monkeypatch, capsys):
    """`repro bench --all` times every registered experiment into one file."""
    # Shrink the registry to two cheap experiments so the sweep stays a unit test.
    real_registry = runner_module._registry
    small = {
        name: spec
        for name, spec in real_registry().items()
        if name in ("ablation-materialization", "table3")
    }
    monkeypatch.setattr(runner_module, "_registry", lambda: small)

    argv = [
        "bench", "--all",
        "--results-dir", str(tmp_path),
        "--no-compare",
        "--smoke",
        "--shards", "2",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "benchmarking ablation-materialization" in out and "benchmarking table3" in out

    payload = json.loads((tmp_path / "BENCH_all.json").read_text())
    assert payload["experiment"] == "all"
    assert [entry["experiment"] for entry in payload["entries"]] == [
        "table3", "ablation-materialization",
    ]
    assert all(entry["config"]["shards"] == 2 for entry in payload["entries"])


def test_bench_requires_an_experiment_or_all(capsys):
    assert main(["bench"]) == 2
    assert "required" in capsys.readouterr().err
    assert main(["bench", "table3", "--all"]) == 2
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--all"], ["--max-seconds", "5"]])
def test_bench_serve_rejects_experiment_only_flags(flags, tmp_path, capsys):
    """`--all` and `--max-seconds` would be silently ignored by this bench."""
    assert main(["bench", "serve", *flags, "--results-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert flags[0] in err and "experiment benches only" in err
    assert not any(tmp_path.iterdir())  # rejected before any bench ran


def test_cli_bench_compare_reports_speedup(tmp_path):
    argv = [
        "bench", "ablation-materialization",
        "--results-dir", str(tmp_path),
        "--output", str(tmp_path / "custom.json"),
    ]
    assert main(argv) == 0
    entry = json.loads((tmp_path / "custom.json").read_text())["entries"][-1]
    assert entry["reference"] is not None
    assert entry["speedup_vs_eager_float64"] is not None
    assert not (tmp_path / "BENCH_ablation-materialization.json").exists()


# ---------------------------------------------------------------------------
# Resume: interrupted runs skip completed work items on the rerun
# ---------------------------------------------------------------------------


def _register_stub(monkeypatch, name, run_fn, metrics=lambda result: {}):
    """Register experiment ``name``, run by ``run_fn`` from a stand-in module.

    Registry specs name the module whose ``run()`` they call, so the stub
    gets a module of its own in ``sys.modules``.
    """
    module = ModuleType(f"repro_test_stub_{name}")
    module.run = run_fn
    monkeypatch.setitem(sys.modules, module.__name__, module)
    spec = ExperimentSpec(name, module.__name__, metrics, "test stub")
    real_registry = runner_module._registry
    monkeypatch.setattr(
        runner_module, "_registry", lambda: {**real_registry(), name: spec}
    )


@pytest.fixture
def fake_experiment(monkeypatch):
    """Register a two-item experiment whose first run dies after item 'a'."""
    work_log: list[str] = []

    def fake_run(interrupt_after=None):
        values = []
        for item in ("a", "b"):
            values.append(
                current().cached_reward(
                    ("resume-test",), item, lambda item=item: work_log.append(item) or 1.0
                )
            )
            if item == interrupt_after:
                raise KeyboardInterrupt
        return SimpleNamespace(to_table=lambda: f"items={len(values)}")

    _register_stub(monkeypatch, "fake", fake_run, metrics=lambda result: {"done": 1})
    return work_log


def test_interrupted_run_records_status_and_rerun_skips_finished_work(
    tmp_path, fake_experiment
):
    store = ArtifactStore(tmp_path)
    with pytest.raises(KeyboardInterrupt):
        run_experiment("fake", ExperimentConfig(options={"interrupt_after": "a"}), store=store)
    current().save_caches(str(store.cache_path))  # what `repro run` does on Ctrl-C

    interrupted = store.list_runs()[0]
    assert interrupted.status == "interrupted"
    assert interrupted.error.startswith("KeyboardInterrupt")
    assert fake_experiment == ["a"]

    current().caches.clear()  # fresh process
    current().load_caches(str(store.cache_path))
    outcome = run_experiment("fake", ExperimentConfig(), store=store)
    assert outcome.record.status == "completed"
    # Item 'a' was reloaded from the snapshot, only 'b' was computed.
    assert fake_experiment == ["a", "b"]
    assert outcome.record.cache_stats["reward"] == {"hits": 1, "misses": 1}
    statuses = [record.status for record in store.list_runs()]
    assert statuses == ["interrupted", "completed"]


def test_failed_run_still_produces_a_record(tmp_path, monkeypatch):
    def broken_run():
        raise ValueError("boom")

    _register_stub(monkeypatch, "broken", broken_run)
    store = ArtifactStore(tmp_path)
    with pytest.raises(ValueError):
        run_experiment("broken", store=store)
    record = store.list_runs()[0]
    assert record.status == "failed" and "boom" in record.error




def test_cli_run_failure_points_at_debug_and_debug_reraises(
    tmp_path, monkeypatch, capsys, caplog
):
    """Default: one actionable line, full traceback in the debug log.

    With --debug the original exception propagates so the user gets the
    real traceback instead of a summary of it.
    """

    def broken_run():
        raise ValueError("kaboom")

    _register_stub(monkeypatch, "broken", broken_run)
    with caplog.at_level("DEBUG", logger="repro.cli.main"):
        assert main(["run", "broken", "--results-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "experiment failed: kaboom" in err
    assert "--debug" in err
    assert "Traceback" not in err  # the console line stays a one-liner
    # ... but the traceback is preserved at debug level for log captures.
    assert any(record.exc_info for record in caplog.records)

    with pytest.raises(ValueError, match="kaboom"):
        main(["run", "broken", "--results-dir", str(tmp_path), "--debug"])


def test_second_interrupt_during_the_snapshot_save_is_deferred(
    tmp_path, monkeypatch, capsys
):
    """Ctrl-C twice: the second SIGINT must not unwind the cache save.

    The save holds the shared store lock; interrupting it would strand the
    lock for every other process.  The handler installed around the save
    acknowledges the signal and finishes the critical section.
    """
    import os

    from repro.runtime import RuntimeContext

    def interrupted_run():
        raise KeyboardInterrupt

    _register_stub(monkeypatch, "interrupting", interrupted_run)

    real_save = RuntimeContext.save_caches

    def save_with_second_interrupt(self, path):
        os.kill(os.getpid(), signal.SIGINT)  # the second Ctrl-C, mid-save
        return real_save(self, path)

    monkeypatch.setattr(RuntimeContext, "save_caches", save_with_second_interrupt)
    previous_handler = signal.getsignal(signal.SIGINT)

    exit_code = main(["run", "interrupting", "--results-dir", str(tmp_path)])

    assert exit_code == 130
    err = capsys.readouterr().err
    assert "interrupt deferred" in err
    assert "rerun `repro run interrupting`" in err
    # The save finished despite the signal, and nothing stayed locked.
    store = ArtifactStore(tmp_path)
    assert store.cache_path.exists()
    assert SharedCacheStore(store.cache_path).lock_info() is None
    # The original SIGINT disposition is restored after the shielded block.
    assert signal.getsignal(signal.SIGINT) is previous_handler


# ---------------------------------------------------------------------------
# Cross-process CLI flow (the acceptance scenario, on a cheap experiment)
# ---------------------------------------------------------------------------


def test_cli_two_fresh_processes_share_the_persisted_caches(tmp_path):
    """Second `repro run` in a new process hits the snapshot and matches records."""
    command = [
        sys.executable, "-m", "repro.cli",
        "run", "figure10", "--smoke", "--train-steps", "2",
        "--results-dir", str(tmp_path),
    ]
    import os

    env = {**os.environ, "PYTHONPATH": "src"}
    for _ in range(2):
        subprocess.run(
            command, cwd=REPO_ROOT, env=env, check=True, capture_output=True, text=True
        )

    records = ArtifactStore(tmp_path).list_runs()
    assert [record.status for record in records] == ["completed", "completed"]
    assert records[0].fingerprint() == records[1].fingerprint()
    first, second = (record.cache_stats.get("compile", {}) for record in records)
    assert first.get("misses", 0) > 0
    assert second.get("misses", 0) == 0 and second.get("hits", 0) > 0


# ---------------------------------------------------------------------------
# repro run: a held store lock is fatal, with advice
# ---------------------------------------------------------------------------


def test_cli_run_refuses_a_held_store_lock(tmp_path, capsys, monkeypatch, lock_holder):
    """A lock held by another process refuses the run (exit 4) actionably."""
    from repro.cli.main import EXIT_STORE_LOCKED

    monkeypatch.setenv("REPRO_CACHE_LOCK_TIMEOUT", "0.2")
    store = ArtifactStore(tmp_path)
    SharedCacheStore(store.cache_path).publish({"reward": {"warm": 1.0}})
    lock_holder(str(store.cache_path) + ".lock")

    exit_code = main(["run", "ablation-materialization", "--results-dir", str(tmp_path)])
    assert exit_code == EXIT_STORE_LOCKED == 4
    err = capsys.readouterr().err
    assert "run refused" in err and "locked" in err
    # The message must tell the user what to *do*, not just what happened.
    assert "REPRO_CACHE_LOCK_TIMEOUT" in err
    assert "--no-cache-persist" in err
    assert "repro cache --clear" in err
    assert ArtifactStore(tmp_path).list_runs() == []  # nothing half-ran


def test_cli_serve_refuses_a_held_store_lock(tmp_path, capsys, monkeypatch, lock_holder):
    """`repro serve` loads the snapshot as `repro run` does: a held lock refuses it."""
    import repro.serve
    from repro.cli.main import EXIT_STORE_LOCKED

    served = []
    monkeypatch.setattr(repro.serve, "run_server", lambda *args, **kwargs: served.append(1))
    monkeypatch.setenv("REPRO_CACHE_LOCK_TIMEOUT", "0.2")
    store = ArtifactStore(tmp_path)
    SharedCacheStore(store.cache_path).publish({"reward": {"warm": 1.0}})
    lock_holder(str(store.cache_path) + ".lock")

    exit_code = main(["serve", "--results-dir", str(tmp_path)])
    assert exit_code == EXIT_STORE_LOCKED
    assert served == []  # refused before it bound anything
    captured = capsys.readouterr()
    assert "run refused" in captured.err and "locked" in captured.err
    assert "REPRO_CACHE_LOCK_TIMEOUT" in captured.err
    assert "--no-cache-persist" in captured.err
    assert "serving on" not in captured.out


def test_cli_run_with_no_cache_persist_ignores_the_held_lock(
    tmp_path, monkeypatch, lock_holder
):
    monkeypatch.setenv("REPRO_CACHE_LOCK_TIMEOUT", "0.2")
    store = ArtifactStore(tmp_path)
    SharedCacheStore(store.cache_path).publish({"reward": {"warm": 1.0}})
    lock_holder(str(store.cache_path) + ".lock")

    argv = [
        "run", "ablation-materialization",
        "--results-dir", str(tmp_path), "--no-cache-persist",
    ]
    assert main(argv) == 0
    (record,) = ArtifactStore(tmp_path).list_runs()
    assert record.status == "completed"


# ---------------------------------------------------------------------------
# repro chaos: fingerprint parity under a fault plan
# ---------------------------------------------------------------------------


def test_cli_chaos_asserts_parity_with_a_killed_shard(capsys):
    argv = [
        "chaos", "figure8", "--smoke", "--train-steps", "2", "--shards", "4",
        "--plan", "kill:shard-entry:shard=1,attempt=1", "--expect-failures",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "OK: fingerprint parity" in out
    assert "shard 1 attempt 1 [signal]" in out


def test_cli_chaos_rejects_malformed_plans(capsys):
    argv = ["chaos", "figure8", "--plan", "explode:warp-core"]
    assert main(argv) == 2
    assert "invalid fault plan" in capsys.readouterr().err


def test_cli_chaos_expect_failures_catches_plans_that_never_fire(capsys):
    argv = [
        "chaos", "figure8", "--smoke", "--train-steps", "2", "--shards", "2",
        "--plan", "kill:shard-entry:shard=99", "--expect-failures",
    ]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "completed fault-free" in captured.out
    assert "--expect-failures" in captured.err


# ---------------------------------------------------------------------------
# repro config --diff: live config vs a stored record
# ---------------------------------------------------------------------------


def test_cli_config_diff_matches_its_own_run(tmp_path, capsys):
    assert main(["run", "ablation-materialization", "--results-dir", str(tmp_path)]) == 0
    run_id = ArtifactStore(tmp_path).list_runs()[0].run_id
    capsys.readouterr()

    assert main(["config", "--diff", run_id, "--results-dir", str(tmp_path)]) == 0
    assert "matches" in capsys.readouterr().out


def test_cli_config_diff_flags_a_changed_knob(tmp_path, capsys, monkeypatch):
    assert main(["run", "ablation-materialization", "--results-dir", str(tmp_path)]) == 0
    run_id = ArtifactStore(tmp_path).list_runs()[0].run_id
    capsys.readouterr()

    monkeypatch.setenv("REPRO_SEARCH_SHARDS", "6")
    assert main(["config", "--diff", run_id, "--results-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "shards" in out and "6" in out

    assert main(
        ["config", "--diff", run_id, "--results-dir", str(tmp_path), "--json"]
    ) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["identical"] is False
    assert payload["differing"]["shards"]["live"] == 6


def test_cli_config_diff_unknown_run_exits_2(tmp_path, capsys):
    assert main(["config", "--diff", "no-such-run", "--results-dir", str(tmp_path)]) == 2
    assert "cannot load run" in capsys.readouterr().err
