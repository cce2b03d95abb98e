"""``repro bench serve``: the coalescing search service against serial parity runs.

Imported by the CLI only when ``repro bench serve`` runs, so no other
command compiles or loads it.
"""

from __future__ import annotations

import logging
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.results.store import append_bench_entry
from repro.runtime import current
from repro.serve.client import ServeClient
from repro.serve.server import SearchServer, start_server_thread

log = logging.getLogger(__name__)


def bench_serve(clients: int, config: ExperimentConfig, output: Path) -> int:
    """Benchmark the coalescing search service against serial parity runs.

    Starts an in-process server on an ephemeral port, drives ``clients``
    concurrent ``search`` requests (distinct seeds) through real sockets,
    then re-runs every request serially through the same runner and compares
    fingerprints.  The serve leg goes first, from cold caches, so its waves
    measure real coalescing; the serial legs then run warm — which *is* the
    parity claim: a reward's value cannot depend on where or when it was
    computed, only on its cache key.

    Appends the bench entry to the trajectory file ``output`` and returns
    the command's exit code: 0 when every client's fingerprint matches.
    """
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
    serial_children: list[dict] = []
    for index in range(clients):
        leg_start = time.perf_counter()
        record = run_experiment(experiment, _request_config(index), store=None).record
        serial_times.append(round(time.perf_counter() - leg_start, 3))
        serial_children.append(record.cache_stats.get("children", {}))
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
        # The reruns repeat the served seeds in the same runtime, so every
        # legal-children lookup should hit the memo the requests filled.
        "serial_children": serial_children,
        "coalescer": coalescer_stats,
        "parity": not mismatches,
    }
    append_bench_entry(output, entry, name="serve")
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
