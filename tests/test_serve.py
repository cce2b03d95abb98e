"""Tests for the serving layer: protocol, wave coalescer, server, parity."""

from __future__ import annotations

import threading

import pytest

from repro.core.enumeration import default_options_for
from repro.core.library import K, M, OUT_FEATURES, matmul_spec
from repro.core.mcts import MCTS, MCTSConfig
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.runtime import current
from repro.serve import (
    PROTOCOL_VERSION,
    ProtocolError,
    RunRequest,
    SearchServer,
    ServeClient,
    ServeError,
    WaveCoalescer,
    start_server_thread,
)
from repro.serve import protocol


@pytest.fixture(autouse=True)
def _fresh_caches():
    current().caches.clear()
    yield
    current().caches.clear()


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "status", "id": "r-1"}
        assert protocol.decode(protocol.encode(message)) == message

    def test_decode_rejects_malformed_lines(self):
        for bad in (b"", b"   \n", b"not json\n", b"[1, 2]\n", b'"a string"\n'):
            with pytest.raises(ProtocolError):
                protocol.decode(bad)

    def test_run_request_round_trips_through_the_wire_form(self):
        request = RunRequest(
            experiment="search",
            config=ExperimentConfig(smoke=True, train_steps=2, seed=3),
            overrides={"shards": 2},
            request_id="client-0",
        )
        parsed = RunRequest.from_payload(protocol.decode(protocol.encode(request.to_payload())))
        assert parsed == request

    def test_unknown_experiment_is_rejected(self):
        with pytest.raises(ProtocolError, match="unknown experiment"):
            RunRequest.from_payload({"op": "run", "experiment": "not-a-figure"})

    def test_unknown_config_field_is_rejected(self):
        with pytest.raises(ProtocolError, match="unknown config field"):
            RunRequest.from_payload(
                {"op": "run", "experiment": "search", "config": {"bogus": 1}}
            )

    def test_storage_redirecting_override_is_rejected_at_the_edge(self):
        with pytest.raises(ProtocolError, match="not allowed over the wire"):
            RunRequest.from_payload(
                {
                    "op": "run",
                    "experiment": "search",
                    "overrides": {"results_dir": "/elsewhere"},
                }
            )


# ---------------------------------------------------------------------------
# Wave coalescer
# ---------------------------------------------------------------------------


def _pending(*signatures):
    # The tests' reward functions treat the "operator" payload as the
    # signature itself; the coalescer never inspects it.
    return [(signature, signature) for signature in signatures]


class TestWaveCoalescer:
    def test_lone_submission_fires_without_company(self):
        # No registered searches: the full-house threshold is one, so a lone
        # submission never waits out its (here: very long) window.
        coalescer = WaveCoalescer(current(), window_seconds=30.0)
        computed = []

        def reward(operator):
            computed.append(operator)
            return 1.0

        rewards = coalescer.evaluate(_pending("a", "b"), reward, "lone-ctx", runtime=current())
        assert rewards == {"a": 1.0, "b": 1.0}
        assert sorted(computed) == ["a", "b"]
        stats = coalescer.stats()
        assert stats["waves"] == 1
        assert stats["submissions"] == 1
        assert stats["pending"] == 2 and stats["tasks"] == 2

    def test_concurrent_submissions_merge_into_one_wave(self):
        coalescer = WaveCoalescer(current(), window_seconds=30.0)
        computed = []
        computed_lock = threading.Lock()

        def reward(operator):
            with computed_lock:
                computed.append(operator)
            return float(len(operator))

        results = {}
        barrier = threading.Barrier(2)

        def search(name, pending):
            with coalescer.search_scope():
                barrier.wait()  # both searches registered before either submits
                results[name] = dict(
                    coalescer.evaluate(pending, reward, "shared-ctx", runtime=current())
                )

        threads = [
            threading.Thread(target=search, args=("one", _pending("x", "shared"))),
            threading.Thread(target=search, args=("two", _pending("y", "shared"))),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
            assert not thread.is_alive(), "coalescer deadlocked"

        assert results["one"] == {"x": 1.0, "shared": 6.0}
        assert results["two"] == {"y": 1.0, "shared": 6.0}
        # The shared signature was computed exactly once for both searches.
        assert sorted(computed) == ["shared", "x", "y"]
        stats = coalescer.stats()
        assert stats["waves"] == 1
        assert stats["submissions"] == 2
        assert stats["pending"] == 4
        assert stats["tasks"] == 3
        assert stats["coalesced"] == 1

    def test_warm_cache_entries_count_as_hits_and_skip_recompute(self):
        computed = []

        def reward(operator):
            computed.append(operator)
            return 0.5

        current().cached_reward("hit-ctx", "warm", lambda: 0.25)
        coalescer = WaveCoalescer(current(), window_seconds=0.0)
        rewards = coalescer.evaluate(
            _pending("warm", "cold"), reward, "hit-ctx", runtime=current()
        )
        assert rewards == {"warm": 0.25, "cold": 0.5}
        assert computed == ["cold"]
        stats = coalescer.stats()
        assert stats["cache_hits"] == 1 and stats["computed"] == 1

    def test_reward_failure_poisons_the_wave(self):
        def reward(operator):
            raise RuntimeError("proxy training crashed")

        coalescer = WaveCoalescer(current(), window_seconds=0.0)
        with pytest.raises(RuntimeError, match="proxy training crashed"):
            coalescer.evaluate(_pending("a"), reward, "err-ctx", runtime=current())

    def test_empty_wave_is_a_no_op(self):
        coalescer = WaveCoalescer(current(), window_seconds=0.0)
        assert coalescer.evaluate([], lambda op: 1.0, "ctx", runtime=current()) == {}
        assert coalescer.stats()["waves"] == 0

    def test_on_wave_reports_the_stats_every_participant_sees(self):
        seen = []
        coalescer = WaveCoalescer(current(), window_seconds=0.0)
        coalescer.evaluate(
            _pending("a", "a", "b"),
            lambda op: 1.0,
            "cb-ctx",
            runtime=current(),
            on_wave=seen.append,
        )
        (stats,) = seen
        assert stats.pending == 3 and stats.tasks == 2 and stats.coalesced == 1
        assert stats.to_dict()["wave"] == 1


# ---------------------------------------------------------------------------
# MCTS hands waves to the context's wave evaluator
# ---------------------------------------------------------------------------


def test_mcts_routes_waves_through_the_context_wave_evaluator():
    binding = {M: 4, K: 6, OUT_FEATURES: 5}
    spec = matmul_spec(bindings=(binding,))
    options = default_options_for(spec, coefficients=[], max_depth=3)

    def reward(operator):
        return min(operator.parameter_count(binding) / 100.0, 1.0)

    def make_search(context_tag):
        return MCTS(
            spec=spec,
            options=options,
            reward_fn=reward,
            config=MCTSConfig(iterations=20, seed=1, batch_size=4, cache_context=context_tag),
        )

    serial = make_search("hook-serial").run()
    assert serial, "the matmul space must yield samples"

    waves = []

    def hook(pending, reward_fn, cache_context, runtime):
        waves.append(len(pending))
        return {signature: reward_fn(operator) for signature, operator in pending}

    hooked_context = current().derive()
    hooked_context.wave_evaluator = hook
    with hooked_context.activate():
        hooked = make_search("hook-test").run()

    assert waves and sum(waves) > 0, "the hook must have received pending evaluations"
    assert [(r.operator.graph.signature(), r.reward) for r in hooked] == [
        (r.operator.graph.signature(), r.reward) for r in serial
    ]


# ---------------------------------------------------------------------------
# The server, end to end over real sockets
# ---------------------------------------------------------------------------


def _search_config(seed):
    """A search request small enough for a test but with real waves."""
    return ExperimentConfig(
        smoke=True, train_steps=1, seed=seed, options={"iterations": 8}
    )


@pytest.fixture
def live_server(tmp_path):
    context = current().derive(results_dir=str(tmp_path))
    with context.activate():
        server = SearchServer(current(), window_seconds=0.1)
        thread, _address = start_server_thread(server)
        try:
            yield server
        finally:
            server.request_shutdown()
            thread.join(timeout=15)
            assert not thread.is_alive(), "server thread failed to shut down"


class TestSearchServer:
    def test_concurrent_clients_match_serial_fingerprints(self, live_server):
        results: dict[int, dict] = {}
        errors: list[Exception] = []

        def client(index):
            try:
                with ServeClient(port=live_server.port) as connection:
                    results[index] = connection.run(
                        "search", _search_config(index), request_id=f"client-{index}"
                    )
            except Exception as exc:  # collected for the main thread's assert
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors and len(results) == 3

        # Bit-identical to a serial run of the same request, per client.
        for index in range(3):
            serial = run_experiment("search", _search_config(index), store=None)
            assert results[index]["fingerprint"] == serial.record.fingerprint()
            assert results[index]["status"] == "completed"

        status = live_server.status()
        assert status["requests"]["completed"] == 3
        assert status["requests"]["failed"] == 0
        # One derived context per request (the runner derives once more).
        assert status["derived_contexts"] >= 3

    def test_repeat_request_is_served_entirely_from_cache(self, live_server):
        with ServeClient(port=live_server.port) as connection:
            first = connection.run("search", _search_config(0), request_id="first")
        with ServeClient(port=live_server.port) as connection:
            second = connection.run("search", _search_config(0), request_id="second")
        assert first["fingerprint"] == second["fingerprint"]
        assert first["run_id"] != second["run_id"]
        # The second run recomputes nothing: rewards and the baseline hit.
        assert second["cache_stats"]["reward"]["misses"] == 0
        assert second["cache_stats"]["baseline"]["misses"] == 0
        assert second["cache_stats"]["baseline"]["hits"] >= 1

    def test_wave_events_stream_to_the_client(self, live_server):
        events = []
        with ServeClient(port=live_server.port) as connection:
            connection.run(
                "search", _search_config(0), request_id="ev", on_event=events.append
            )
        kinds = [event.get("event") for event in events]
        assert kinds[0] == "accepted"
        assert kinds[-1] == "result"
        wave_events = [event for event in events if event.get("event") == "wave"]
        assert wave_events, "a search with pending evaluations must report waves"
        assert all(event["id"] == "ev" for event in wave_events)
        assert all(event["tasks"] >= 1 for event in wave_events)

    def test_invalid_requests_get_error_events_not_dead_air(self, live_server):
        with ServeClient(port=live_server.port) as connection:
            with pytest.raises(ServeError, match="unknown experiment"):
                connection.run("not-an-experiment")
        # The connection (and server) survive a rejected request.
        with ServeClient(port=live_server.port) as connection:
            status = connection.status()
        assert status["requests"]["failed"] == 0

    def test_status_and_shutdown_ops(self, tmp_path):
        context = current().derive(results_dir=str(tmp_path))
        with context.activate():
            server = SearchServer(current())
            thread, address = start_server_thread(server)
            assert address.startswith("127.0.0.1:")
            with ServeClient(port=server.port) as connection:
                status = connection.status()
                assert status["event"] == "status"
                assert status["protocol"] == PROTOCOL_VERSION
                assert "search" in status["experiments"]
                final = connection.shutdown()
                assert final["event"] == "shutdown"
            thread.join(timeout=15)
            assert not thread.is_alive()
