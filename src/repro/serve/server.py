"""The ``repro serve`` daemon: many clients, one warm context, shared waves.

:class:`SearchServer` is an asyncio JSON-lines server (TCP or unix socket —
see :mod:`repro.serve.protocol` for the wire format).  Each ``run`` request
gets its *own* derived :class:`~repro.runtime.RuntimeContext` — the
request's seed/budget/dtype overrides frozen over the server's warm cache
set — and executes on a worker thread through the same
:func:`~repro.experiments.runner.run_experiment` path the CLI uses, so the
stored record and its fingerprint are bit-identical to a serial ``repro
run`` of the same request.  What *is* different under load: every request
context carries the server's :class:`~repro.serve.coalescer.WaveCoalescer`
as its ``wave_evaluator``, so concurrent searches' MCTS frontier waves merge
into shared ``sharded_map`` fan-outs and N clients amortize proxy trainings.

Threading model: the asyncio loop owns sockets and event streaming; each
request's search runs in ``asyncio.to_thread``; wave-progress callbacks hop
back into the loop with ``call_soon_threadsafe``.  The coalescer
synchronizes the worker threads directly — the loop never blocks on a wave.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from typing import Callable

from repro.experiments.runner import CONTEXT_STORE, experiment_names, run_experiment
from repro.runtime import RuntimeContext, current
from repro.serve import protocol
from repro.serve.coalescer import WaveCoalescer, WaveStats

log = logging.getLogger(__name__)


class SearchServer:
    """Coalescing search service over one warm runtime context."""

    def __init__(
        self,
        runtime: RuntimeContext | None = None,
        window_seconds: float = 0.05,
    ) -> None:
        #: the root context every request derives from; its caches are the
        #: shared substrate and its store is where records land.
        self.runtime = runtime if runtime is not None else current()
        self.coalescer = WaveCoalescer(self.runtime, window_seconds=window_seconds)
        self.address: str | None = None
        self.port: int | None = None
        self._requests_accepted = 0
        self._requests_completed = 0
        self._requests_failed = 0
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._inflight: set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: str | None = None,
    ) -> str:
        """Bind and start accepting connections; returns the bound address."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=str(socket_path)
            )
            self.address = str(socket_path)
        else:
            self._server = await asyncio.start_server(self._handle_connection, host, port)
            bound = self._server.sockets[0].getsockname()
            self.address = f"{bound[0]}:{bound[1]}"
            self.port = bound[1]
        log.info("serving on %s (%d experiment(s) registered)",
                 self.address, len(experiment_names()))
        return self.address

    async def serve_until_shutdown(self) -> None:
        """Block until a shutdown is requested, then drain in-flight work."""
        if self._server is None or self._stop is None:
            raise RuntimeError("server not started")
        await self._stop.wait()
        self._server.close()
        await self._server.wait_closed()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        log.info("drained; %d request(s) served", self._requests_completed)

    def request_shutdown(self) -> None:
        """Ask the server to stop; safe to call from any thread."""
        if self._loop is None or self._stop is None:
            return
        self._loop.call_soon_threadsafe(self._stop.set)

    # -- connections ---------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        send_lock = asyncio.Lock()

        async def send(message: dict) -> None:
            async with send_lock:
                writer.write(protocol.encode(message))
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    payload = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    await send({"event": "error", "error": str(exc)})
                    continue
                op = payload.get("op")
                if op == "run":
                    await self._accept_run(payload, send)
                elif op == "status":
                    await send({"event": "status", **self.status()})
                elif op == "shutdown":
                    await send({"event": "shutdown", **self.status()})
                    self.request_shutdown()
                else:
                    await send({"event": "error", "error": f"unknown op {op!r}"})
        except (ConnectionResetError, BrokenPipeError) as exc:
            log.debug("client connection dropped: %s", exc)
        except asyncio.CancelledError:
            # Loop teardown cancels handlers still parked in readline; that
            # is the normal end of a connection's life, not an error.
            log.debug("connection handler cancelled at shutdown")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError) as exc:
                log.debug("close race on dropped client: %s", exc)
            except asyncio.CancelledError:
                # A handler cancelled in readline lands here with the
                # cancellation still pending; the transport is already
                # closed, so swallowing it keeps teardown quiet.
                log.debug("close cancelled at shutdown")

    async def _accept_run(self, payload: dict, send) -> None:
        try:
            request = protocol.RunRequest.from_payload(payload)
        except protocol.ProtocolError as exc:
            await send({"event": "error", "id": payload.get("id"), "error": str(exc)})
            return
        self._requests_accepted += 1
        await send({
            "event": "accepted",
            "id": request.request_id,
            "experiment": request.experiment,
        })
        task = asyncio.create_task(self._run_request(request, send))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    # -- request execution ---------------------------------------------------

    async def _run_request(self, request: protocol.RunRequest, send) -> None:
        loop = asyncio.get_running_loop()

        def notify(stats: WaveStats) -> None:
            # Called on a search worker thread at each wave boundary.
            event = {"event": "wave", "id": request.request_id, **stats.to_dict()}
            try:
                loop.call_soon_threadsafe(self._post_event, send, event)
            except RuntimeError as exc:
                # The loop closed under us (interrupt-driven shutdown while
                # this search drains): progress events are best-effort.
                log.debug("wave event dropped after loop shutdown: %s", exc)

        try:
            record = await asyncio.to_thread(self._execute, request, notify)
        except Exception as exc:
            self._requests_failed += 1
            log.warning("request %r failed", request.request_id or request.experiment,
                        exc_info=True)
            await self._send_quiet(send, {
                "event": "error",
                "id": request.request_id,
                "error": f"{type(exc).__name__}: {exc}",
            })
            return
        self._requests_completed += 1
        await self._send_quiet(send, {
            "event": "result",
            "id": request.request_id,
            "experiment": request.experiment,
            "run_id": record.run_id,
            "status": record.status,
            "fingerprint": record.fingerprint(),
            "duration_seconds": record.duration_seconds,
            "metrics": record.metrics,
            "cache_stats": record.cache_stats,
        })

    def _execute(self, request: protocol.RunRequest, notify: Callable) -> object:
        """Worker-thread body: derive, install the coalescer, run, store."""
        context = self.runtime.derive(**request.overrides)
        coalescer = self.coalescer

        def wave_evaluator(pending, reward_fn, cache_context, runtime):
            return coalescer.evaluate(
                pending, reward_fn, cache_context, runtime=runtime, on_wave=notify
            )

        context.wave_evaluator = wave_evaluator
        with context.activate():
            with coalescer.search_scope():
                outcome = run_experiment(
                    request.experiment, request.config, store=CONTEXT_STORE
                )
        return outcome.record

    def _post_event(self, send, event: dict) -> None:
        # Runs on the loop: turn the threaded callback into a tracked send.
        task = asyncio.ensure_future(self._send_quiet(send, event))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _send_quiet(self, send, event: dict) -> None:
        try:
            await send(event)
        except (ConnectionError, RuntimeError) as exc:
            log.debug("event %r dropped (client gone): %s", event.get("event"), exc)

    # -- reporting -----------------------------------------------------------

    def status(self) -> dict:
        """One status snapshot (the ``status`` / ``shutdown`` event body)."""
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "address": self.address,
            "experiments": experiment_names(),
            "requests": {
                "accepted": self._requests_accepted,
                "completed": self._requests_completed,
                "failed": self._requests_failed,
                "active": sum(1 for t in self._inflight if not t.done()),
            },
            #: per-request context accounting: how many contexts the root has
            #: derived (one per run request, plus any operator-side derives).
            "derived_contexts": self.runtime.derived_count,
            "coalescer": self.coalescer.stats(),
            "cache_sizes": self.runtime.caches.sizes(),
        }


def run_server(
    server: SearchServer,
    host: str = "127.0.0.1",
    port: int = 0,
    socket_path: str | None = None,
    on_ready: Callable[[str], None] | None = None,
) -> None:
    """Blocking entry point: start ``server`` and run it to shutdown.

    Used by ``repro serve`` on the main thread and by ``repro bench serve``
    (and the tests) on a background thread — ``on_ready`` receives the bound
    address once connections are being accepted, which is how a harness
    learns the ephemeral port.
    """

    async def _main() -> None:
        address = await server.start(host=host, port=port, socket_path=socket_path)
        if on_ready is not None:
            on_ready(address)
        await server.serve_until_shutdown()

    asyncio.run(_main())


def start_server_thread(
    server: SearchServer,
    host: str = "127.0.0.1",
    port: int = 0,
    socket_path: str | None = None,
) -> tuple[threading.Thread, str]:
    """Run ``server`` on a daemon thread; returns once it accepts connections.

    The bench harness and the tests drive a real server this way.  Stop it
    with ``server.request_shutdown()`` (or a client ``shutdown`` op) and join
    the returned thread.
    """
    ready = threading.Event()
    box: dict[str, str] = {}

    def _on_ready(address: str) -> None:
        box["address"] = address
        ready.set()

    thread = threading.Thread(
        target=run_server,
        kwargs={
            "server": server,
            "host": host,
            "port": port,
            "socket_path": socket_path,
            "on_ready": _on_ready,
        },
        name="repro-serve",
        daemon=True,
    )
    thread.start()
    if not ready.wait(timeout=30.0):
        raise RuntimeError("search server did not start within 30s")
    return thread, box["address"]
