"""`SweepClient` — one client API over two transports.

``SweepClient(url="http://host:port")`` talks the ``/v1`` wire API of a
running ``python -m repro serve`` (stdlib ``urllib`` — no new
dependencies).  ``SweepClient(store="runs/store")`` needs no server at
all: it hosts a private :class:`~repro.service.scheduler.SweepScheduler`
on a background event-loop thread, so the submit/status/stream/result
surface — and the store-first, dedup-always semantics behind it — are
identical either way.  Code written against the client moves from a
notebook to a shared service by changing the constructor argument.

    with SweepClient(store="runs/store", workers=4) as client:
        job_id = client.submit(spec)
        for event in client.stream(job_id):
            print(event["name"])
        cells = client.result(job_id)["cells"]
"""

from __future__ import annotations

import asyncio
import json
import queue
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.observe.clock import monotonic
from repro.runner.spec import ExperimentSpec
from repro.service.wire import to_wire

_DONE = object()
_TERMINAL = ("done", "failed")


class ServiceError(RuntimeError):
    """A service-side rejection or failure, surfaced with its diagnostic."""


class _HttpTransport:
    """The ``/v1`` wire API over stdlib urllib."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        self.base = url.rstrip("/")
        self.timeout = timeout

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> dict:
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        request = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as rsp:
                return json.loads(rsp.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            detail = error.read().decode("utf-8", "replace")
            try:
                payload = json.loads(detail)
                detail = f"{payload.get('error')}: {payload.get('message')}"
            except json.JSONDecodeError:
                pass
            raise ServiceError(
                f"{method} {path} -> {error.code}: {detail}"
            ) from None
        except urllib.error.URLError as error:
            raise ServiceError(
                f"cannot reach sweep service at {self.base}: {error.reason}"
            ) from None

    def submit(self, spec: ExperimentSpec) -> str:
        return str(self._request("POST", "/v1/jobs", to_wire(spec))["job_id"])

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def stream(self, job_id: str) -> Iterator[dict]:
        request = urllib.request.Request(
            f"{self.base}/v1/jobs/{job_id}/events"
        )
        try:
            response = urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as error:
            raise ServiceError(
                f"GET /v1/jobs/{job_id}/events -> {error.code}"
            ) from None
        with response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    def close(self) -> None:
        pass


class _InProcessTransport:
    """A private scheduler on a background event-loop thread.

    The loop thread owns the scheduler, the event broker and the
    process's :mod:`repro.observe` session — matching the serve CLI's
    threading model, where all service-side observe emission happens on
    one thread.  Callers marshal in via ``run_coroutine_threadsafe`` and
    stream out through a plain queue.
    """

    def __init__(
        self,
        store: Union[str, Path],
        workers: int = 2,
        max_retries: Optional[int] = None,
        trace_path: Optional[str] = None,
    ) -> None:
        # Deferred: the scheduler pulls in the whole runner engine; keep
        # `import repro.service.client` itself light.
        from repro.runner.engine import DEFAULT_MAX_RETRIES
        from repro.service.scheduler import SweepScheduler
        from repro.store import open_store

        self._scheduler = SweepScheduler(
            open_store(store),
            workers=workers,
            max_retries=(
                DEFAULT_MAX_RETRIES if max_retries is None else max_retries
            ),
        )
        self._trace_path = trace_path
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-sweep-service", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._failure is not None:
            raise ServiceError(
                f"in-process sweep service failed to start: {self._failure}"
            )

    def _run(self) -> None:
        try:
            # Sink construction opens/truncates the trace file — do that
            # synchronous IO here, before the event loop exists, so no
            # blocking call ever runs on the loop thread.
            sink = self._build_sink()
            asyncio.run(self._main(sink))
        except BaseException as error:  # surface startup failures
            self._failure = error
            self._ready.set()

    def _build_sink(self) -> "Sink":
        from repro.observe.sinks import FanoutSink, JsonlSink, Sink
        from repro.service.events import ObserveBridge

        sinks: List[Sink] = []
        if self._trace_path is not None:
            sinks.append(JsonlSink(self._trace_path))
        sinks.append(ObserveBridge(self._scheduler.broker))
        return FanoutSink(sinks)

    async def _main(self, sink: "Sink") -> None:
        from repro import observe

        with observe.enabled(sink=sink):
            self._scheduler.start()
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
            await self._scheduler.close()

    def _loop_or_fail(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise ServiceError("in-process sweep service is not running")
        return self._loop

    def submit(self, spec: ExperimentSpec) -> str:
        future = asyncio.run_coroutine_threadsafe(
            self._scheduler.submit(spec), self._loop_or_fail()
        )
        return str(future.result())

    def _snapshot(self, job_id: str, want_cells: bool) -> dict:
        # Job state is mutated only on the loop thread; read it there.
        async def read() -> Optional[dict]:
            if want_cells:
                return self._scheduler.result(job_id)
            return self._scheduler.status(job_id)

        snapshot = asyncio.run_coroutine_threadsafe(
            read(), self._loop_or_fail()
        ).result()
        if snapshot is None:
            raise ServiceError(f"no job {job_id!r} on this service")
        return snapshot

    def status(self, job_id: str) -> dict:
        return self._snapshot(job_id, want_cells=False)

    def result(self, job_id: str) -> dict:
        return self._snapshot(job_id, want_cells=True)

    def stream(self, job_id: str) -> Iterator[dict]:
        if not self._scheduler.broker.knows(job_id):
            raise ServiceError(f"no job {job_id!r} on this service")
        records: "queue.Queue[object]" = queue.Queue()

        async def pump() -> None:
            try:
                async for record in self._scheduler.broker.stream(job_id):
                    records.put(record)
            finally:
                records.put(_DONE)

        asyncio.run_coroutine_threadsafe(pump(), self._loop_or_fail())
        while True:
            record = records.get()
            if record is _DONE:
                return
            yield record  # type: ignore[misc]

    def close(self) -> None:
        if self._loop is not None and self._stop is not None:
            stop = self._stop
            self._loop.call_soon_threadsafe(stop.set)
            self._thread.join(timeout=30.0)


class SweepClient:
    """Submit sweeps, watch progress, fetch results — HTTP or in-process.

    Exactly one of ``url`` (a ``repro serve`` endpoint) or ``store`` (a
    result-store directory to host an in-process service on) must be
    given.  ``workers``/``max_retries``/``trace_path``
    configure the in-process scheduler and are rejected with ``url``
    (the server chose them at startup).
    """

    def __init__(
        self,
        url: Optional[str] = None,
        store: Union[str, Path, None] = None,
        workers: int = 2,
        max_retries: Optional[int] = None,
        trace_path: Optional[str] = None,
        timeout: float = 30.0,
    ) -> None:
        if (url is None) == (store is None):
            raise ValueError("pass exactly one of url= or store=")
        if url is not None:
            if trace_path is not None:
                raise ValueError(
                    "trace_path configures the in-process service; against "
                    "a server, pass --trace to `repro serve` instead"
                )
            self._transport: Union[_HttpTransport, _InProcessTransport] = (
                _HttpTransport(url, timeout=timeout)
            )
        else:
            assert store is not None
            self._transport = _InProcessTransport(
                store, workers=workers, max_retries=max_retries,
                trace_path=trace_path,
            )

    def submit(self, spec: ExperimentSpec) -> str:
        """Submit one grid; returns the service job id immediately."""
        return self._transport.submit(spec)

    def status(self, job_id: str) -> Dict[str, object]:
        """Progress counters and status (terminal: "done"/"failed")."""
        return self._transport.status(job_id)

    def result(self, job_id: str) -> Dict[str, object]:
        """Status plus every terminal cell record accumulated so far."""
        return self._transport.result(job_id)

    def stream(self, job_id: str) -> Iterator[Dict[str, object]]:
        """Iterate the job's event stream: history first, then live
        until the job finishes."""
        return self._transport.stream(job_id)

    def wait(
        self, job_id: str, timeout: Optional[float] = None,
        poll_seconds: float = 0.1,
    ) -> Dict[str, object]:
        """Block until the job is terminal; returns the final result."""
        deadline = None if timeout is None else monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["status"] in _TERMINAL:
                return self.result(job_id)
            if deadline is not None and monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['status']} after {timeout}s"
                )
            time.sleep(poll_seconds)

    def close(self) -> None:
        """Shut down an in-process service (no-op for HTTP clients)."""
        self._transport.close()

    def __enter__(self) -> "SweepClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
