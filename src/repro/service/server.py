"""``zeusd`` -- the asyncio compile-and-simulate daemon.

A deliberately small HTTP/1.1 server over raw :mod:`asyncio` streams
(no ``http.server``, no third-party framework): requests and responses
are JSON bodies, long sims stream as chunked NDJSON.  The endpoints:

.. code-block:: none

    GET  /v1/health                    liveness + version
    GET  /v1/metrics                   zeus.metrics/1 service report
    POST /v1/compile                   {source, top?, strict?}
    POST /v1/lint                      {source, top?, strict?, werror?}
    POST /v1/sim                       {source, cycles?, pokes?, watch?,
                                        seed?, engine?}  (long runs are
                                        sharded to the process pool)
    POST /v1/sim/stream                same body; chunked NDJSON, one
                                       line per cycle (live tail)
    POST /v1/prove                     {source, props?, depth?, budget?,
                                        induction?}   -> process pool
    POST /v1/equiv                     {source, source2, top?, top2?,
                                        depth?, budget?} -> process pool
    POST /v1/timing                    {source, model?, clock?, paths?,
                                        sat?, budget?} -> process pool
    POST /v1/session/open              {source, top?, seed?} -> lane lease
    GET  /v1/session/<id>              session status
    POST /v1/session/<id>/poke         {path, value}
    POST /v1/session/<id>/unpoke       {path}
    POST /v1/session/<id>/peek         {path}
    POST /v1/session/<id>/step         {cycles?}
    POST /v1/session/<id>/registers    {}
    DELETE /v1/session/<id>            release the lane
    POST /v1/cache/clear               drop every cached compile

Error contract: compile failures are HTTP 400 with the ``zeus.error/1``
payload (the CLI's ``--format json`` renderer); a saturated worker pool
is 503 with a ``Retry-After`` header; a blown per-request deadline is
504; unknown routes are 404.

Concurrency model: the event loop owns all bookkeeping; CPU-bound work
leaves it -- SAT obligations and long sims to the process pool, session
stepping to a thread via ``asyncio.to_thread`` (lanes of one mux are
advanced by a single *elected* stepper task that coalesces every
waiting session into shared bit-parallel passes; see
:meth:`ZeusDaemon._step_session`).  Each request records its spans on a
private :class:`~repro.obs.spans.SpanRegistry` (``use_registry``), then
folds them into the daemon's bounded recent-spans ring for
``/v1/metrics``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time

from .. import __version__
from ..lang import SourceText
from ..lang.errors import ZeusError, error_payload
from ..obs.export import service_metrics_report, validate_report
from ..obs.spans import SpanRegistry, use_registry
from . import jobs
from .cache import CompileCache, cache_key
from .pool import PoolSaturated, PoolTimeout, ShardPool
from .sessions import LaneMux, SessionError

_MAX_BODY = 8 << 20
_MAX_HEADERS = 64

#: Sim requests beyond this many cycles leave the event loop for the
#: process pool (tunable per daemon).
DEFAULT_LONG_SIM_CYCLES = 20_000


class _HttpError(Exception):
    """An error with a ready-made HTTP response."""

    def __init__(self, status: int, payload: dict, headers=None):
        super().__init__(payload.get("error", str(status)))
        self.status = status
        self.payload = payload
        self.headers = headers or {}


class _MuxState:
    """One design's mux plus its asyncio coordination state."""

    __slots__ = ("mux", "lock", "want", "event", "stepping")

    def __init__(self, mux: LaneMux):
        self.mux = mux
        self.lock = asyncio.Lock()
        self.want: dict = {}
        self.event = asyncio.Event()
        self.stepping = False


_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class ZeusDaemon:
    """The daemon: cache + pool + session muxes behind HTTP JSON."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int | None = None,
        lanes: int = 16,
        cache_size: int = 128,
        max_queue: int | None = None,
        timeout: float = 60.0,
        long_sim_cycles: int = DEFAULT_LONG_SIM_CYCLES,
    ):
        self.host = host
        self.port = port
        self.lanes = lanes
        self.long_sim_cycles = long_sim_cycles
        self.cache = CompileCache(cache_size)
        self.pool = ShardPool(workers, max_queue=max_queue, timeout=timeout)
        self.registry = SpanRegistry(maxlen=2_000)
        self._muxes: dict[str, _MuxState] = {}
        self._sessions: dict[str, tuple] = {}
        self._session_ids = itertools.count(1)
        self._requests = {"total": 0, "errors": 0, "shed": 0}
        self._by_endpoint: dict[str, int] = {}
        self._started = time.monotonic()
        self._server: asyncio.AbstractServer | None = None
        self._conns: set = set()

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.monotonic()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Hang up idle keep-alive connections so their handler tasks
        # see EOF and finish before the loop tears down (otherwise
        # asyncio logs their cancellation).
        for writer in list(self._conns):
            writer.close()
        await asyncio.sleep(0)
        self.pool.shutdown()

    def stats(self) -> dict:
        """The ``service`` section of the zeus.metrics/1 report."""
        return {
            "uptime_s": time.monotonic() - self._started,
            "requests": {
                "total": self._requests["total"],
                "errors": self._requests["errors"],
                "shed": self._requests["shed"],
                "by_endpoint": dict(sorted(self._by_endpoint.items())),
            },
            "cache": self.cache.stats(),
            "pool": self.pool.stats(),
            "sessions": {
                "open": len(self._sessions),
                "muxes": [
                    {
                        "design": st.mux.circuit.name,
                        "lanes": st.mux.lanes,
                        "occupied": st.mux.occupied,
                    }
                    for st in self._muxes.values()
                ],
            },
        }

    # -- HTTP plumbing ---------------------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        self._conns.add(writer)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                keep = headers.get("connection", "").lower() != "close"
                done = await self._dispatch(
                    method, path, body, writer, keep
                )
                await writer.drain()
                if not keep or done == "close":
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass
        finally:
            self._conns.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, path, _version = line.decode("ascii").split()
        except ValueError:
            raise ConnectionError("malformed request line")
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ConnectionError("too many headers")
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            raise ConnectionError("body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    def _send(
        self, writer, status: int, payload: dict,
        headers: dict | None = None, keep: bool = True,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep else 'close'}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body
        )

    async def _dispatch(
        self, method: str, path: str, body: bytes, writer, keep: bool
    ):
        endpoint = f"{method} {path.split('?', 1)[0]}"
        self._requests["total"] += 1
        registry = SpanRegistry()
        try:
            with use_registry(registry):
                with registry.span("request", endpoint=endpoint):
                    return await self._route(
                        method, path, body, writer, keep, registry
                    )
        except _HttpError as exc:
            self._requests["errors"] += 1
            if exc.status == 503:
                self._requests["shed"] += 1
            self._send(writer, exc.status, exc.payload, exc.headers, keep)
        except Exception as exc:  # noqa: BLE001 -- the last-resort 500
            self._requests["errors"] += 1
            self._send(
                writer, 500,
                {"error": f"{type(exc).__name__}: {exc}"}, None, keep,
            )
        finally:
            # Collapse the route key so per-session paths aggregate.
            parts = endpoint.split("/")
            if len(parts) > 3 and parts[2] == "session":
                parts[3] = "*"
            key = "/".join(parts)
            self._by_endpoint[key] = self._by_endpoint.get(key, 0) + 1
            self.registry.spans.extend(registry.spans)

    async def _route(
        self, method, path, body, writer, keep, registry
    ):
        path = path.split("?", 1)[0]
        if path == "/v1/health" and method == "GET":
            self._send(writer, 200, {
                "status": "ok",
                "version": __version__,
                "uptime_s": time.monotonic() - self._started,
            }, None, keep)
            return None
        if path == "/v1/metrics" and method == "GET":
            report = service_metrics_report(self.stats(), self.registry)
            validate_report(report)
            self._send(writer, 200, report, None, keep)
            return None
        if path == "/v1/cache/clear" and method == "POST":
            self.cache.clear()
            self._send(writer, 200, {"cleared": True}, None, keep)
            return None

        request = self._json_body(body) if method in ("POST", "PUT") else {}

        if path == "/v1/compile" and method == "POST":
            payload = await self._compile(request, registry)
        elif path == "/v1/lint" and method == "POST":
            payload = await self._lint(request, registry)
        elif path == "/v1/sim" and method == "POST":
            payload = await self._sim(request, registry)
        elif path == "/v1/sim/stream" and method == "POST":
            return await self._sim_stream(request, writer, keep)
        elif path == "/v1/prove" and method == "POST":
            payload = await self._prove(request)
        elif path == "/v1/equiv" and method == "POST":
            payload = await self._equiv(request)
        elif path == "/v1/timing" and method == "POST":
            payload = await self._timing(request)
        elif path == "/v1/session/open" and method == "POST":
            payload = await self._session_open(request)
        elif path.startswith("/v1/session/"):
            payload = await self._session_request(method, path, request)
        else:
            raise _HttpError(404, {"error": f"no route {method} {path}"})
        self._send(writer, 200, payload, None, keep)
        return None

    def _json_body(self, body: bytes) -> dict:
        if not body:
            return {}
        try:
            request = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, {"error": f"bad JSON body: {exc}"})
        if not isinstance(request, dict):
            raise _HttpError(400, {"error": "JSON body must be an object"})
        return request

    # -- compile-path endpoints -----------------------------------------

    def _entry(self, request: dict, registry, *, field: str = "source",
               top_field: str = "top"):
        source = request.get(field)
        if not isinstance(source, str):
            raise _HttpError(
                400, {"error": f"missing or non-string {field!r}"}
            )
        top = request.get(top_field)
        strict = bool(request.get("strict", True))
        try:
            return self.cache.get_or_compile(
                source, top, strict=strict, registry=registry
            )
        except ZeusError as exc:
            raise _HttpError(
                400, error_payload(exc, SourceText(source, "<request>"))
            ) from None

    async def _compile(self, request: dict, registry) -> dict:
        entry, hit = self._entry(request, registry)
        circuit = entry.circuit
        return {
            "design": {"name": circuit.name, **circuit.stats()},
            "key": entry.key,
            "cached": hit,
            "compile_s": entry.compile_s,
            "diagnostics": [
                {
                    "severity": d.severity.value,
                    "message": d.message,
                    "phase": d.phase,
                }
                for d in circuit.diagnostics.diagnostics
            ],
        }

    async def _lint(self, request: dict, registry) -> dict:
        from ..lint import LintConfig, run_lint

        entry, hit = self._entry(request, registry)
        config = LintConfig(werror=bool(request.get("werror", False)))
        report = await asyncio.to_thread(run_lint, entry.circuit, config)
        return {
            "cached": hit,
            "report": json.loads(report.render_json()),
            "exit_code": report.exit_code(),
        }

    async def _sim(self, request: dict, registry) -> dict:
        cycles = int(request.get("cycles", 8))
        if cycles < 0:
            raise _HttpError(400, {"error": "cycles must be >= 0"})
        pokes = request.get("pokes", [])
        watch = request.get("watch", [])
        seed = int(request.get("seed", 0))
        engine = str(request.get("engine", "auto"))
        if cycles > self.long_sim_cycles:
            # Long runs are real compute: shard them.
            return await self._pooled(
                jobs.sim_job,
                request.get("source", ""), request.get("top"),
                bool(request.get("strict", True)), cycles,
                [tuple(p) for p in pokes], list(watch), seed, engine,
                timeout=request.get("timeout"),
            )
        entry, hit = self._entry(request, registry)

        def run() -> dict:
            sim = entry.simulator(strict=False, seed=seed, engine=engine)
            plan = sorted(
                (int(c), str(p), v) for c, p, v in pokes
            )
            applied = 0
            for t in range(cycles):
                while applied < len(plan) and plan[applied][0] <= t:
                    sim.poke(plan[applied][1], plan[applied][2])
                    applied += 1
                sim.step()
            names = watch or [
                p.name for p in entry.circuit.netlist.ports
            ]
            return {
                "design": entry.circuit.name,
                "engine": sim.engine,
                "cached": hit,
                "cycles": cycles,
                "signals": {
                    path: [str(b) for b in sim.peek(path)]
                    for path in names
                },
                "violations": [
                    {"cycle": v.cycle, "net": v.net,
                     "values": [str(x) for x in v.values]}
                    for v in sim.violations
                ],
            }

        try:
            return await asyncio.to_thread(run)
        except (ZeusError, KeyError, ValueError) as exc:
            raise self._runtime_error(exc) from None

    async def _sim_stream(self, request: dict, writer, keep: bool):
        """Chunked NDJSON: one line per cycle with the watched values,
        then a summary line -- a WebSocket-style live tail over plain
        HTTP/1.1 (curl -N shows cycles as they happen)."""
        cycles = int(request.get("cycles", 8))
        watch = request.get("watch", [])
        seed = int(request.get("seed", 0))
        engine = str(request.get("engine", "auto"))
        pokes = sorted(
            (int(c), str(p), v) for c, p, v in request.get("pokes", [])
        )
        entry, _hit = self._entry(request, None)
        try:
            sim = entry.simulator(strict=False, seed=seed, engine=engine)
            names = watch or [
                p.name for p in entry.circuit.netlist.ports
            ]
            for path in names:
                sim.nets_of(path)  # validate before the 200 goes out
        except (ZeusError, KeyError, ValueError) as exc:
            raise self._runtime_error(exc) from None

        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )

        def chunk(obj: dict) -> bytes:
            data = (json.dumps(obj, sort_keys=True) + "\n").encode()
            return f"{len(data):x}\r\n".encode() + data + b"\r\n"

        applied = 0
        for t in range(cycles):
            while applied < len(pokes) and pokes[applied][0] <= t:
                sim.poke(pokes[applied][1], pokes[applied][2])
                applied += 1
            await asyncio.to_thread(sim.step)
            writer.write(chunk({
                "cycle": t,
                "signals": {
                    path: [str(b) for b in sim.peek(path)]
                    for path in names
                },
            }))
            await writer.drain()
        writer.write(chunk({
            "done": True,
            "cycles": cycles,
            "violations": [
                {"cycle": v.cycle, "net": v.net,
                 "values": [str(x) for x in v.values]}
                for v in sim.violations
            ],
        }))
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return "close"

    # -- pool endpoints --------------------------------------------------

    async def _pooled(self, fn, /, *args, timeout=None):
        try:
            return await self.pool.run(
                fn, *args,
                timeout=float(timeout) if timeout is not None else None,
            )
        except PoolSaturated as exc:
            raise _HttpError(
                503,
                {"error": str(exc), "retry_after": exc.retry_after},
                {"Retry-After": f"{max(1, round(exc.retry_after))}"},
            ) from None
        except PoolTimeout as exc:
            raise _HttpError(504, {"error": str(exc)}) from None
        except ZeusError as exc:
            raise _HttpError(400, error_payload(exc)) from None

    def _source_of(self, request: dict, field: str = "source") -> str:
        source = request.get(field)
        if not isinstance(source, str):
            raise _HttpError(
                400, {"error": f"missing or non-string {field!r}"}
            )
        return source

    async def _prove(self, request: dict) -> dict:
        return await self._pooled(
            jobs.prove_job,
            self._source_of(request), request.get("top"),
            bool(request.get("strict", True)),
            request.get("props"),
            int(request.get("depth", 8)),
            int(request.get("budget", 100_000)),
            bool(request.get("induction", True)),
            timeout=request.get("timeout"),
        )

    async def _equiv(self, request: dict) -> dict:
        return await self._pooled(
            jobs.equiv_job,
            self._source_of(request), request.get("top"),
            self._source_of(request, "source2"), request.get("top2"),
            bool(request.get("strict", True)),
            int(request.get("depth", 8)),
            int(request.get("budget", 100_000)),
            bool(request.get("induction", True)),
            timeout=request.get("timeout"),
        )

    async def _timing(self, request: dict) -> dict:
        return await self._pooled(
            jobs.timing_job,
            self._source_of(request), request.get("top"),
            bool(request.get("strict", True)),
            str(request.get("model", "unit")),
            request.get("clock"),
            int(request.get("paths", 4)),
            bool(request.get("sat", True)),
            int(request.get("budget", 20_000)),
            int(request.get("max_sat", 200)),
            timeout=request.get("timeout"),
        )

    # -- session endpoints ----------------------------------------------

    async def _session_open(self, request: dict) -> dict:
        source = self._source_of(request)
        top = request.get("top")
        strict = bool(request.get("strict", True))
        seed = int(request.get("seed", 0))
        engine = str(request.get("engine", "batched"))
        if engine not in ("batched", "codegen"):
            raise _HttpError(
                400, {"error": "session engine must be batched|codegen"}
            )
        key = cache_key(source, top, strict)
        state = self._muxes.get(key)
        if state is None:
            try:
                entry, _hit = self.cache.get_or_compile(
                    source, top, strict=strict
                )
            except ZeusError as exc:
                raise _HttpError(
                    400,
                    error_payload(exc, SourceText(source, "<request>")),
                ) from None
            mux = await asyncio.to_thread(
                LaneMux, entry.circuit,
                lanes=self.lanes, engine=engine, cache_entry=entry,
            )
            state = self._muxes.setdefault(key, _MuxState(mux))
        async with state.lock:
            try:
                session = state.mux.attach(seed)
            except SessionError as exc:
                raise _HttpError(
                    503, {"error": str(exc)}, {"Retry-After": "1"}
                ) from None
        sid = f"s{next(self._session_ids)}"
        self._sessions[sid] = (session, state)
        return {
            "session": sid,
            "design": state.mux.circuit.name,
            "lane": session.lane,
            "lanes": state.mux.lanes,
            "seed": seed,
        }

    def _session_of(self, sid: str):
        try:
            return self._sessions[sid]
        except KeyError:
            raise _HttpError(
                404, {"error": f"no session {sid!r}"}
            ) from None

    async def _session_request(
        self, method: str, path: str, request: dict
    ) -> dict:
        parts = path.split("/")  # ['', 'v1', 'session', sid, verb?]
        sid = parts[3]
        verb = parts[4] if len(parts) > 4 else ""
        session, state = self._session_of(sid)

        if method == "DELETE" and not verb:
            async with state.lock:
                state.mux.detach(session)
            state.want.pop(session, None)
            del self._sessions[sid]
            return {"session": sid, "detached": True}

        if method == "GET" and not verb:
            return {
                "session": sid,
                "design": state.mux.circuit.name,
                "lane": session.lane,
                "cycle": session.cycle,
                "violations": len(session.violations),
            }

        if method != "POST":
            raise _HttpError(405, {"error": f"{method} not allowed here"})

        if verb == "poke":
            async with state.lock:
                try:
                    session.poke(
                        str(request.get("path", "")), request.get("value")
                    )
                except (ZeusError, KeyError, ValueError, TypeError) as exc:
                    raise self._runtime_error(exc) from None
            return {"session": sid, "poked": request.get("path")}

        if verb == "unpoke":
            async with state.lock:
                try:
                    session.unpoke(str(request.get("path", "")))
                except (ZeusError, KeyError, ValueError) as exc:
                    raise self._runtime_error(exc) from None
            return {"session": sid, "unpoked": request.get("path")}

        if verb == "peek":
            sig = str(request.get("path", ""))
            async with state.lock:
                try:
                    bits = session.peek(sig)
                    value = session.peek_int(sig)
                except (ZeusError, KeyError, ValueError) as exc:
                    raise self._runtime_error(exc) from None
            return {
                "session": sid,
                "path": sig,
                "bits": [str(b) for b in bits],
                "value": value,
                "cycle": session.cycle,
            }

        if verb == "registers":
            async with state.lock:
                regs = session.registers()
            return {
                "session": sid,
                "registers": {k: str(v) for k, v in regs.items()},
            }

        if verb == "step":
            cycles = int(request.get("cycles", 1))
            if cycles < 0:
                raise _HttpError(400, {"error": "cycles must be >= 0"})
            before = len(session.violations)
            await self._step_session(state, session, cycles)
            return {
                "session": sid,
                "cycle": session.cycle,
                "violations": [
                    {"cycle": v.cycle, "net": v.net,
                     "values": [str(x) for x in v.values]}
                    for v in session.violations[before:]
                ],
            }

        raise _HttpError(404, {"error": f"no session verb {verb!r}"})

    async def _step_session(self, state: _MuxState, session, cycles: int):
        """The coalescing stepper.  Every task adds its session's cycle
        debt to ``state.want``; the first task becomes the *stepper* and
        loops single-cycle bit-parallel passes over whichever sessions
        currently owe cycles (joiners coalesce into the running pass
        stream mid-flight); the others wait for their debt to drain.
        One pass moves every waiting session, so N concurrent steppers
        of one design cost one levelized pass per cycle, not N."""
        if cycles <= 0:
            return
        state.want[session] = state.want.get(session, 0) + cycles
        if state.stepping:
            while session in state.want:
                event = state.event
                await event.wait()
            return
        state.stepping = True
        try:
            while state.want:
                batch = {s: 1 for s in state.want}
                async with state.lock:
                    await asyncio.to_thread(state.mux.step_many, batch)
                # Charge only the sessions this pass moved: a session
                # that joined while it ran waits for the next pass, and
                # one detached meanwhile owes nothing.
                for s in batch:
                    if s in state.want:
                        state.want[s] -= 1
                        if state.want[s] <= 0:
                            del state.want[s]
                # Pulse the waiters, re-arm, then yield so joiners can
                # enqueue before the next pass.
                state.event.set()
                state.event = asyncio.Event()
                await asyncio.sleep(0)
        finally:
            state.stepping = False
            state.event.set()
            state.event = asyncio.Event()

    @staticmethod
    def _runtime_error(exc) -> _HttpError:
        if isinstance(exc, ZeusError):
            return _HttpError(400, error_payload(exc))
        what = exc.args[0] if exc.args else exc
        if isinstance(exc, KeyError) and not (
            isinstance(what, str) and " " in what
        ):
            what = f"unknown signal {what!r}"
        return _HttpError(400, {"error": str(what)})


def main(argv=None) -> int:
    """``python -m repro.service.server`` -- standalone entry point
    (the CLI's ``zeusc serve`` forwards here)."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="zeusd", description="Zeus compile-and-simulate daemon"
    )
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8471)
    ap.add_argument("--workers", type=int, default=None,
                    help="process-pool shards (default: one per CPU)")
    ap.add_argument("--lanes", type=int, default=16,
                    help="sim-session lanes per design (default 16)")
    ap.add_argument("--cache-size", type=int, default=128,
                    help="compile-cache capacity (default 128)")
    ap.add_argument("--max-queue", type=int, default=None,
                    help="pool backlog before shedding (default 2x workers)")
    ap.add_argument("--timeout", type=float, default=60.0,
                    help="per-request pool deadline in seconds")
    args = ap.parse_args(argv)

    daemon = ZeusDaemon(
        host=args.host, port=args.port, workers=args.workers,
        lanes=args.lanes, cache_size=args.cache_size,
        max_queue=args.max_queue, timeout=args.timeout,
    )

    async def _serve():
        await daemon.start()
        print(f"zeusd listening on http://{daemon.host}:{daemon.port}")
        try:
            await daemon.serve_forever()
        finally:
            await daemon.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
