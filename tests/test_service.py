"""The zeusd service layer: compile cache, process-pool shards, lane
sessions / the session multiplexer, the HTTP daemon end to end, the
thread-safety of the compile path, and the CLI's structured JSON
errors.

The differential heart is session isolation: a lane-multiplexed
session on one shared batched simulator must be *bit-identical* --
peeks, registers, violations, RANDOM streams -- to an isolated scalar
run with the session's seed, no matter how other sessions interleave
or detach around it.
"""

import asyncio
import json
import re
import threading
import time

import pytest

import repro
from repro.cli import main as cli_main
from repro.core.simulator import Simulator
from repro.obs import spans as _spans
from repro.obs import validate_report
from repro.service import (
    CompileCache,
    LaneMux,
    PoolSaturated,
    PoolTimeout,
    SessionError,
    ShardPool,
    ZeusClient,
    cache_key,
    serve_in_thread,
)
from repro.service.server import ZeusDaemon, _HttpError, _MuxState
from repro.stdlib.programs import ALL_PROGRAMS

HALF = """
TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS
BEGIN
    s := XOR(a,b);
    cout := AND(a,b)
END;
SIGNAL h: halfadder;
"""

CONFLICT = """
TYPE t = COMPONENT (IN a, b: boolean; OUT y: boolean) IS
SIGNAL p: boolean;
BEGIN
    IF a THEN p := 1 END;
    IF b THEN p := 0 END;
    y := p
END;
SIGNAL u: t;
"""

BLACKJACK = ALL_PROGRAMS["blackjack"]

# A shift register of RANDOM bits: its state after n cycles depends on
# the seed and on n exactly.
RANDOM_SHIFT = """
TYPE t = COMPONENT (OUT y: boolean) IS
SIGNAL r0, r1, r2: REG;
BEGIN
    r0.in := RANDOM();
    r1.in := r0.out;
    r2.in := r1.out;
    y := r2.out
END;
SIGNAL u: t;
"""


def run_cli(argv, capsys):
    code = cli_main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- the content-hash compile cache --------------------------------------


class TestCompileCache:
    def test_key_covers_every_compile_input(self):
        base = cache_key(HALF)
        assert cache_key(HALF) == base
        assert cache_key(HALF + " ") != base
        assert cache_key(HALF, top="h") != base
        assert cache_key(HALF, strict=False) != base

    def test_hit_returns_same_objects(self):
        cache = CompileCache(capacity=4)
        entry, hit = cache.get_or_compile(HALF)
        assert not hit
        again, hit = cache.get_or_compile(HALF)
        assert hit
        assert again is entry
        assert again.circuit is entry.circuit

    def test_schedule_captured_once_and_shared(self):
        cache = CompileCache(capacity=4)
        entry, _ = cache.get_or_compile(HALF)
        sim1 = entry.simulator(engine="levelized")
        sim2 = entry.simulator(engine="batched", lanes=4)
        assert sim1._schedule is not None
        assert sim2._schedule is sim1._schedule
        # ... and the shared schedule still computes correctly.
        sim2.poke("a", 1)
        sim2.poke("b", 1)
        sim2.step()
        assert str(sim2.peek_bit("cout")) == "1"

    def test_lru_eviction(self):
        cache = CompileCache(capacity=2)
        cache.get_or_compile(HALF)
        cache.get_or_compile(CONFLICT, strict=False)
        cache.get_or_compile(HALF)  # freshen HALF
        cache.get_or_compile(BLACKJACK, "bj", strict=False)  # evicts CONFLICT
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        _, hit = cache.get_or_compile(HALF)
        assert hit
        _, hit = cache.get_or_compile(CONFLICT, strict=False)
        assert not hit  # was evicted

    def test_compile_errors_are_not_cached(self):
        cache = CompileCache(capacity=4)
        for _ in range(2):
            with pytest.raises(repro.ZeusError):
                cache.get_or_compile("SIGNAL h: nosuch;")
        assert len(cache) == 0
        assert cache.stats()["misses"] == 2

    def test_hit_rate(self):
        cache = CompileCache(capacity=4)
        cache.get_or_compile(HALF)
        cache.get_or_compile(HALF)
        cache.get_or_compile(HALF)
        assert cache.stats()["hit_rate"] == pytest.approx(2 / 3)


# -- compile-path thread safety (the concurrency audit's regression) -----


def _corpus_fingerprint():
    """Compile the whole stdlib corpus and fingerprint every output
    that could betray cross-compile interference."""
    out = {}
    for name in sorted(ALL_PROGRAMS):
        circuit = repro.compile_text(
            ALL_PROGRAMS[name], name=name, strict=False
        )
        out[name] = (
            circuit.name,
            circuit.netlist.describe(),
            tuple(sorted(circuit.netlist.stats().items())),
            tuple(sorted(circuit.netlist.signals)),
            tuple(
                d.render(circuit.design.source)
                for d in circuit.diagnostics.diagnostics
            ),
        )
    return out


class TestConcurrentCompile:
    def test_eight_threads_identical_to_serial(self):
        serial = _corpus_fingerprint()
        results = [None] * 8
        errors = []

        def worker(i):
            try:
                results[i] = _corpus_fingerprint()
            except Exception as exc:  # pragma: no cover - the failure
                errors.append((i, exc))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i, got in enumerate(results):
            assert got == serial, f"thread {i} diverged from serial"

    def test_shared_registry_nesting_survives_threads(self):
        # All threads record into ONE shared registry; the open-span
        # stack is context-local, so no thread ever sees another's
        # nesting (previously this corrupted span paths/depths).
        registry = _spans.SpanRegistry()

        def worker():
            with _spans.use_registry(registry):
                for _ in range(5):
                    repro.compile_text(HALF)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        compiles = [s for s in registry.spans if s.name == "compile"]
        assert len(compiles) == 40
        # Every compile span is a root span in its own context.
        assert all(s.depth == 0 and s.path == "compile" for s in compiles)
        parses = [s for s in registry.spans if s.name == "parse"]
        assert all(s.path == "compile/parse" for s in parses)


# -- the core lane-session primitives ------------------------------------


def _scalar_ref(circuit, seed, cycles, pokes=()):
    sim = Simulator(
        circuit.design, strict=False, seed=seed, engine="levelized"
    )
    for path, value in pokes:
        sim.poke(path, value)
    sim.step(cycles)
    return sim


@pytest.mark.parametrize("engine", ["batched", "codegen"])
class TestStepLanes:
    def test_interleaved_lanes_match_scalar(self, engine):
        circuit = repro.compile_text(BLACKJACK, "bj", strict=False)
        sim = Simulator(
            circuit.design, strict=False, engine=engine, lanes=8
        )
        seeds = {0: 11, 1: 22, 2: 33}
        for lane, seed in seeds.items():
            sim.reset_lane(lane, seed=seed)
        sim.step_lanes([0], 5)
        sim.step_lanes([1], 2)
        sim.step_lanes([0, 2], 2)
        sim.step_lanes([1], 5)
        sim.step_lanes([2], 5)
        # all three lanes have now run 7 cycles
        for lane, seed in seeds.items():
            ref = _scalar_ref(circuit, seed, 7)
            assert sim.peek_lane("bj.ycard", lane) == ref.peek("bj.ycard")
            assert sim.registers(lane=lane) == ref.registers()

    def test_frozen_lane_rng_does_not_advance(self, engine):
        circuit = repro.compile_text(BLACKJACK, "bj", strict=False)
        sim = Simulator(
            circuit.design, strict=False, engine=engine, lanes=4
        )
        sim.reset_lane(0, seed=7)
        sim.reset_lane(1, seed=7)
        # Lane 1 sits frozen through 20 of lane 0's passes; identical
        # seeds must still produce identical streams afterwards.
        sim.step_lanes([0], 20)
        sim.step_lanes([1], 20)
        assert sim.peek_lane("bj.ycard", 1) == sim.peek_lane("bj.ycard", 0)
        assert sim.registers(lane=1) == sim.registers(lane=0)

    def test_poke_lane_is_lane_local(self, engine):
        circuit = repro.compile_text(HALF)
        sim = Simulator(
            circuit.design, strict=False, engine=engine, lanes=4
        )
        sim.poke_lane("a", 0, 1)
        sim.poke_lane("b", 0, 1)
        sim.poke_lane("a", 1, 1)
        sim.poke_lane("b", 1, 0)
        sim.step_lanes([0, 1], 1)
        assert str(sim.peek_lane("cout", 0)[0]) == "1"
        assert str(sim.peek_lane("cout", 1)[0]) == "0"
        sim.unpoke_lane("a", 0)
        sim.step_lanes([0], 1)
        assert str(sim.peek_lane("cout", 0)[0]) == "UNDEF"
        # lane 1's poke survived lane 0's unpoke
        sim.step_lanes([1], 1)
        assert str(sim.peek_lane("cout", 1)[0]) == "0"

    def test_violations_only_on_active_lanes(self, engine):
        circuit = repro.compile_text(CONFLICT, strict=False)
        sim = Simulator(
            circuit.design, strict=False, engine=engine, lanes=4
        )
        for lane in (0, 1):
            sim.poke_lane("a", lane, 1)
            sim.poke_lane("b", lane, 1)
        fresh = sim.step_lanes([0], 1)
        assert [v.lane for v in fresh] == [0]
        assert [v.lane for v in sim.violations] == [0]
        # the frozen conflicted lane fires when IT steps
        fresh = sim.step_lanes([1], 1)
        assert [v.lane for v in fresh] == [1]

    def test_reset_lane_scrubs_state(self, engine):
        circuit = repro.compile_text(HALF)
        sim = Simulator(
            circuit.design, strict=False, engine=engine, lanes=4
        )
        sim.poke_lane("a", 2, 1)
        sim.poke_lane("b", 2, 1)
        sim.step_lanes([2], 1)
        assert str(sim.peek_lane("cout", 2)[0]) == "1"
        sim.reset_lane(2)
        sim.step_lanes([2], 1)
        assert str(sim.peek_lane("cout", 2)[0]) == "UNDEF"


class TestStepLanesContract:
    def test_scalar_engines_reject_lane_sessions(self):
        circuit = repro.compile_text(HALF)
        sim = Simulator(circuit.design, engine="levelized")
        with pytest.raises(repro.SimulationError, match="lane sessions"):
            sim.reset_lane(0)
        with pytest.raises(repro.SimulationError):
            sim.step_lanes([0], 1)
        needs = "needs engine='batched' or 'codegen' (this simulator runs"
        for call in (
            lambda: sim.poke_lanes("a", [1]),
            lambda: sim.peek_lanes("a"),
            lambda: sim.peek_lane("a", 0),
        ):
            with pytest.raises(repro.SimulationError, match=re.escape(needs)):
                call()
        needs = "register lanes need engine='batched' or 'codegen'"
        with pytest.raises(ValueError, match=re.escape(needs)):
            sim.registers(lane=1)

    def test_bad_lane_rejected(self):
        circuit = repro.compile_text(HALF)
        sim = Simulator(circuit.design, engine="batched", lanes=4)
        with pytest.raises(ValueError, match="out of range"):
            sim.reset_lane(4)
        with pytest.raises(ValueError):
            sim.step_lanes([9], 1)

    def test_strict_raises_on_active_lane_conflict(self):
        circuit = repro.compile_text(CONFLICT, strict=False)
        sim = Simulator(
            circuit.design, strict=True, engine="batched", lanes=4
        )
        sim.poke_lane("a", 1, 1)
        sim.poke_lane("b", 1, 1)
        sim.step_lanes([0], 1)  # conflicted lane frozen: no raise
        with pytest.raises(repro.SimulationError, match="lane 1"):
            sim.step_lanes([1], 1)


# -- the session multiplexer ---------------------------------------------


class TestLaneMux:
    @pytest.mark.parametrize("engine", ["batched", "codegen"])
    def test_session_engine_names_run_the_lane_kernel(self, engine):
        """Both session engine names open the one compiled lane
        engine; any other name is a 400."""
        daemon = ZeusDaemon(workers=1)
        body = asyncio.run(
            daemon._session_open({"source": HALF, "engine": engine})
        )
        _session, state = daemon._sessions[body["session"]]
        assert state.mux.sim.engine == "codegen"
        assert state.mux.sim._cg is not None
        with pytest.raises(_HttpError, match="batched|codegen"):
            asyncio.run(
                daemon._session_open({"source": HALF, "engine": "levelized"})
            )

    def test_sessions_bit_identical_to_scalar(self):
        circuit = repro.compile_text(BLACKJACK, "bj", strict=False)
        mux = LaneMux(circuit, lanes=8)
        seeds = [101, 202, 303, 404]
        sessions = [mux.attach(seed) for seed in seeds]
        refs = [
            Simulator(
                circuit.design, strict=False, seed=seed,
                engine="levelized",
            )
            for seed in seeds
        ]
        # Interleave: lockstep rounds, ragged rounds, solo steps --
        # compare the full per-cycle RANDOM-driven stream each time.
        plan = [
            {0: 1, 1: 1, 2: 1, 3: 1},
            {0: 2, 2: 3},
            {1: 4, 3: 1},
            {0: 2, 1: 1, 2: 2, 3: 4},
        ]
        for round_ in plan:
            mux.step_many(
                {sessions[i]: n for i, n in round_.items()}
            )
            for i, n in round_.items():
                refs[i].step(n)
            for i in range(4):
                assert (
                    sessions[i].peek("bj.ycard")
                    == refs[i].peek("bj.ycard")
                )
                assert sessions[i].registers() == refs[i].registers()
        for i in range(4):
            assert sessions[i].cycle == refs[i].cycle

    def test_detach_mid_run_does_not_perturb_neighbors(self):
        circuit = repro.compile_text(BLACKJACK, "bj", strict=False)
        mux = LaneMux(circuit, lanes=4)
        keep = mux.attach(1)
        victim = mux.attach(2)
        other = mux.attach(3)
        mux.step_many({keep: 3, victim: 3, other: 3})
        victim.detach()
        mux.step_many({keep: 4, other: 2})
        ref_keep = _scalar_ref(circuit, 1, 7)
        ref_other = _scalar_ref(circuit, 3, 5)
        assert keep.peek("bj.ycard") == ref_keep.peek("bj.ycard")
        assert keep.registers() == ref_keep.registers()
        assert other.peek("bj.ycard") == ref_other.peek("bj.ycard")
        assert other.registers() == ref_other.registers()
        # the vacated lane is leased out fresh
        fresh = mux.attach(2)
        assert fresh.lane == victim.lane
        mux.step_many({fresh: 3})
        ref_fresh = _scalar_ref(circuit, 2, 3)
        assert fresh.peek("bj.ycard") == ref_fresh.peek("bj.ycard")

    def test_violations_restamped_into_session_frame(self):
        circuit = repro.compile_text(CONFLICT, strict=False)
        mux = LaneMux(circuit, lanes=4)
        clean = mux.attach(0)
        dirty = mux.attach(0)
        mux.step_many({clean: 3})  # desynchronize the shared cycle
        dirty.poke("a", 1)
        dirty.poke("b", 1)
        mux.step_many({dirty: 2, clean: 2})
        ref = _scalar_ref(circuit, 0, 2, pokes=[("a", 1), ("b", 1)])
        assert [(v.cycle, v.net) for v in dirty.violations] == [
            (v.cycle, v.net) for v in ref.violations
        ]
        assert all(v.lane is None for v in dirty.violations)
        assert clean.violations == []

    def test_lane_exhaustion_and_reuse(self):
        circuit = repro.compile_text(HALF)
        mux = LaneMux(circuit, lanes=2)
        a = mux.attach(0)
        mux.attach(1)
        with pytest.raises(SessionError, match="no free lane"):
            mux.attach(2)
        a.detach()
        a.detach()  # idempotent
        c = mux.attach(3)
        assert c.lane == a.lane
        with pytest.raises(SessionError, match="detached"):
            a.peek("s")

    def test_detached_poke_rejected(self):
        circuit = repro.compile_text(HALF)
        mux = LaneMux(circuit, lanes=2)
        s = mux.attach(0)
        s.detach()
        with pytest.raises(SessionError):
            s.poke("a", 1)
        with pytest.raises(SessionError):
            mux.step_many({s: 1})


# -- the daemon's coalescing stepper -------------------------------------


class TestCoalescingStepper:
    def test_concurrent_steps_advance_exactly(self):
        """Two 10-cycle steps on one mux, gathered: the second joins
        while the first one's pass runs in a worker thread.  Each
        session must advance exactly 10 cycles, equal to a dataflow run
        with its seed."""
        circuit = repro.compile_text(RANDOM_SHIFT)
        daemon = ZeusDaemon(workers=1)
        state = _MuxState(LaneMux(circuit, lanes=4))
        seeds = (5, 9)
        sessions = [state.mux.attach(seed) for seed in seeds]

        async def step_both():
            await asyncio.gather(*(
                daemon._step_session(state, session, 10)
                for session in sessions
            ))

        asyncio.run(step_both())
        assert state.want == {}
        for session, seed in zip(sessions, seeds):
            ref = Simulator(
                circuit.design, strict=False, seed=seed, engine="dataflow"
            )
            ref.step(10)
            assert session.cycle == 10
            assert session.peek("u.y") == ref.peek("u.y")
            assert session.registers() == ref.registers()


# -- the process-pool shard layer ----------------------------------------


def _sleep_job(seconds):
    time.sleep(seconds)
    return seconds


def _square_job(x):
    return x * x


class TestShardPool:
    def test_roundtrip(self):
        pool = ShardPool(workers=1)
        try:
            assert pool.run_sync(_square_job, 9) == 81
            stats = pool.stats()
            assert stats["submitted"] == stats["completed"] == 1
        finally:
            pool.shutdown()

    def test_saturation_sheds_load(self):
        pool = ShardPool(workers=1, max_queue=0, retry_after=2.0)
        try:
            blocker = threading.Thread(
                target=lambda: pool.run_sync(_sleep_job, 1.5)
            )
            blocker.start()
            deadline = time.time() + 5
            while pool.pending < 1 and time.time() < deadline:
                time.sleep(0.01)
            with pytest.raises(PoolSaturated) as info:
                pool.run_sync(_square_job, 2)
            assert info.value.retry_after == 2.0
            assert pool.stats()["shed"] == 1
            blocker.join()
        finally:
            pool.shutdown()

    def test_timeout(self):
        pool = ShardPool(workers=1)
        try:
            with pytest.raises(PoolTimeout):
                pool.run_sync(_sleep_job, 10, timeout=0.2)
            assert pool.stats()["timeouts"] == 1
        finally:
            pool.shutdown()


# -- the daemon, end to end over HTTP ------------------------------------


@pytest.fixture(scope="module")
def daemon():
    with serve_in_thread(lanes=6, workers=2, timeout=120) as runner:
        yield runner


@pytest.fixture()
def client(daemon):
    c = ZeusClient(daemon.port)
    yield c
    c.close()


class TestHttpService:
    def test_health(self, client):
        status, body = client.health()
        assert status == 200
        assert body["status"] == "ok"
        assert body["version"] == repro.__version__

    def test_compile_cold_then_warm(self, client):
        assert client.request("POST", "/v1/cache/clear")[0] == 200
        status, body = client.compile(HALF)
        assert status == 200
        assert body["cached"] is False
        assert body["design"]["name"] == "h"
        status, warm = client.compile(HALF)
        assert status == 200
        assert warm["cached"] is True
        assert warm["key"] == body["key"]

    def test_compile_error_is_structured_400(self, client):
        status, body = client.compile("SIGNAL h: nosuch;")
        assert status == 400
        assert body["schema"] == "zeus.error/1"
        assert body["phase"] == "elaborate"
        assert body["position"]["line"] == 1

    def test_bad_json_body_400(self, client):
        status, body = client.request("POST", "/v1/compile")
        assert status == 400
        conn = client._conn
        conn.request("POST", "/v1/compile", b"{not json",
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        assert b"bad JSON" in response.read()

    def test_lint(self, client):
        status, body = client.lint(HALF)
        assert status == 200
        assert body["exit_code"] == 0
        assert body["report"]["schema"].startswith("zeus.lint/")

    def test_sim(self, client):
        status, body = client.sim(
            HALF, cycles=2, pokes=[[0, "a", 1], [0, "b", 1]]
        )
        assert status == 200
        assert body["signals"]["cout"] == ["1"]
        assert body["signals"]["s"] == ["0"]
        assert body["violations"] == []

    def test_sim_unknown_signal_400(self, client):
        status, body = client.sim(HALF, pokes=[[0, "zz", 1]])
        assert status == 400
        assert "zz" in body["error"]

    def test_prove(self, client):
        status, body = client.prove(HALF, depth=2, budget=20_000)
        assert status == 200
        assert body["report"]["verdict"] == "proved"
        assert body["exit_code"] == 0

    def test_timing(self, client):
        status, body = client.timing(HALF, sat=False)
        assert status == 200
        assert body["report"]["schema"].startswith("zeus.timing/")

    def test_stream(self, client):
        lines = list(client.stream_sim(
            HALF, cycles=3, pokes=[[0, "a", 1], [1, "b", 1]],
        ))
        assert len(lines) == 4
        assert [ln["cycle"] for ln in lines[:3]] == [0, 1, 2]
        assert lines[0]["signals"]["cout"] == ["UNDEF"]
        assert lines[2]["signals"]["cout"] == ["1"]
        assert lines[3]["done"] is True

    def test_session_isolation_over_http(self, client):
        circuit = repro.compile_text(BLACKJACK, "bj", strict=False)
        _, one = client.open_session(BLACKJACK, top="bj",
                                     strict=False, seed=5)
        _, two = client.open_session(BLACKJACK, top="bj",
                                     strict=False, seed=9)
        sid1, sid2 = one["session"], two["session"]
        assert one["lane"] != two["lane"]
        client.session(sid1, "step", {"cycles": 4})
        client.session(sid2, "step", {"cycles": 2})
        # detach session 1 mid-run; session 2 must be unperturbed
        assert client.close_session(sid1)[0] == 200
        status, body = client.session(sid2, "step", {"cycles": 3})
        assert status == 200
        assert body["cycle"] == 5
        ref = _scalar_ref(circuit, 9, 5)
        _, peek = client.session(sid2, "peek", {"path": "bj.ycard"})
        assert peek["bits"] == [str(b) for b in ref.peek("bj.ycard")]
        _, regs = client.session(sid2, "registers")
        assert regs["registers"] == {
            k: str(v) for k, v in ref.registers().items()
        }
        client.close_session(sid2)

    def test_session_404s(self, client):
        assert client.session("s999", "step", {})[0] == 404
        assert client.close_session("s999")[0] == 404
        status, _ = client.request("PUT", "/v1/session/open")
        assert status in (404, 405)

    def test_pool_saturation_returns_503(self, daemon, client):
        pool = daemon.daemon.pool
        before = pool.pending
        pool.pending = pool.workers + pool.max_queue
        try:
            status, body = client.prove(HALF, depth=1)
            assert status == 503
            assert "retry_after" in body
        finally:
            pool.pending = before
        assert daemon.daemon.stats()["requests"]["shed"] >= 1

    def test_metrics_report_validates(self, client):
        client.compile(HALF)
        client.compile(HALF)
        status, report = client.metrics()
        assert status == 200
        validate_report(report)
        service = report["service"]
        assert service["cache"]["hits"] >= 1
        assert 0.0 < service["cache"]["hit_rate"] <= 1.0
        assert service["requests"]["total"] >= 2
        assert any(
            key.startswith("POST /v1/compile")
            for key in service["requests"]["by_endpoint"]
        )
        # per-request spans folded into the daemon's recent-spans ring
        assert "compile" in report
        assert any(
            s["name"] == "request" for s in report["compile"]["spans"]
        )

    def test_unknown_route_404(self, client):
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("POST", "/v1/nope")[0] == 404


# -- CLI structured JSON errors (satellite 2) ----------------------------


class TestCliJsonErrors:
    @pytest.fixture()
    def bad_file(self, tmp_path):
        path = tmp_path / "bad.zeus"
        path.write_text("SIGNAL h: nosuch;\n")
        return str(path)

    @pytest.fixture()
    def unparsable_file(self, tmp_path):
        path = tmp_path / "nope.zeus"
        path.write_text("TYPE = = ;;\n")
        return str(path)

    def test_lint_json_error_payload(self, bad_file, capsys):
        code, out, err = run_cli(
            ["lint", bad_file, "--format", "json"], capsys
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["schema"] == "zeus.error/1"
        assert payload["phase"] == "elaborate"
        assert payload["type"] == "ElaborationError"
        assert payload["position"]["file"] == bad_file
        assert payload["position"]["line"] == 1
        assert "error:" in err

    def test_parse_error_payload(self, unparsable_file, capsys):
        code, out, _ = run_cli(
            ["timing", unparsable_file, "--format", "json"], capsys
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["schema"] == "zeus.error/1"
        assert payload["phase"] == "parse"

    def test_prove_json_error_payload(self, bad_file, capsys):
        code, out, _ = run_cli(
            ["prove", bad_file, "--format", "json"], capsys
        )
        assert code == 2
        assert json.loads(out)["schema"] == "zeus.error/1"

    def test_json_error_respects_output_file(self, bad_file, tmp_path,
                                             capsys):
        out_file = tmp_path / "err.json"
        code, _, _ = run_cli(
            ["lint", bad_file, "--format", "json", "-o", str(out_file)],
            capsys,
        )
        assert code == 2
        payload = json.loads(out_file.read_text())
        assert payload["schema"] == "zeus.error/1"

    def test_text_format_keeps_plain_stderr(self, bad_file, capsys):
        code, out, err = run_cli(["lint", bad_file], capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err
