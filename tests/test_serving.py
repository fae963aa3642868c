"""Serving subsystem: typed requests, daemon, client, shutdown.

The contracts pinned here are the ones the redesign promises:

- requests round-trip through canonical JSON and reject foreign
  schema versions and unknown fields with actionable errors;
- N concurrent identical requests coalesce onto exactly one compute
  (single-flight), and a warm repeat is a byte-identical memo hit;
- a served response is byte-identical to local execution through
  :mod:`repro.serving.execute`, across machines and backends;
- a live daemon subprocess shuts down cleanly on SIGTERM, draining
  in-flight sweeps so their journals end intact.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.machines import MachineSpecError
from repro.serving import execute as serving_execute
from repro.serving.client import ServerClient, ServerError
from repro.serving.requests import (
    SCHEMA_VERSION,
    CalibrateRequest,
    GemmRequest,
    RequestError,
    SchemaVersionError,
    SweepRequest,
    describe_schema,
    parse_request,
)
from repro.serving.server import ServiceError, SimulationService, create_server

REQUESTS = [
    GemmRequest(m=32, n=48, k=16, method="camp4", machine="sargantana",
                backend="analytic"),
    GemmRequest(m=8, n=8, k=8, blocking=(64, 128, 256)),
    SweepRequest(sizes=(32, 48), shapes=((8, 16, 24),),
                 methods=("camp8", "mmla"), machines=("a64fx", "sargantana"),
                 baseline="openblas-fp32"),
    SweepRequest(sizes=(32,), cores=(1, 4), strategy="tile2d"),
    CalibrateRequest(machines=("a64fx",), methods=("camp8",),
                     multicore=False),
]


class TestRequestRoundTrip:
    # Fixed ids: ids built from id(r) changed from run to run, so the
    # test names did too. These are the names the suite reported before.
    @pytest.mark.parametrize("request_", REQUESTS,
                             ids=["gemm-5120", "gemm-9728", "sweep-3904",
                                  "sweep-7296", "calibrate-8704"])
    def test_json_round_trip(self, request_):
        restored = type(request_).from_json(request_.to_json())
        assert restored == request_
        assert restored.to_json() == request_.to_json()

    def test_parse_request_dispatches_by_kind(self):
        for request_ in REQUESTS:
            assert parse_request(json.loads(request_.to_json())) == request_

    def test_payload_carries_version_and_kind(self):
        payload = json.loads(GemmRequest(m=1, n=1, k=1).to_json())
        assert payload["version"] == SCHEMA_VERSION
        assert payload["kind"] == "gemm"

    def test_foreign_schema_version_rejected(self):
        payload = json.loads(GemmRequest(m=1, n=1, k=1).to_json())
        payload["version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaVersionError) as excinfo:
            GemmRequest.from_payload(payload)
        assert "incompatible" in str(excinfo.value)
        assert excinfo.value.field == "version"

    def test_unknown_field_rejected(self):
        payload = json.loads(SweepRequest(sizes=(32,)).to_json())
        payload["sizzes"] = [64]
        with pytest.raises(RequestError) as excinfo:
            SweepRequest.from_payload(payload)
        assert "sizzes" in str(excinfo.value)
        assert excinfo.value.field == "sizzes"

    def test_unknown_machine_names_registry(self):
        with pytest.raises(RequestError) as excinfo:
            GemmRequest(m=8, n=8, k=8, machine="z80").validate()
        assert "unknown machine 'z80'" in str(excinfo.value)
        assert "a64fx" in str(excinfo.value)

    def test_analytic_rejects_custom_blocking(self):
        request = GemmRequest(m=8, n=8, k=8, backend="analytic",
                              blocking=(64, 128, 256))
        with pytest.raises(RequestError) as excinfo:
            request.validate()
        assert excinfo.value.field == "blocking"

    def test_baseline_conflicts_with_cores(self):
        request = SweepRequest(sizes=(32,), cores=(1, 2),
                               baseline="openblas-fp32")
        with pytest.raises(RequestError, match="baseline"):
            request.validate()

    def test_cache_key_tracks_request_content(self):
        a = GemmRequest(m=32, n=32, k=32)
        b = GemmRequest(m=32, n=32, k=33)
        assert a.cache_key() == GemmRequest(m=32, n=32, k=32).cache_key()
        assert a.cache_key() != b.cache_key()

    def test_schema_describes_all_kinds(self):
        schema = describe_schema()
        assert schema["version"] == SCHEMA_VERSION
        assert set(schema["kinds"]) == {"gemm", "sweep", "calibrate"}
        assert "m" in schema["kinds"]["gemm"]["fields"]


class TestSingleFlight:
    def test_concurrent_identical_requests_compute_once(self, monkeypatch):
        """N in-flight identical requests -> 1 compute, N-1 followers."""
        service = SimulationService(journal_sweeps=False)
        release = threading.Event()
        concurrency = 6

        def slow_execute(request, **kwargs):
            assert release.wait(30), "test never released the leader"
            return {"kind": request.KIND, "result": {"ok": True}}

        monkeypatch.setattr(serving_execute, "execute", slow_execute)
        payload = json.loads(GemmRequest(m=8, n=8, k=8).to_json())
        bodies = [None] * concurrency

        def post(i):
            bodies[i] = service.handle(dict(payload))

        threads = [threading.Thread(target=post, args=(i,))
                   for i in range(concurrency)]
        for thread in threads:
            thread.start()
        # the leader is parked on `release`, so every follower reaches
        # the flight table and registers as a dedup hit before the
        # computation is allowed to finish — provably in-flight
        deadline = time.time() + 30
        while service.counters["dedup_hits"] < concurrency - 1:
            assert time.time() < deadline, "followers never coalesced"
            time.sleep(0.01)
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert service.counters["computes"] == 1
        assert service.counters["dedup_hits"] == concurrency - 1
        assert service.counters["memo_hits"] == 0
        assert len(set(bodies)) == 1

    def test_leader_error_propagates_to_followers(self, monkeypatch):
        service = SimulationService(journal_sweeps=False)
        release = threading.Event()

        def failing_execute(request, **kwargs):
            assert release.wait(30)
            raise RuntimeError("leader exploded")

        monkeypatch.setattr(serving_execute, "execute", failing_execute)
        payload = json.loads(GemmRequest(m=8, n=8, k=8).to_json())
        errors = []

        def post():
            try:
                service.handle(dict(payload))
            except ServiceError as error:
                errors.append(error)

        threads = [threading.Thread(target=post) for _ in range(3)]
        for thread in threads:
            thread.start()
        deadline = time.time() + 30
        while service.counters["dedup_hits"] < 2:
            assert time.time() < deadline
            time.sleep(0.01)
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert len(errors) == 3
        assert all(e.status == 500 for e in errors)
        # a failed flight must not poison the key: the next identical
        # request recomputes instead of replaying the error
        monkeypatch.setattr(
            serving_execute, "execute",
            lambda request, **kwargs: {"ok": True},
        )
        assert service.handle(dict(payload)) == b'{"ok":true}'

    def test_concurrent_sweeps_compute_each_point_once(self):
        """Real sweep: concurrent identical requests, one compute,
        every grid point computed exactly once."""
        service = SimulationService(journal_sweeps=False)
        request = SweepRequest(sizes=(16, 24), methods=("camp8",),
                               machines=("a64fx",))
        payload = json.loads(request.to_json())
        concurrency = 4
        bodies = [None] * concurrency

        def post(i):
            bodies[i] = service.handle(dict(payload))

        threads = [threading.Thread(target=post, args=(i,))
                   for i in range(concurrency)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert service.counters["computes"] == 1
        assert (service.counters["dedup_hits"]
                + service.counters["memo_hits"]) == concurrency - 1
        assert service.counters["points_computed"] == 2
        assert len(set(bodies)) == 1
        records = json.loads(bodies[0])["result"]["records"]
        assert len(records) == 2

    def test_warm_repeat_is_byte_identical_memo_hit(self):
        service = SimulationService(journal_sweeps=False)
        payload = json.loads(
            GemmRequest(m=32, n=32, k=32).to_json())
        first = service.handle(dict(payload))
        second = service.handle(dict(payload))
        assert first == second
        assert service.counters["computes"] == 1
        assert service.counters["memo_hits"] == 1

    def test_source_edit_is_never_served_stale(self, tmp_path, monkeypatch):
        from repro.experiments import cache as cache_module

        tree = tmp_path / "repro"
        (tree / "sub").mkdir(parents=True)
        (tree / "__init__.py").write_text("")
        (tree / "sub" / "module.py").write_text("value = 1\n")
        monkeypatch.setattr(cache_module, "SOURCE_ROOT", tree)
        service = SimulationService(journal_sweeps=False)
        payload = json.loads(GemmRequest(m=8, n=8, k=8).to_json())
        service.handle(dict(payload))
        service.handle(dict(payload))
        assert service.counters["computes"] == 1
        assert service.counters["memo_hits"] == 1
        # every request re-checks the tree, so a nested edit re-keys it
        (tree / "sub" / "module.py").write_text("value = 22\n")
        service.handle(dict(payload))
        assert service.counters["computes"] == 2
        assert service.counters["memo_hits"] == 1


@pytest.fixture()
def live_server():
    server = create_server(host="127.0.0.1", port=0, warm=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServerClient("http://%s:%d" % (host, port), timeout_s=120)
    try:
        yield client, server.service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestServerVsLocal:
    @pytest.mark.parametrize("machine", ["a64fx", "sargantana"])
    @pytest.mark.parametrize("backend", ["simulate", "analytic"])
    def test_gemm_byte_identical(self, live_server, machine, backend):
        client, _service = live_server
        request = GemmRequest(m=32, n=32, k=32, method="camp8",
                              machine=machine, backend=backend)
        served = client.post_raw(request)
        local = json.dumps(serving_execute.gemm_response(request),
                           sort_keys=True, separators=(",", ":")).encode()
        assert served == local

    @pytest.mark.parametrize("machine", ["a64fx", "sargantana"])
    @pytest.mark.parametrize("backend", ["simulate", "analytic"])
    def test_sweep_records_byte_identical(self, live_server, machine,
                                          backend):
        client, _service = live_server
        request = SweepRequest(sizes=(16, 24), methods=("camp8",),
                               machines=(machine,), backend=backend)
        served = client.sweep(request)["result"]["records"]
        local = serving_execute.sweep_response(request)["result"]["records"]
        encode = lambda records: json.dumps(  # noqa: E731
            records, sort_keys=True, separators=(",", ":")).encode()
        assert encode(served) == encode(local)

    def test_streamed_sweep_reports_progress_and_same_result(
            self, live_server):
        client, _service = live_server
        request = SweepRequest(sizes=(16, 24), methods=("camp8",),
                               machines=("a64fx",))
        events = []

        def on_point(done, total, point_id, status, elapsed_s):
            events.append((done, total, point_id, status))

        streamed = client.sweep(request, on_point=on_point)
        plain = client.sweep(request)
        assert streamed == plain
        assert [e[0] for e in events] == [1, 2]
        assert all(e[1] == 2 for e in events)

    def test_server_errors_map_to_local_exception_types(self, live_server):
        client, _service = live_server
        with pytest.raises(RequestError) as excinfo:
            client.gemm(GemmRequest(m=8, n=8, k=8, machine="nope"))
        assert "unknown machine 'nope'" in str(excinfo.value)
        payload = json.loads(GemmRequest(m=8, n=8, k=8).to_json())
        payload["version"] = 99
        with pytest.raises(SchemaVersionError):
            client._open("/v1/gemm", payload)
        with pytest.raises(RequestError) as excinfo:
            client._open("/v1/gemm", {"kind": "gemm",
                                      "version": SCHEMA_VERSION,
                                      "m": "8", "n": 8, "k": 8})
        assert excinfo.value.field == "m"
        # a structured "machine" payload resurfaces as the machine
        # layer's own exception type
        from repro.serving.client import _raise_for_error

        with pytest.raises(MachineSpecError):
            _raise_for_error(400, {"error": {"type": "machine",
                                             "message": "bad spec"}})

    def test_engine_mismatch_rejected(self, live_server):
        client, _service = live_server
        from repro.simulator.engine import get_default_engine

        other = "scalar" if get_default_engine() == "batch" else "batch"
        with pytest.raises(RequestError) as excinfo:
            client.gemm(GemmRequest(m=8, n=8, k=8, engine=other))
        assert "--engine %s" % other in str(excinfo.value)

    def test_observability_endpoints(self, live_server):
        client, service = live_server
        assert client.health()["status"] == "ok"
        assert client.schema()["version"] == SCHEMA_VERSION
        names = [m["name"] for m in client.machines()["machines"]]
        assert "a64fx" in names
        client.post_raw(GemmRequest(m=16, n=16, k=16))
        stats = client.stats()
        assert stats["requests"]["computes"] >= 1
        assert stats["engine"] in ("batch", "scalar")

    def test_unreachable_server_is_operational_error(self):
        client = ServerClient("http://127.0.0.1:9", timeout_s=2)
        with pytest.raises(ServerError, match="cannot reach server"):
            client.health()


class TestCliServerFlag:
    def test_gemm_output_identical_with_and_without_server(
            self, live_server, capsys):
        from repro.cli import main

        client, _service = live_server
        argv = ["gemm", "32", "32", "32", "--method", "camp8"]
        assert main(argv) == 0
        local_out = capsys.readouterr().out
        assert main(argv + ["--server", client.base_url]) == 0
        served_out = capsys.readouterr().out
        assert served_out == local_out
        assert "cycles" in local_out

    def test_sweep_json_identical_with_and_without_server(
            self, live_server, capsys):
        from repro.cli import main

        client, _service = live_server
        argv = ["sweep", "--sizes", "16,24", "--methods", "camp8",
                "--format", "json"]
        assert main(argv + ["--no-cache"]) == 0
        local_out = capsys.readouterr().out
        assert main(argv + ["--server", client.base_url]) == 0
        served_out = capsys.readouterr().out
        assert json.loads(served_out)[0]["records"] == \
            json.loads(local_out)[0]["records"]

    def test_unreachable_server_exits_1(self, capsys):
        from repro.cli import main

        assert main(["gemm", "8", "8", "8",
                     "--server", "http://127.0.0.1:9"]) == 1
        assert "server error" in capsys.readouterr().err

    def test_server_side_request_error_exits_2(self, live_server, capsys):
        from repro.cli import main

        client, _service = live_server
        assert main(["gemm", "8", "8", "8", "--machine", "z80",
                     "--server", client.base_url]) == 2
        err = capsys.readouterr().err
        assert "unknown machine 'z80'" in err


class TestBenchServe:
    def test_bench_and_gate(self, tmp_path, capsys, monkeypatch):
        """The CI harness end to end on a tiny grid: payload written,
        acceptance gate (>= 20x warm speedup, byte identity, exact
        single-flight dedup) passes against its own baseline."""
        from repro.cli import main
        from repro.experiments import bench_serve

        monkeypatch.setattr(bench_serve, "BENCH_GEMM",
                            {"m": 32, "n": 32, "k": 32, "method": "camp8",
                             "machine": "a64fx"})
        monkeypatch.setattr(bench_serve, "BENCH_SWEEP",
                            {"sizes": (16, 24), "methods": ("camp8",),
                             "machines": ("a64fx",)})
        monkeypatch.setattr(bench_serve, "WARM_REQUESTS", 4)
        monkeypatch.setattr(bench_serve, "CONCURRENCY", 3)
        out_path = tmp_path / "BENCH_serve.json"
        assert main(["bench-serve", "--repeats", "1",
                     "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["byte_identical"]
        assert payload["dedup"]["computes"] == 1
        assert payload["dedup"]["points_computed"] == 2
        assert payload["dedup"]["coalesced"]
        assert payload["warm"]["speedup_p50"] >= 20
        assert main(["bench-serve", "--repeats", "1",
                     "--out", "", "--check", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "bench-serve gate passed" in out

    def test_check_regression_flags_problems(self):
        from repro.experiments import bench

        payload = {
            "cli_one_shot_s": 1.0,
            "cold_start_s": 0.5,
            "warm": {"speedup_p50": 3.0, "p50_s": 0.33},
            "byte_identical": False,
            "dedup": {"concurrency": 4, "computes": 2, "followers": 1,
                      "memo_hits": 0, "identical": True,
                      "coalesced": False},
        }
        problems = bench.check("serve", payload, {"cold_start_s": 0.5})
        assert any("only 3.0x" in p for p in problems)
        assert any("byte-identical" in p for p in problems)
        assert any("single-flight" in p for p in problems)
        assert any("coalesced followers" in p for p in problems)


class TestDaemonLifecycle:
    def _spawn(self, tmp_path, extra_env=None):
        import repro

        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "serve-cache"))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [src_root, env.get("PYTHONPATH")] if p)
        env.update(extra_env or {})
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--no-warm"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            text=True,
        )
        banner = process.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        assert match, "no listening banner, got %r (stderr: %s)" % (
            banner, process.stderr.read() if process.poll() else "")
        return process, int(match.group(1))

    def test_sigterm_drains_inflight_sweep_and_keeps_journal(self, tmp_path):
        """SIGTERM mid-sweep: the daemon finishes the in-flight request
        before exiting, and the served sweep's journal ends intact."""
        process, port = self._spawn(
            tmp_path,
            extra_env={"REPRO_EXECUTOR_POINT_DELAY_S": "0.3"},
        )
        try:
            client = ServerClient("http://127.0.0.1:%d" % port,
                                  timeout_s=120)
            request = SweepRequest(sizes=(16, 24), methods=("camp8",),
                                   machines=("a64fx",))
            first_point = threading.Event()
            outcome = {}

            def on_point(done, total, point_id, status, elapsed_s):
                first_point.set()

            def post():
                try:
                    outcome["response"] = client.sweep(request,
                                                       on_point=on_point)
                except Exception as error:  # noqa: BLE001 — asserted below
                    outcome["error"] = error

            poster = threading.Thread(target=post)
            poster.start()
            assert first_point.wait(60), "sweep never started streaming"
            process.send_signal(signal.SIGTERM)  # mid-sweep
            poster.join(timeout=120)
            stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        assert "shut down cleanly" in stdout
        assert "error" not in outcome, outcome.get("error")
        records = outcome["response"]["result"]["records"]
        assert len(records) == 2
        # the journal the served sweep wrote survived the shutdown and
        # is finished (not a torn write)
        from repro.experiments import executor

        root = tmp_path / "serve-cache"
        runs = executor.list_runs(root=str(root))
        serve_runs = [r for r in runs if r["run_id"].startswith("serve-")]
        assert len(serve_runs) == 1
        assert serve_runs[0]["done"]
        assert serve_runs[0]["points"] == 2

    def test_completed_request_then_sigterm_exits_zero(self, tmp_path):
        process, port = self._spawn(tmp_path)
        try:
            client = ServerClient("http://127.0.0.1:%d" % port, timeout_s=120)
            body = client.post_raw(GemmRequest(m=16, n=16, k=16))
            assert json.loads(body)["result"]["cycles"] > 0
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        assert "shut down cleanly" in stdout
        assert "1 requests, 1 computes" in stdout
