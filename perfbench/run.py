"""The repository benchmark: four cold workloads, checked outputs, layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kernel-sweep --seed 1 --seconds 25
    python3 perfbench/run.py --workload kernel-sweep --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload's unit of work is repeated, each time in a fresh process with
an empty ``$REPRO_CACHE_DIR``, while another unit still fits in
``--seconds``, and every metric is the median over those units. ``--trace 1`` runs one
traced and one untraced unit and reports the per-layer metrics of the
traced one (see ``tracer.py``); their wall-time ratio is the tracing
overhead. Every run checks the program's outputs and exits non-zero,
after printing its result line, when any output is wrong.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md
for what each metric means on each workload.
"""

import argparse
import http.client
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

#: wall-clock cap on one child process (a run must end within 180 s)
CHILD_TIMEOUT_S = 150
#: set-up is sampled at least this many times per run
SETUP_SAMPLES = 9
#: serve-mixed runs at least this many daemon sessions per run
MIN_SESSIONS = 3

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("op_p50_ms", "ms"),
)

PER_LAYER = (
    ("build.s", "s"), ("build.calls", "count"), ("gemm.s", "s"),
    ("compile.s", "s"), ("trace_cache.hit_ratio", "ratio"),
    ("schedule.s", "s"), ("schedule.instructions", "count"),
    ("schedule.instr_per_s", "1/s"),
    ("memory.s", "s"), ("memory.lookup_s", "s"),
    ("memory.accesses", "count"), ("memory.accesses_per_s", "1/s"),
    ("memory.cache_inits", "count"), ("memory.cache_init_s", "s"),
    ("arbitration.s", "s"), ("fanout.s", "s"),
    ("fanout.worker_compiles", "count"), ("executor.wait_s", "s"),
    ("calibrate.s", "s"), ("calibrate.calls", "count"),
    ("orchestrate.self_s", "s"), ("cache_io.s", "s"),
    ("result_cache.hit_ratio", "ratio"),
    ("serve.s", "s"), ("serve.parse_s", "s"), ("serve.execute_s", "s"),
    ("serve.queue_ms", "ms"), ("serve.memo_hit_ratio", "ratio"),
    ("serve.dedup_hits", "count"),
    ("gc.s", "s"), ("gc.collections", "count"),
    ("gc.gen2_collections", "count"),
    ("unattributed_ratio", "ratio"), ("tracing_overhead_ratio", "ratio"),
)

#: layer groups the summary reports shares of, and the trace layers in each
SHARE_GROUPS = (
    ("schedule+compile+build", ("schedule", "compile", "build")),
    ("memory", ("memory", "memory.lookup", "memory.cache_init")),
    ("memory.lookup+arbitration", ("memory.lookup", "arbitration")),
    ("gc", ("gc",)),
)


class BenchError(Exception):
    """The checkout cannot be benchmarked (nothing is measured)."""


class Checkout:
    """Paths of the checkout under test and this run's working files."""

    def __init__(self, root, name):
        self.root = Path(root).resolve()
        self.src = self.root / "src"
        self.golden = self.root / "tests" / "golden"
        if not (self.src / "repro" / "__init__.py").is_file():
            raise BenchError("no repro package under %s" % self.src)
        if not self.golden.is_dir():
            raise BenchError("no golden records under %s" % self.golden)
        self.work = self.root / ".perfbench" / ("%s-%d" % (name, os.getpid()))
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self._serial = 0

    def fresh_dir(self, label):
        self._serial += 1
        path = self.work / ("%s-%d" % (label, self._serial))
        path.mkdir()
        return path

    def env(self, cache_dir):
        """Child environment: only this checkout's code, an empty cache."""
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.src)
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        return env

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run's working files are still there


class Child:
    """A child process whose whole tree's CPU and peak RSS are collected."""

    def __init__(self, command, env, cwd, stdout=subprocess.DEVNULL,
                 stderr_path=None):
        self.stderr = open(stderr_path, "wb") if stderr_path else None
        self.launched = time.monotonic()
        # its own process group, so a kill reaches its pool workers too
        self.proc = subprocess.Popen(
            command, env=env, cwd=cwd, stdout=stdout,
            stderr=self.stderr or subprocess.DEVNULL, start_new_session=True,
        )
        self.cpu_s = None
        self.peak_rss_mb = None

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait(self, timeout=CHILD_TIMEOUT_S):
        """Reap the child (killing it after ``timeout``); returns its code.

        ``os.wait4`` reports the child plus every descendant it reaped,
        so pool workers count; ``ru_maxrss`` is the largest of their
        peaks, in KiB on Linux.
        """
        if self.proc.returncode is not None:
            return self.proc.returncode
        timer = threading.Timer(timeout, self.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(self.proc.pid, 0)
        except BaseException:
            self.kill()
            os.waitpid(self.proc.pid, 0)
            raise
        finally:
            timer.cancel()
            if self.stderr is not None:
                self.stderr.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        return self.proc.returncode

    def stop(self, timeout=30):
        """SIGTERM, then SIGKILL after ``timeout``; always reaps."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.wait(timeout)


def _tail(path, lines=20):
    try:
        text = Path(path).read_text(errors="replace")
    except OSError:
        return ""
    return "\n".join(text.splitlines()[-lines:])


def median(values):
    return statistics.median(values) if values else None


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- batch workloads ---------------------------------------------------------


def run_unit(checkout, spec, label):
    """Launch ``unit.py`` with ``spec``; returns its measurements."""
    unit_dir = checkout.fresh_dir(label)
    cache_dir = unit_dir / "cache"
    cache_dir.mkdir()
    spec_path = unit_dir / "spec.json"
    out_path = unit_dir / "out.json"
    log = unit_dir / "stderr.log"
    spec_path.write_text(json.dumps(dict(spec, out=str(out_path))))
    child = Child([sys.executable, str(HERE / "unit.py"), str(spec_path)],
                  checkout.env(cache_dir), checkout.root, stderr_path=log)
    code = child.wait()
    try:
        if code != 0 or not out_path.exists():
            print("perfbench: %s unit exited %s:\n%s"
                  % (label, code, _tail(log)), file=sys.stderr)
            return None
        out = json.loads(out_path.read_text())
    finally:
        shutil.rmtree(unit_dir, ignore_errors=True)
    out["setup_s"] = out["ready"] - child.launched
    out["cpu_s"] = child.cpu_s
    out["peak_rss_mb"] = child.peak_rss_mb
    if "start" in out:
        out["run_s"] = out["end"] - out["start"]
    return out


def check_batch(name, seed, inputs, units, checkout, verdict):
    """Count wrong outputs of every unit; returns summary extras."""
    extras = {}
    if inputs["kind"] == "paper":
        for unit in units:
            problems = workloads.check_paper_records(unit["records"],
                                                     checkout.golden)
            verdict.failed += len(problems)
            for experiment, found in sorted(problems.items()):
                print("perfbench: %s drifted from golden: %s"
                      % (experiment, "; ".join(found[:3])), file=sys.stderr)
        first = units[0]["records"]
        extras.update(
            paper_speedup_rel_err=workloads.paper_speedup_rel_err(first),
            analytic_p95_err=workloads.analytic_p95_err(first))
        return extras
    # every unit must reproduce the first unit's records exactly ...
    first = [workloads.canonical(r) for r in units[0]["records"]]
    for unit in units[1:]:
        again = [workloads.canonical(r) for r in unit["records"]]
        verdict.failed += sum(a != b for a, b in zip(first, again))
        verdict.failed += abs(len(first) - len(again))
    # ... and a seeded sample must match the serial jobs=1 reference path
    points = workloads.reference_points(name, seed, inputs)
    ref = run_unit(checkout, {"mode": "reference", "points": points},
                   "reference")
    if ref is None:
        verdict.failed += len(points)
        return extras
    expected = {workloads.reference_key(r): workloads.canonical(r)
                for r in ref["records"]}
    for unit in units:
        live = {workloads.reference_key(r): workloads.canonical(r)
                for r in unit["records"]}
        for point in points:
            key = workloads.point_key(point)
            if key not in expected or live.get(key) != expected[key]:
                verdict.failed += 1
                print("perfbench: sweep point %s differs from the jobs=1 "
                      "reference" % (key,), file=sys.stderr)
    return extras


def _count_unit(unit, units, verdict):
    """Checked outputs are experiments or sweep points; a crash is one."""
    if unit is None:
        verdict.attempted += 1
        verdict.failed += 1
    else:
        verdict.attempted += len(unit["records"])
        units.append(unit)


def run_batch(name, args, checkout, verdict):
    inputs = workloads.batch_inputs(name, args.seed)
    spec = {"mode": "run", "inputs": inputs}
    units = []
    traced = None
    trace_dir = None
    if args.trace:
        trace_dir = checkout.fresh_dir("trace")
        traced = run_unit(checkout, dict(spec, trace_dir=str(trace_dir)),
                          "traced")
        plain = run_unit(checkout, spec, "unit")
        for unit in (traced, plain):
            _count_unit(unit, units, verdict)
    else:
        # stop before a unit that would likely overrun --seconds
        begin = time.monotonic()
        while True:
            began = time.monotonic()
            unit = run_unit(checkout, spec, "unit")
            _count_unit(unit, units, verdict)
            now = time.monotonic()
            if unit is None or now - begin + (now - began) > args.seconds:
                break
    if not units:
        return {}, {}
    extras = check_batch(name, args.seed, inputs, units, checkout, verdict)
    if args.trace:
        if traced is None or len(units) < 2:
            return {}, extras
        metrics, summary = layer_metrics(
            tracer.load_dumps(trace_dir), traced["run_s"], units[1]["run_s"])
        extras.update(summary)
        return metrics, extras
    setups = [unit["setup_s"] for unit in units]
    while len(setups) < SETUP_SAMPLES:
        probe = run_unit(checkout, {"mode": "setup"}, "setup")
        if probe is None:
            verdict.failed += 1
            verdict.attempted += 1
            break
        setups.append(probe["setup_s"])
    latencies = [ms for unit in units for ms in unit["latencies_ms"]]
    extras.update(units=len(units), op_samples=len(latencies),
                  unit_run_s=[round(unit["run_s"], 4) for unit in units])
    return {
        "setup_s": median(setups),
        "run_s": median([unit["run_s"] for unit in units]),
        "cpu_s": median([unit["cpu_s"] for unit in units]),
        "peak_rss_mb": median([unit["peak_rss_mb"] for unit in units]),
        "op_p50_ms": median(latencies),
    }, extras


# -- serve-mixed -------------------------------------------------------------


def _get_json(host, port, path, timeout=5):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise OSError("GET %s answered %d" % (path, response.status))
        return json.loads(body)
    finally:
        conn.close()


class Session:
    """One fresh daemon, driven through a fixed closed-loop request list."""

    def __init__(self, checkout, requests, sample, trace_dir=None):
        self.checkout = checkout
        self.requests = requests
        self.sample = set(sample)
        self.trace_dir = trace_dir
        self.latencies_ms = [None] * len(requests)
        self.statuses = [None] * len(requests)
        self.bodies = {}
        self._next = 0
        self._lock = threading.Lock()

    def run(self):
        session_dir = self.checkout.fresh_dir("session")
        cache_dir = session_dir / "cache"
        cache_dir.mkdir()
        log = session_dir / "daemon.log"
        command = [sys.executable, str(HERE / "serve_daemon.py")]
        if self.trace_dir is not None:
            command += ["--trace-dir", str(self.trace_dir)]
        command += ["--", "--host", "127.0.0.1", "--port", "0",
                    "--jobs", "1"]
        child = Child(command, self.checkout.env(cache_dir),
                      self.checkout.root, stdout=subprocess.PIPE,
                      stderr_path=log)
        listening = threading.Event()
        address = {}

        def read_stdout():
            for line in child.proc.stdout:
                text = line.decode(errors="replace")
                if "listening on http://" in text and not address:
                    host_port = text.split("http://", 1)[1].split()[0]
                    host, port = host_port.rsplit(":", 1)
                    address.update(host=host, port=int(port))
                    listening.set()
            listening.set()  # end of output: the daemon has exited

        reader = threading.Thread(target=read_stdout, daemon=True)
        reader.start()
        try:
            if not listening.wait(CHILD_TIMEOUT_S) or not address:
                raise BenchError("daemon never listened:\n" + _tail(log))
            host, port = address["host"], address["port"]
            deadline = time.monotonic() + CHILD_TIMEOUT_S
            while True:
                try:
                    _get_json(host, port, "/v1/health")
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise BenchError("daemon never answered /v1/health:"
                                         "\n" + _tail(log)) from None
                    time.sleep(0.002)
            self.setup_s = time.monotonic() - child.launched
            start = time.monotonic()
            clients = [threading.Thread(target=self._client, args=(host, port))
                       for _ in range(workloads.SERVE_CLIENTS)]
            for client in clients:
                client.start()
            for client in clients:
                client.join()
            self.run_s = time.monotonic() - start
            self.stats = _get_json(host, port, "/v1/stats")
        finally:
            child.stop()
            reader.join(timeout=10)
            child.proc.stdout.close()
            shutil.rmtree(session_dir, ignore_errors=True)
        self.cpu_s = child.cpu_s
        self.peak_rss_mb = child.peak_rss_mb
        return self

    def _client(self, host, port):
        # one connection per request, like the project's ServerClient
        # (urllib): the daemon writes headers and body separately, so a
        # kept-alive connection would add a delayed-ACK stall per reply
        while True:
            with self._lock:
                index = self._next
                if index >= len(self.requests):
                    return
                self._next += 1
            payload = self.requests[index]
            body = json.dumps(payload).encode()
            conn = http.client.HTTPConnection(host, port,
                                              timeout=CHILD_TIMEOUT_S)
            began = time.perf_counter()
            try:
                conn.request("POST", "/v1/" + payload["kind"], body,
                             {"Content-Type": "application/json",
                              "Connection": "close"})
                response = conn.getresponse()
                data = response.read()
            except (OSError, http.client.HTTPException):
                continue  # no status: counted as failed
            finally:
                conn.close()
            self.latencies_ms[index] = (time.perf_counter() - began) * 1e3
            self.statuses[index] = response.status
            if index in self.sample and response.status == 200:
                self.bodies[index] = data


def _comparable(kind, body):
    """Served/local body bytes, minus a sweep's execution provenance.

    A sweep response carries ``from_cache`` and ``run_id``, which say how
    the daemon produced it (memo, result cache, journal); everything
    else must be byte-identical to local execution.
    """
    if kind != "sweep":
        return body
    payload = json.loads(body)
    payload["result"].pop("from_cache", None)
    payload["result"].pop("run_id", None)
    return workloads.canonical(payload).encode()


def check_served(checkout, sessions, verdict):
    sampled = [(session, index) for session in sessions
               for index in sorted(session.bodies)]
    payloads = [session.requests[index] for session, index in sampled]
    ref = run_unit(checkout, {"mode": "serve-reference",
                              "payloads": payloads}, "serve-reference")
    if ref is None:
        verdict.failed += len(sampled)
        return
    for (session, index), local in zip(sampled, ref["bodies"]):
        kind = session.requests[index]["kind"]
        if _comparable(kind, session.bodies[index]) != \
                _comparable(kind, local.encode()):
            verdict.failed += 1
            print("perfbench: served body %d differs from local execution"
                  % index, file=sys.stderr)


def run_serve(args, checkout, verdict):
    rng = random.Random("serve-mixed/%d/sample" % args.seed)
    sessions = []
    traced_dir = None

    def session(number, trace_dir=None):
        requests = workloads.serve_requests(args.seed, number)
        sample = rng.sample(range(len(requests)),
                            workloads.SERVE_REFERENCE_SAMPLE)
        result = Session(checkout, requests, sample, trace_dir).run()
        verdict.attempted += len(requests)
        verdict.failed += sum(status != 200 for status in result.statuses)
        sessions.append(result)
        return result

    if args.trace:
        traced_dir = checkout.fresh_dir("trace")
        traced = session(0, traced_dir)
        plain = session(0)
    else:
        begin = time.monotonic()
        number = 0
        while True:
            began = time.monotonic()
            session(number)
            number += 1
            now = time.monotonic()
            if number >= MIN_SESSIONS and \
                    now - begin + (now - began) > args.seconds:
                break
    check_served(checkout, sessions, verdict)
    latencies = [ms for s in sessions for ms in s.latencies_ms
                 if ms is not None]
    requests = sum(len(s.requests) for s in sessions)
    extras = {
        "sessions": len(sessions),
        "unit_run_s": [round(s.run_s, 4) for s in sessions],
        "op_samples": len(latencies),
        "serve_rps": requests / sum(s.run_s for s in sessions),
    }
    if len(latencies) >= 1000:
        extras["serve_p99_ms"] = nearest_rank(latencies, 0.99)
    if args.trace:
        served = [ms for ms in traced.latencies_ms if ms is not None]
        metrics, summary = layer_metrics(
            tracer.load_dumps(traced_dir), traced.run_s, plain.run_s,
            serve={"stats": traced.stats, "latencies_ms": served})
        extras.update(summary)
        return metrics, extras
    setups = [s.setup_s for s in sessions]
    while len(setups) < SETUP_SAMPLES:
        # a daemon launched, answered /v1/health and shut down
        setups.append(Session(checkout, [], []).run().setup_s)
    return {
        "setup_s": median(setups),
        "run_s": median([s.run_s for s in sessions]),
        "cpu_s": median([s.cpu_s for s in sessions]),
        "peak_rss_mb": median([s.peak_rss_mb for s in sessions]),
        "op_p50_ms": median(latencies),
    }, extras


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(dumps, traced_wall_s, untraced_wall_s, serve=None):
    """Per-layer metrics of one traced unit, summed over its processes.

    Shares are of *busy* time: every process's outermost frames, minus
    the time the parent only waited for pool workers. For one process
    that is the unit's wall time; with pool workers it is the work of
    the whole tree.
    """
    self_s, incl_s, calls, counters, cache = {}, {}, {}, {}, {}
    busy = 0.0
    worker_compiles = 0
    for dump in dumps:
        for target, source in ((self_s, dump["self_s"]),
                               (incl_s, dump["incl_s"]),
                               (calls, dump["calls"]),
                               (counters, dump["counters"]),
                               (cache, dump["trace_cache"])):
            for key, value in source.items():
                target[key] = target.get(key, 0) + value
        busy += dump["busy_s"]
        if dump["role"] == "worker":
            worker_compiles += dump["counters"].get("compile.calls", 0)
    busy -= self_s.get("executor.wait", 0.0)
    attributed = sum(value for layer, value in self_s.items()
                     if layer not in tracer.UNATTRIBUTED)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    cache_hits = cache.get("memory_hits", 0) + cache.get("disk_hits", 0)
    memory_s = self_s.get("memory", 0.0) + self_s.get("memory.lookup", 0.0)
    metrics = {
        "build.s": self_s.get("build", 0.0),
        "build.calls": counters.get("build.calls", 0),
        "gemm.s": self_s.get("gemm", 0.0),
        "compile.s": self_s.get("compile", 0.0),
        "trace_cache.hit_ratio": ratio(cache_hits,
                                       cache_hits + cache.get("misses", 0)),
        "schedule.s": self_s.get("schedule", 0.0),
        "schedule.instructions": counters.get("schedule.instructions", 0),
        "schedule.instr_per_s": ratio(counters.get("schedule.instructions", 0),
                                      self_s.get("schedule", 0.0)),
        "memory.s": self_s.get("memory", 0.0),
        "memory.lookup_s": self_s.get("memory.lookup", 0.0),
        "memory.accesses": counters.get("memory.accesses", 0),
        "memory.accesses_per_s": ratio(counters.get("memory.accesses", 0),
                                       memory_s),
        "memory.cache_inits": calls.get("memory.cache_init", 0),
        "memory.cache_init_s": self_s.get("memory.cache_init", 0.0),
        "arbitration.s": self_s.get("arbitration", 0.0),
        "fanout.s": self_s.get("fanout", 0.0),
        "fanout.worker_compiles": worker_compiles,
        "executor.wait_s": self_s.get("executor.wait", 0.0),
        "calibrate.s": self_s.get("calibrate", 0.0),
        "calibrate.calls": counters.get("calibrate.calls", 0),
        "orchestrate.self_s": self_s.get("orchestrate", 0.0),
        "cache_io.s": self_s.get("cache_io", 0.0),
        "result_cache.hit_ratio": ratio(
            counters.get("result_cache.hits", 0),
            counters.get("result_cache.hits", 0)
            + counters.get("result_cache.misses", 0)),
        "serve.s": sum(self_s.get(layer, 0.0) for layer in
                       ("serve", "serve.http", "serve.execute")),
        "serve.parse_s": self_s.get("serve.parse", 0.0),
        "serve.execute_s": incl_s.get("serve.execute", 0.0),
        "serve.queue_ms": 0.0,
        "serve.memo_hit_ratio": 0.0,
        "serve.dedup_hits": 0,
        "gc.s": self_s.get("gc", 0.0),
        "gc.collections": calls.get("gc", 0),
        "gc.gen2_collections": counters.get("gc.gen2_collections", 0),
        "unattributed_ratio": 1.0 - ratio(attributed, busy),
        "tracing_overhead_ratio": ratio(traced_wall_s, untraced_wall_s) - 1.0,
    }
    if serve is not None:
        latencies = serve["latencies_ms"]
        requests = serve["stats"]["requests"]
        metrics["serve.queue_ms"] = ratio(
            sum(latencies) - incl_s.get("serve.http", 0.0) * 1e3,
            len(latencies))
        metrics["serve.memo_hit_ratio"] = ratio(requests["memo_hits"],
                                                requests["requests"])
        metrics["serve.dedup_hits"] = requests["dedup_hits"]
    summary = {
        "untraced_targets": sorted({target for dump in dumps
                                    for target in dump["missing"]}),
        "busy_s": busy,
        "layers": {layer: [value, ratio(value, busy)]
                   for layer, value in sorted(self_s.items(),
                                              key=lambda item: -item[1])
                   if layer not in tracer.UNATTRIBUTED},
        "shares": {group: ratio(sum(self_s.get(layer, 0.0)
                                    for layer in layers), busy)
                   for group, layers in SHARE_GROUPS},
    }
    return metrics, summary


# -- entry point -------------------------------------------------------------


class Verdict:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_workload(name, args):
    checkout = Checkout(Path.cwd(), name)
    verdict = Verdict()
    try:
        if workloads.WORKLOADS[name] == "serve":
            metrics, extras = run_serve(args, checkout, verdict)
        else:
            metrics, extras = run_batch(name, args, checkout, verdict)
    finally:
        checkout.cleanup()
    names = PER_LAYER if args.trace else END_TO_END
    if any(metrics.get(metric) is None for metric, _unit in names):
        verdict.failed = max(verdict.failed, 1)
    return verdict, {metric: {"value": metrics.get(metric), "unit": unit}
                     for metric, unit in names}, extras


def print_summary(name, args, verdict, metrics, extras):
    meta = {"workload": name, "seed": args.seed, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "failed_ratio": verdict.failed / max(verdict.attempted, 1)}
    meta.update({key: value for key, value in extras.items()
                 if key != "layers"})
    print("run: " + json.dumps(meta, sort_keys=True))
    for layer, (self_s, share) in extras.get("layers", {}).items():
        print("layer %-18s %9.4f s %6.1f%% of busy time"
              % (layer, self_s, 100 * share))
    for metric, entry in metrics.items():
        value = entry["value"]
        print("%-16s %-24s %14s %s" % (name, metric,
                                      "-" if value is None else "%.6g" % value,
                                      entry["unit"]))


def _terminate(signum, _frame):
    # unwind through the finally blocks that kill and reap the children
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    correct = True
    for name in names:
        try:
            verdict, metrics, extras = run_workload(name, args)
        except BenchError as error:
            print("perfbench: %s" % error, file=sys.stderr)
            return 2
        print_summary(name, args, verdict, metrics, extras)
        correct = correct and verdict.failed == 0
    if args.workload != "all":
        print(json.dumps({"correct": verdict.failed == 0,
                          "attempted": verdict.attempted,
                          "failed": verdict.failed,
                          "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
