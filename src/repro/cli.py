"""Command-line interface.

::

    python -m repro.cli list                      # kernels + experiments
    python -m repro.cli gemm 512 512 512 --method camp8
    python -m repro.cli experiment table1 [--fast]
    python -m repro.cli experiment all --fast --jobs 4 --out artifacts/
    python -m repro.cli ablation vector-length
    python -m repro.cli sweep --sizes 128,256 --methods camp8,camp4
    python -m repro.cli serve --port 8735
    python -m repro.cli area

``gemm``, ``sweep`` and ``calibrate`` are thin shells around the typed
request layer (:mod:`repro.serving.requests`): their option groups are
*derived* from the request dataclasses (adding a field there surfaces
it here and on the daemon's JSON schema automatically), validation is
the requests' own ``validate()``, and execution goes through
:mod:`repro.serving.execute` — the same code path the ``serve`` daemon
answers with, so ``--server URL`` (send the request to a running
``repro-camp serve`` instead of executing locally) returns
byte-identical results.

Experiments and ablations run through the orchestrator
(:mod:`repro.experiments.orchestrator`):

- ``--jobs N`` fans independent experiments across a process pool.
- Results are cached on disk (``$REPRO_CACHE_DIR``, default
  ``~/.cache/repro-camp``), keyed by experiment name, fast flag, a
  digest of every ``src/repro`` source file and a digest of the run
  parameters — so a warm rerun is near-instant, and any code or
  parameter change recomputes exactly what it invalidates. Disable
  with ``--no-cache``; point elsewhere with ``--cache-dir``.
- ``--out DIR`` writes machine-readable artifacts per experiment
  (``<name>.json`` + ``<name>.csv`` + ``manifest.json``; schema in
  :mod:`repro.experiments.artifacts`).
- ``--format text|json|csv`` selects the stdout rendering.

Sweeps (and experiment batches) decompose into per-point tasks on the
work-queue executor: ``--retries`` / ``--task-timeout`` apply per
point, ``--run-id NAME`` journals progress so an interrupted run (exit
code 3) continues with ``--resume NAME`` recomputing only unfinished
points, ``experiment runs`` lists resumable journals, and ``cache
stats`` / ``cache prune`` keep the result store bounded.

Machines resolve through the declarative registry
(:mod:`repro.machines`): ``list``'s machine line, every ``--machine`` /
``--machines`` validation, and the per-platform sweep baselines all
derive from registered specs. ``--machine-file PATH`` (or
``$REPRO_MACHINE_PATH``) loads user-defined TOML/JSON machine
descriptions; the registry digest joins the result-cache key, so an
edited machine file never serves stale cached records.

Exit codes: 0 success, 1 operational failure (perf gate, unreachable
server), 2 invalid request/usage, 3 interrupted run (resumable).
"""

import argparse
import contextlib
import json
import os
import sys
import time

from repro.serving.requests import (
    CalibrateRequest,
    GemmRequest,
    SweepRequest,
    add_request_options,
    int_list,
    request_from_args,
)


def _apply_engine(args):
    """Install the requested pipeline engine process-wide.

    Exported through the environment as well so orchestrator worker
    processes inherit the choice.
    """
    engine = getattr(args, "engine", None)
    if engine:
        from repro.simulator.engine import set_default_engine

        os.environ["REPRO_PIPELINE_ENGINE"] = engine
        set_default_engine(engine)
    if getattr(args, "no_trace_cache", False):
        # env-only: the trace cache re-reads the variable on every
        # lookup, and worker processes inherit the environment
        from repro.simulator.engine import TRACE_CACHE_ENV

        os.environ[TRACE_CACHE_ENV] = "1"


def _apply_machine_files(args):
    """Load every ``--machine-file`` into the process-wide registry.

    Also appended to ``$REPRO_MACHINE_PATH`` so any spawned worker
    process resolves the same registry regardless of start method.
    """
    paths = getattr(args, "machine_file", None) or []
    if not paths:
        return 0
    from repro.machines import (
        MACHINE_PATH_ENV,
        MachineSpecError,
        load_machine_file,
    )

    for path in paths:
        try:
            load_machine_file(path)
        except MachineSpecError as error:
            print("machine file error: %s" % error, file=sys.stderr)
            return 2
    existing = os.environ.get(MACHINE_PATH_ENV, "")
    entries = [e for e in existing.split(os.pathsep) if e]
    entries += [p for p in paths if p not in entries]
    os.environ[MACHINE_PATH_ENV] = os.pathsep.join(entries)
    return 0


def _request_errors():
    """Exception types meaning "invalid request" (exit code 2).

    One tuple for every door: the request layer's own errors and the
    machine layer's spec violations, raised identically by local
    execution and re-raised by the client from the daemon's structured
    4xx payloads.
    """
    from repro.machines import MachineSpecError
    from repro.serving.requests import RequestError

    return (RequestError, MachineSpecError)


def _server_errors():
    from repro.serving.client import ServerError

    return (ServerError,)


def _fail(command, error):
    print("%s error: %s" % (command, error), file=sys.stderr)
    return 2


def _server_fail(error):
    print("server error: %s" % error, file=sys.stderr)
    return 1


def _cmd_list(_args):
    from repro.experiments import orchestrator
    from repro.gemm.microkernel import kernel_names
    from repro.machines import machine_names

    print("kernels     :", ", ".join(kernel_names()))
    print("machines    :", ", ".join(machine_names()))
    print("experiments :", ", ".join(sorted(orchestrator.names("experiment"))))
    print("ablations   :", ", ".join(sorted(orchestrator.names("ablation"))))
    return 0


def _unknown_machine(name):
    from repro.serving.requests import RequestError, check_machine

    try:
        check_machine(name)
    except RequestError as error:
        print(str(error), file=sys.stderr)
        return 2
    return 0


def _render_gemm(result):
    """Print the gemm summary from a response's result dict.

    Local and served executions both land here with the same dict, so
    the rendering cannot diverge between them.
    """
    backend_note = (
        " (analytic model)" if result["backend"] == "analytic" else ""
    )
    print("method        : %s on %s%s" % (result["kernel_name"],
                                          result["machine"], backend_note))
    print("cycles        : %.4g" % result["cycles"])
    print("instructions  : %d (kernel %d + packing %d)" % (
        result["total_instructions"], result["kernel_instructions"],
        result["packing_instructions"]))
    print("cycles/MAC    : %.4f" % result["cycles_per_mac"])
    print("throughput    : %.1f GOPS @ %.1f GHz" % (
        result["gops"], result["frequency_ghz"]))
    if result.get("blocking"):
        blocking = result["blocking"]
        print("blocking      : mc=%d kc=%d nc=%d (m_r=%d n_r=%d)" % (
            blocking["mc"], blocking["kc"], blocking["nc"],
            blocking["m_r"], blocking["n_r"]))
    return 0


@contextlib.contextmanager
def _profiled(args):
    """``--profile``: collect per-phase engine wall times, print a report.

    The collector is process-global (see
    :mod:`repro.simulator.profiling`), so with ``--jobs`` > 1 pool
    workers profile into their own processes and only parent-side time
    shows up — the report says so rather than silently under-counting.
    """
    if not getattr(args, "profile", False):
        yield
        return
    from repro.simulator import profiling

    with profiling.profile():
        yield
    print(profiling.render())
    if getattr(args, "jobs", 1) > 1:
        print("(jobs > 1: pool workers profile separately; rerun with "
              "--jobs 1 for full coverage)")


def _cmd_gemm(args):
    from repro.serving import execute as serving_execute

    if getattr(args, "profile", False) and args.server:
        return _fail("gemm", "--profile measures the local engines; drop "
                             "--server")
    try:
        request = request_from_args(GemmRequest, args).validate()
    except _request_errors() as error:
        return _fail("gemm", error)
    with _profiled(args):
        return _gemm_body(args, request, serving_execute)


def _gemm_body(args, request, serving_execute):
    if args.verify:
        if args.server:
            return _fail("gemm", "--verify computes numerically and runs "
                                 "locally; drop --server")
        if request.backend == "analytic":
            return _fail("gemm", "--verify needs the numeric path; drop "
                                 "--backend analytic")
        import numpy as np

        from repro.gemm.api import gemm

        rng = np.random.default_rng(args.seed)
        bits = 4 if request.method == "camp4" else 8
        lo, hi = -(1 << (bits - 1)), 1 << (bits - 1)
        if request.method == "openblas-fp32":
            a = rng.normal(size=(request.m, request.k)).astype(np.float32)
            b = rng.normal(size=(request.k, request.n)).astype(np.float32)
        else:
            a = rng.integers(lo, hi, size=(request.m, request.k))
            a = a.astype(np.int8)
            b = rng.integers(lo, hi, size=(request.k, request.n))
            b = b.astype(np.int8)
        numeric = gemm(a, b, method=request.method, machine=request.machine)
        print("numeric verification: computed %dx%d result"
              % numeric.c.shape)
        result = serving_execute.execution_result(request, numeric.execution)
    elif args.server:
        from repro.serving.client import ServerClient

        try:
            result = ServerClient(args.server).gemm(request)["result"]
        except _request_errors() as error:
            return _fail("gemm", error)
        except _server_errors() as error:
            return _server_fail(error)
    else:
        try:
            result = serving_execute.gemm_response(request)["result"]
        except _request_errors() as error:
            return _fail("gemm", error)
    return _render_gemm(result)


def _cache_from_args(args):
    from repro.experiments.cache import ResultCache

    if getattr(args, "no_cache", False):
        return None
    return ResultCache(getattr(args, "cache_dir", None))


def _progress_printer(args):
    """Per-point progress lines for long sweeps (stderr).

    Enabled by ``--progress``, or automatically when stderr is a
    terminal — an hour-long grid should not look hung. Served sweeps
    stream the same callbacks over the wire.
    """
    enabled = getattr(args, "progress", False) or (
        hasattr(sys.stderr, "isatty") and sys.stderr.isatty()
    )
    if not enabled:
        return None

    def on_point(done, total, point_id, status, elapsed_s):
        detail = status if status != "computed" else "%.2fs" % elapsed_s
        print("[%d/%d] %s (%s)" % (done, total, point_id, detail),
              file=sys.stderr)

    return on_point


def _executor_kwargs(args):
    """``run_many``/``run_sweep`` kwargs from the executor CLI options."""
    return {
        "retries": getattr(args, "retries", 0),
        "task_timeout": getattr(args, "task_timeout", None),
        "run_id": getattr(args, "run_id", None),
        "resume": getattr(args, "resume", None),
        "on_point": _progress_printer(args),
    }


def _run_interrupted(error, command):
    """Report an interrupted/failed executor run with the resume hint."""
    from repro.experiments import executor

    interrupted = isinstance(error, executor.InterruptedRun)
    print("%s %s: %s" % (command,
                         "interrupted" if interrupted else "failed", error),
          file=sys.stderr)
    if error.run_id:
        print("resume with: --resume %s" % error.run_id, file=sys.stderr)
    return 3 if interrupted else 1


def _cmd_runs(args):
    """List (and optionally prune) the journals under the cache dir."""
    from repro.experiments import executor

    if getattr(args, "prune_days", None) is not None:
        removed = executor.prune_runs(args.prune_days)
        print("pruned %d journal%s%s"
              % (len(removed), "" if len(removed) == 1 else "s",
                 (": " + ", ".join(removed)) if removed else ""))
        return 0
    runs = executor.list_runs()
    if not runs:
        print("no recorded runs under %s" % executor.journals_dir())
        return 0
    print("%-34s %-18s %-20s %7s %s"
          % ("run id", "experiment", "created", "points", "state"))
    for entry in runs:
        created = "?"
        if entry["created_unix"]:
            created = time.strftime(
                "%Y-%m-%d %H:%M:%S", time.localtime(entry["created_unix"])
            )
        print("%-34s %-18s %-20s %7d %s"
              % (entry["run_id"], entry["experiment"], created,
                 entry["points"],
                 "done" if entry["done"] else "resumable"))
    return 0


def _print_tier_stats(stats):
    print("cache root   : %s" % stats["root"])
    print("entries      : %d" % stats["entries"])
    print("total size   : %.2f MB" % (stats["total_bytes"] / 1e6))
    if stats["oldest_age_s"] is not None:
        print("oldest entry : %.1f days" % (stats["oldest_age_s"] / 86400))
        print("newest entry : %.1f days" % (stats["newest_age_s"] / 86400))


def _cmd_cache(args):
    """Cache maintenance over both tiers: ``cache stats`` / ``cache prune``.

    The result tier holds experiment records (JSON), the trace tier
    holds the batch engine's persisted compiled traces (``.rptc``);
    both live under the same root and are inspected/pruned together.
    """
    from repro.experiments.cache import ResultCache
    from repro.simulator import trace_cache

    cache_dir = getattr(args, "cache_dir", None)
    cache = ResultCache(cache_dir)
    if args.action == "stats":
        print("result tier")
        _print_tier_stats(cache.disk_stats())
        print()
        print("compiled-trace tier")
        _print_tier_stats(trace_cache.disk_stats(cache_dir))
        return 0
    # prune
    if args.max_age_days is None and args.max_size_mb is None:
        print("cache prune needs --max-age-days and/or --max-size-mb",
              file=sys.stderr)
        return 2
    removed, freed = cache.prune(
        max_age_days=args.max_age_days, max_size_mb=args.max_size_mb
    )
    trace_removed, trace_freed = trace_cache.prune(
        max_age_days=args.max_age_days, max_size_mb=args.max_size_mb,
        base=cache_dir,
    )
    print("pruned %d result entr%s (%.2f MB freed), %d compiled-trace "
          "entr%s (%.2f MB freed)"
          % (removed, "y" if removed == 1 else "ies", freed / 1e6,
             trace_removed, "y" if trace_removed == 1 else "ies",
             trace_freed / 1e6))
    return 0


def _emit_results(results, args, jobs=1):
    """Render results to stdout per --format and write --out artifacts."""
    from repro.experiments import artifacts

    out_format = getattr(args, "format", "text")
    if out_format == "text":
        for result in results:
            print(result.text)
            print()
    elif out_format == "json":
        documents = [artifacts.result_document(r) for r in results]
        print(json.dumps(documents, sort_keys=True, indent=2))
    else:  # csv
        for result in results:
            print("# %s" % result.name)
            print(artifacts.csv_text(result.records), end="")
    if getattr(args, "out", None):
        artifacts.write_batch(args.out, results, jobs=jobs)
    return 0


def _run_registered(kind, args):
    from repro.experiments import executor, orchestrator

    if kind == "experiment" and args.name == "runs":
        return _cmd_runs(args)
    known = orchestrator.names(kind)
    if args.name == "all":
        requested = known
    elif args.name not in known:
        print("unknown %s %r; try: %s"
              % (kind, args.name, ", ".join(sorted(known)) + ", all"),
              file=sys.stderr)
        return 2
    else:
        requested = [args.name]
    run_kwargs = {}
    if getattr(args, "cores", None):
        try:
            core_counts = list(int_list(args.cores))
        except ValueError as error:
            print("bad --cores: %s" % error, file=sys.stderr)
            return 2
        if not core_counts or any(cores < 1 for cores in core_counts):
            print("bad --cores: core counts must be >= 1", file=sys.stderr)
            return 2
        unsupported = [
            name for name in requested if name not in orchestrator.CORES_AWARE
        ]
        if unsupported:
            print(
                "--cores only applies to the multi-core experiments (%s), "
                "not: %s" % (
                    ", ".join(sorted(orchestrator.CORES_AWARE)),
                    ", ".join(unsupported),
                ),
                file=sys.stderr,
            )
            return 2
        run_kwargs = {"cores": core_counts, "jobs": args.jobs}
    if getattr(args, "machine", None):
        if _unknown_machine(args.machine):
            return 2
        unsupported = [
            name for name in requested
            if name not in orchestrator.MACHINE_AWARE
        ]
        if unsupported:
            print(
                "--machine only applies to the machine-parametric "
                "experiments (%s); the paper figures are platform-pinned, "
                "not: %s" % (
                    ", ".join(sorted(orchestrator.MACHINE_AWARE)),
                    ", ".join(unsupported),
                ),
                file=sys.stderr,
            )
            return 2
        run_kwargs["machine"] = args.machine
    try:
        results = orchestrator.run_many(
            requested, fast=args.fast, jobs=args.jobs,
            cache=_cache_from_args(args), run_kwargs=run_kwargs,
            **_executor_kwargs(args),
        )
    except executor.JournalError as error:
        print("%s error: %s" % (kind, error), file=sys.stderr)
        return 2
    except executor.ExecutorError as error:
        return _run_interrupted(error, kind)
    return _emit_results(results, args, jobs=args.jobs)


def _cmd_experiment(args):
    with _profiled(args):
        return _run_registered("experiment", args)


def _cmd_ablation(args):
    return _run_registered("ablation", args)


def _sweep_result(result):
    """Reassemble an :class:`ExperimentResult` from a response dict.

    Shared by the local and served paths, so ``--format json`` output
    (which excludes timing) is identical either way.
    """
    from repro.experiments.orchestrator import ExperimentResult

    return ExperimentResult(
        name="sweep",
        kind="sweep",
        fast=False,
        records=result["records"],
        text=result["text"],
        from_cache=result["from_cache"],
        elapsed_s=0.0,
        run_id=result["run_id"],
    )


def _cmd_sweep(args):
    from repro.experiments import executor
    from repro.serving import execute as serving_execute

    try:
        request = request_from_args(SweepRequest, args).validate()
    except _request_errors() as error:
        return _fail("sweep", error)
    try:
        if args.server:
            from repro.serving.client import ServerClient

            response = ServerClient(args.server).sweep(
                request, on_point=_progress_printer(args)
            )
        else:
            response = serving_execute.sweep_response(
                request, cache=_cache_from_args(args), jobs=args.jobs,
                **_executor_kwargs(args),
            )
    except _request_errors() as error:
        return _fail("sweep", error)
    except _server_errors() as error:
        return _server_fail(error)
    except executor.JournalError as error:
        return _fail("sweep", error)
    except executor.ExecutorError as error:
        return _run_interrupted(error, "sweep")
    return _emit_results([_sweep_result(response["result"])], args)


def _cmd_area(_args):
    from repro.experiments import exp_area

    print(exp_area.format_results(exp_area.run()))
    return 0


def _cmd_calibrate(args):
    from repro.serving import execute as serving_execute

    try:
        request = request_from_args(
            CalibrateRequest, args, multicore=not args.no_multicore
        ).validate()
    except _request_errors() as error:
        return _fail("calibrate", error)

    def on_machine(spec):
        print("calibrating %s (%d cores)..." % (spec.name, spec.cores))

    def on_method(machine, method, model):
        contention = model.contention
        print(
            "  %-14s call residual %.4f | contention kappa=%.3f "
            "alpha=%.1f (%d probes, residual %.4f)"
            % (method,
               max(model.first_call.max_rel_residual,
                   model.steady_call.max_rel_residual),
               contention.kappa, contention.alpha, contention.probes,
               contention.max_rel_residual)
        )

    def on_machine_done(entry):
        print("wrote %s" % entry["path"])

    try:
        serving_execute.calibrate_response(
            request, jobs=args.jobs, on_method=on_method,
            on_machine=on_machine, on_machine_done=on_machine_done,
        )
    except _request_errors() as error:
        return _fail("calibrate", error)
    return 0


def _cmd_serve(args):
    import signal
    import threading

    from repro.serving.requests import SCHEMA_VERSION
    from repro.serving.server import create_server
    from repro.simulator.engine import get_default_engine

    server = create_server(
        host=args.host, port=args.port, cache_dir=args.cache_dir,
        jobs=args.jobs, warm=not args.no_warm, verbose=args.verbose,
    )
    service = server.service
    host, port = server.server_address[:2]
    print(
        "repro-camp serve: listening on http://%s:%d (schema v%d, "
        "engine %s, %d analytic models warm, warm-up %.2fs)"
        % (host, port, SCHEMA_VERSION, get_default_engine(),
           service.preloaded_models, service.warm_up_s or 0.0),
        flush=True,
    )

    def _stop(_signum, _frame):
        # serve_forever must not be shut down from the signal handler's
        # own (main) thread — shutdown() joins the serving loop
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)
    except ValueError:
        pass  # not on the main thread (in-process test harness)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    counters = service.counters
    print("repro-camp serve: shut down cleanly (%d requests, %d computes, "
          "%d coalesced)"
          % (counters["requests"], counters["computes"],
             counters["dedup_hits"] + counters["memo_hits"]),
        flush=True,
    )
    return 0


def _cmd_bench(args):
    import importlib

    from repro.experiments import bench

    name = args.command[len("bench-"):]
    module = importlib.import_module("repro.experiments.bench_" + name)
    payload = module.run_bench(**{
        key: value for key, value in vars(args).items()
        if key not in ("command", "out", "check")
    })
    rows = bench.rows(name, payload)
    for row in rows:
        print(row)
    if args.out:
        print("wrote %s" % bench.write(payload, args.out))
    if args.check:
        baseline = json.loads(open(args.check).read())
        problems = bench.check(name, payload, baseline)
        for problem in problems:
            print("%s GATE: %s" % (args.command, problem), file=sys.stderr)
        if problems:
            return 1
        print("%s gate passed (%d checks against %s)"
              % (args.command, len(rows), args.check))
    return 0


def _add_machine_file_option(parser):
    parser.add_argument(
        "--machine-file", action="append", metavar="PATH",
        help="load a TOML/JSON machine description into the registry "
             "(repeatable; also honoured process-wide via "
             "$REPRO_MACHINE_PATH)")


def _add_server_option(parser):
    parser.add_argument(
        "--server", metavar="URL",
        help="send the request to a running `repro-camp serve` daemon "
             "instead of executing locally (responses are byte-identical)")


def _add_cores_option(parser):
    parser.add_argument(
        "--cores", default="",
        help="simulated core counts for the multi-core subsystem, "
             "e.g. 1,4,16 (multi-core experiments and sweep only)")


def _add_machine_option(parser):
    parser.add_argument(
        "--machine",
        help="registered machine to run on (machine-parametric "
             "experiments only; see `repro-camp list`)")


def _add_orchestrator_options(parser, engine=True):
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for cache misses")
    _add_executor_options(parser)
    _add_output_options(parser, engine=engine)


def _add_executor_options(parser):
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry each failed point up to N times "
                             "(exponential backoff)")
    parser.add_argument("--task-timeout", type=float, metavar="SECONDS",
                        help="kill and retry any point running longer than "
                             "this (forces process workers)")
    parser.add_argument("--run-id", metavar="NAME",
                        help="journal this run under NAME so it can be "
                             "resumed after an interruption")
    parser.add_argument("--resume", metavar="RUN_ID",
                        help="resume a journaled run: completed points are "
                             "replayed, only the rest are computed "
                             "(see `repro-camp experiment runs`)")
    parser.add_argument("--progress", action="store_true",
                        help="print per-point progress lines to stderr "
                             "(automatic on a terminal)")


def _add_output_options(parser, engine=True):
    parser.add_argument("--out", metavar="DIR",
                        help="write JSON/CSV artifacts into DIR")
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="stdout rendering")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="result cache root (default ~/.cache/repro-camp)")
    if engine:
        _add_engine_option(parser)
    else:
        _add_trace_cache_option(parser)


def _add_engine_option(parser):
    parser.add_argument("--engine", choices=("batch", "scalar"),
                        help="pipeline engine (default: batch; both are "
                             "bit-identical, scalar is the reference loop)")
    _add_trace_cache_option(parser)


def _add_trace_cache_option(parser):
    parser.add_argument("--no-trace-cache", action="store_true",
                        help="bypass the persistent compiled-trace cache "
                             "(results are bit-identical either way; also "
                             "honoured via $REPRO_NO_TRACE_CACHE)")


def _opt(*flags, **kwargs):
    return flags, kwargs


#: the bench-* commands: the options beyond --out/--check (and
#: --repeats, when the command has a default for it) are handed to
#: ``repro.experiments.bench_<name>.run_bench`` as keyword arguments
_BENCH_COMMANDS = {
    "bench-pipeline": {
        "help": "benchmark the pipeline engines, write BENCH_pipeline.json",
        "repeats": 3,
        "options": (
            _opt("--fast", action="store_true",
                 help="use the experiments' fast variants"),
        ),
    },
    "bench-multicore": {
        "help": "benchmark the multi-core subsystem, write "
                "BENCH_multicore.json",
        "repeats": 3,
    },
    "bench-sweep": {
        "help": "benchmark cold vs warm vs resumed sweeps, write "
                "BENCH_sweep.json",
        "repeats": 1,
    },
    "bench-analytic": {
        "help": "measure analytic-model accuracy and speed, write "
                "BENCH_analytic.json",
        "options": (
            _opt("--full", action="store_true",
                 help="run the full accuracy grid (nightly) instead of "
                      "the fast one"),
        ),
    },
    "bench-serve": {
        "help": "benchmark the serving daemon vs the one-shot CLI, write "
                "BENCH_serve.json",
        "repeats": 3,
    },
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-camp",
        description="CAMP (MICRO 2025) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser(
        "list", help="list kernels, machines and experiments")
    _add_machine_file_option(list_parser)

    gemm_parser = sub.add_parser("gemm", help="analyze (or run) one GEMM")
    add_request_options(gemm_parser, GemmRequest)
    gemm_parser.add_argument("--verify", action="store_true",
                             help="also compute numerically on random data")
    gemm_parser.add_argument("--seed", type=int, default=0)
    gemm_parser.add_argument(
        "--profile", action="store_true",
        help="print per-phase engine wall times (trace compile, schedule, "
             "memory replay, arbitration) and the scheduler chosen per "
             "trace")
    _add_machine_file_option(gemm_parser)
    _add_trace_cache_option(gemm_parser)
    _add_server_option(gemm_parser)

    exp_parser = sub.add_parser("experiment", help="run a paper experiment")
    exp_parser.add_argument(
        "name",
        help="experiment name, 'all', or 'runs' to list resumable journals")
    exp_parser.add_argument("--fast", action="store_true")
    exp_parser.add_argument(
        "--profile", action="store_true",
        help="print per-phase engine wall times (trace compile, schedule, "
             "memory replay, arbitration) and the scheduler chosen per "
             "trace; use with --jobs 1 for full coverage")
    exp_parser.add_argument(
        "--prune-days", type=float, metavar="DAYS",
        help="with `experiment runs`: delete journals older than DAYS")
    _add_cores_option(exp_parser)
    _add_machine_option(exp_parser)
    _add_machine_file_option(exp_parser)
    _add_orchestrator_options(exp_parser)

    abl_parser = sub.add_parser("ablation", help="run a design-choice study")
    abl_parser.add_argument("name")
    abl_parser.add_argument("--fast", action="store_true")
    _add_cores_option(abl_parser)
    _add_machine_option(abl_parser)
    _add_machine_file_option(abl_parser)
    _add_orchestrator_options(abl_parser)

    sweep_parser = sub.add_parser(
        "sweep", help="shapes x methods x machines speedup sweep")
    add_request_options(sweep_parser, SweepRequest)
    _add_machine_file_option(sweep_parser)
    # --engine comes from the request dataclass; the rest of the
    # orchestrator surface (jobs/journal/output/cache) is execution
    # policy and stays CLI-level
    _add_orchestrator_options(sweep_parser, engine=False)
    _add_server_option(sweep_parser)

    sub.add_parser("area", help="print the physical-design report")

    cal_parser = sub.add_parser(
        "calibrate",
        help="fit (and persist) analytic-model coefficients against the "
             "simulator")
    add_request_options(cal_parser, CalibrateRequest)
    cal_parser.add_argument(
        "--jobs", type=int, default=1,
        help="fan methods across worker processes (coefficients are "
             "independent of --jobs)")
    cal_parser.add_argument(
        "--no-multicore", action="store_true",
        help="skip the multicore contention probes (single-core "
             "coefficients only)")
    _add_machine_file_option(cal_parser)
    _add_trace_cache_option(cal_parser)

    serve_parser = sub.add_parser(
        "serve",
        help="long-running simulation daemon answering typed JSON "
             "requests over HTTP")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8735,
                              help="TCP port (default 8735; 0 picks a "
                                   "free port)")
    serve_parser.add_argument("--jobs", type=int, default=1,
                              help="worker processes per served sweep")
    serve_parser.add_argument("--cache-dir", metavar="DIR",
                              help="result cache root (default "
                                   "~/.cache/repro-camp)")
    serve_parser.add_argument("--no-warm", action="store_true",
                              help="skip the start-up warm-up pass "
                                   "(imports, registry, model store)")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="log every request to stderr")
    _add_machine_file_option(serve_parser)
    _add_engine_option(serve_parser)

    cache_parser = sub.add_parser(
        "cache", help="inspect or prune the on-disk result cache")
    cache_parser.add_argument("action", choices=("stats", "prune"))
    cache_parser.add_argument("--max-age-days", type=float, metavar="DAYS",
                              help="prune: delete entries older than DAYS")
    cache_parser.add_argument("--max-size-mb", type=float, metavar="MB",
                              help="prune: evict oldest entries until the "
                                   "store fits in MB")
    cache_parser.add_argument("--cache-dir", metavar="DIR",
                              help="cache root (default ~/.cache/repro-camp)")

    for name, spec in _BENCH_COMMANDS.items():
        bench = sub.add_parser(name, help=spec["help"])
        for flags, kwargs in spec.get("options", ()):
            bench.add_argument(*flags, **kwargs)
        if "repeats" in spec:
            bench.add_argument("--repeats", type=int,
                               default=spec["repeats"],
                               help="timed runs per measurement (best is "
                                    "kept)")
        bench.add_argument("--out",
                           default="BENCH_%s.json" % name[len("bench-"):],
                           help="output JSON path ('' to skip writing)")
        bench.add_argument("--check", metavar="BASELINE",
                           help="compare against a committed baseline JSON "
                                "and fail on perf regression")
    return parser


_COMMANDS = {
    "list": _cmd_list,
    "gemm": _cmd_gemm,
    "experiment": _cmd_experiment,
    "ablation": _cmd_ablation,
    "sweep": _cmd_sweep,
    "area": _cmd_area,
    "calibrate": _cmd_calibrate,
    "serve": _cmd_serve,
    "cache": _cmd_cache,
    **{name: _cmd_bench for name in _BENCH_COMMANDS},
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as error:
        # argparse-level failures (bad --shapes/--sizes values, unknown
        # options) become return codes so embedding callers — and the
        # daemon — never die on a malformed request
        code = error.code
        return code if isinstance(code, int) else 2
    _apply_engine(args)
    code = _apply_machine_files(args)
    if code:
        return code
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
