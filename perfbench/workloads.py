"""The benchmark's workloads: seeded inputs and the checks on their outputs.

Every input is a pure function of the workload name and ``--seed``;
the program under test only ever sees the generated requests.
"""

import json
import math
import random
import statistics
from pathlib import Path

#: workload -> kind. ``batch`` workloads run each cold unit in a fresh
#: process; ``serve`` drives a fresh daemon per session.
WORKLOADS = {
    "paper-fast-cold": "batch",
    "kernel-sweep": "batch",
    "multicore-sweep": "batch",
    "serve-mixed": "serve",
}

# Seeds move every size within a narrow band, so each seed asks for new
# inputs but about the same amount of work: the run-to-run spread then
# measures the program, not the draw.

# -- kernel-sweep ----------------------------------------------------------

#: K = 64 + 64 i + 8 r (r seeded in 0..7): 7 distinct depths below the
#: smallest kc of the swept kernels (512), so every shape builds,
#: compiles and schedules its own micro-kernel call program
KERNEL_SHAPES = 7
KERNEL_METHODS = ("camp8", "camp4", "handv-int8")
KERNEL_MACHINES = ("a64fx", "sargantana", "sve2-edge")

# -- multicore-sweep -------------------------------------------------------

#: one size near each of 256, 512, 768 and 1024, moved 0..24 inward
MULTICORE_SIZE_ANCHORS = (256, 512, 768, 1024)
MULTICORE_CORES = (1, 2, 4, 8, 16)
MULTICORE_METHODS = ("camp8", "camp4")
MULTICORE_MACHINES = ("a64fx", "hbm-server", "sve2-edge")
MULTICORE_JOBS = 2

# -- serve-mixed -----------------------------------------------------------

SERVE_MACHINES = ("a64fx", "sargantana", "sve2-edge", "hbm-server")
SERVE_METHODS = ("camp8", "camp4", "handv-int8")
SERVE_DIMS = (32, 48, 64, 96, 128)
#: Zipf exponent of gemm popularity over the pool: ~70 distinct gemm
#: requests per session, so most answers come from the memo and caches
SERVE_ZIPF = 1.7
SERVE_SWEEP_SHARE = 0.1
SERVE_SWEEP_SIZES = (16, 24, 32, 40, 48)
SERVE_REQUESTS = 600
SERVE_CLIENTS = 2

# -- sampled reference checks ----------------------------------------------

REFERENCE_SAMPLE = 4
SERVE_REFERENCE_SAMPLE = 6


def batch_inputs(name, seed):
    """The JSON-ready unit inputs of a batch workload."""
    rng = random.Random("%s/%d" % (name, seed))
    if name == "paper-fast-cold":
        # the inputs are the paper's own suite, the same for every seed
        return {"kind": "paper", "jobs": 1}
    if name == "kernel-sweep":
        ks = [64 + 64 * i + 8 * rng.randrange(8)
              for i in range(KERNEL_SHAPES)]
        return {
            "kind": "sweep",
            "jobs": 1,
            "request": {
                "kind": "sweep",
                "version": 1,
                "shapes": [[96, 96, k] for k in ks],
                "methods": list(KERNEL_METHODS),
                "machines": list(KERNEL_MACHINES),
            },
        }
    if name == "multicore-sweep":
        sizes = [anchor + (8 if anchor == 256 else -8) * rng.randrange(4)
                 for anchor in MULTICORE_SIZE_ANCHORS]
        return {
            "kind": "sweep",
            "jobs": MULTICORE_JOBS,
            "request": {
                "kind": "sweep",
                "version": 1,
                "sizes": sizes,
                "methods": list(MULTICORE_METHODS),
                "machines": list(MULTICORE_MACHINES),
                "cores": list(MULTICORE_CORES),
            },
        }
    raise KeyError(name)


def reference_points(name, seed, inputs):
    """A seeded sample of sweep points to recompute on the serial path."""
    rng = random.Random("%s/%d/reference" % (name, seed))
    request = inputs["request"]
    points = []
    for _ in range(REFERENCE_SAMPLE):
        point = {"machine": rng.choice(request["machines"]),
                 "method": rng.choice(request["methods"])}
        if "cores" in request:
            point["size"] = rng.choice(request["sizes"])
            point["cores"] = rng.choice(request["cores"])
        else:
            point["shape"] = rng.choice(request["shapes"])
        points.append(point)
    return points


def reference_key(record):
    """The identity of a sweep record, for matching against the sample."""
    return (record["machine"], record["method"], record["shape"],
            record.get("cores"))


def point_key(point):
    if "cores" in point:
        shape = "smm-%d" % point["size"]
    else:
        shape = "%dx%dx%d" % tuple(point["shape"])
    return (point["machine"], point["method"], shape, point.get("cores"))


def serve_pool():
    """Every gemm request the serve mix draws from: 300 entries, more
    than the daemon's 256-entry response memo holds."""
    pool = []
    for machine in SERVE_MACHINES:
        for method in SERVE_METHODS:
            for m in SERVE_DIMS:
                for k in SERVE_DIMS:
                    pool.append({"kind": "gemm", "version": 1, "m": m,
                                 "n": m, "k": k, "method": method,
                                 "machine": machine})
    return pool


def serve_sweeps():
    """The small, overlapping sweep requests of the serve mix."""
    return [{"kind": "sweep", "version": 1, "sizes": [a, b],
             "methods": ["camp8"], "machines": [machine]}
            for machine in SERVE_MACHINES[:2]
            for i, a in enumerate(SERVE_SWEEP_SIZES)
            for b in SERVE_SWEEP_SIZES[i + 1:]]


def serve_requests(seed, session):
    """One session's closed-loop request list.

    The sequence of popularity ranks is the same for every seed, so
    every seed asks for the same number of distinct requests (the
    daemon's compute); the seed decides which request holds each rank.
    """
    ranks = random.Random("serve-mixed/ranks/%d" % session)
    rng = random.Random("serve-mixed/%d/%d" % (seed, session))
    pool = serve_pool()
    sweeps = serve_sweeps()
    rng.shuffle(pool)
    rng.shuffle(sweeps)
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF for rank in range(len(pool))]
    requests = []
    for _ in range(SERVE_REQUESTS):
        if ranks.random() < SERVE_SWEEP_SHARE:
            requests.append(sweeps[ranks.randrange(len(sweeps))])
        else:
            requests.append(ranks.choices(pool, weights)[0])
    return requests


# -- output checks ---------------------------------------------------------

#: the golden test's tolerances (tests/test_experiments_golden.py):
#: floats to 1e-6 relative, fig7's trained-MLP floats to a wider band
GOLDEN_REL_TOL = 1e-6
GOLDEN_ABS_TOL = 1e-12
GOLDEN_TOLERANCES = {"fig7": (1e-3, 0.05)}


def _float_close(live, golden, rel, abs_):
    return abs(live - golden) <= max(rel * abs(golden), abs_)


def golden_diff(golden, live, rel, abs_, path="$"):
    """Mismatch descriptions between a golden record tree and a live one."""
    if isinstance(golden, float) and isinstance(live, (int, float)) \
            and not isinstance(live, bool):
        if not _float_close(live, golden, rel, abs_):
            return ["%s: %r != golden %r" % (path, live, golden)]
        return []
    if isinstance(golden, list) and isinstance(live, list):
        problems = []
        if len(golden) != len(live):
            problems.append("%s: length %d != golden %d"
                            % (path, len(live), len(golden)))
        for index, (g, item) in enumerate(zip(golden, live)):
            problems += golden_diff(g, item, rel, abs_,
                                    "%s[%d]" % (path, index))
        return problems
    if isinstance(golden, dict) and isinstance(live, dict):
        problems = []
        if list(golden) != list(live):
            problems.append("%s: keys %s != golden %s"
                            % (path, list(live), list(golden)))
        for key in golden:
            if key in live:
                problems += golden_diff(golden[key], live[key], rel, abs_,
                                        "%s.%s" % (path, key))
        return problems
    if golden != live:
        return ["%s: %r != golden %r" % (path, live, golden)]
    return []


def check_paper_records(records, golden_dir):
    """Per-experiment mismatches of one cold suite against the goldens."""
    problems = {}
    for name, live in records.items():
        path = Path(golden_dir) / (name + ".json")
        if not path.exists():
            problems[name] = ["no golden file %s" % path]
            continue
        rel, abs_ = GOLDEN_TOLERANCES.get(name, (GOLDEN_REL_TOL,
                                                 GOLDEN_ABS_TOL))
        found = golden_diff(json.loads(path.read_text()), live, rel, abs_)
        if found:
            problems[name] = found
    return problems


def canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def paper_speedup_rel_err(records):
    """Median relative error of simulated speed-ups vs the paper values."""
    errors = []
    for row in records.get("table1", []):
        for live, paper in (("int8_speedup", "paper_int8"),
                            ("int4_speedup", "paper_int4")):
            if row.get(paper):
                errors.append(abs(row[live] - row[paper]) / row[paper])
    for row in records.get("fig18", []):
        for method in ("camp4", "camp8", "mmla"):
            paper = row.get("paper_" + method)
            if paper:
                errors.append(abs(row[method] - paper) / paper)
    return statistics.median(errors) if errors else None


def analytic_p95_err(records):
    """Nearest-rank 95th percentile of the model-accuracy relative errors."""
    errors = sorted(row["rel_error"]
                    for row in records.get("model-accuracy", []))
    if not errors:
        return None
    return errors[max(0, math.ceil(0.95 * len(errors)) - 1)]
