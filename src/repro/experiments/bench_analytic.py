"""Analytic-model benchmark (``repro-camp bench-analytic``).

Produces ``BENCH_analytic.json``, gated by the ``analytic`` rows of
:data:`repro.experiments.bench.GATES` (the CI ``analytic-accuracy``
job), all measured in a scratch cache so every calibration is cold:

- **accuracy** — the ``model-accuracy`` experiment's grid summarized
  as p95 / max relative cycle error against the documented band
  (:data:`repro.experiments.exp_model_accuracy.P95_BAND` /
  :data:`~repro.experiments.exp_model_accuracy.POINT_CAP`);
- **calibrate** — wall time of cold-calibrating every (machine,
  method) pair the grid needs;
- **predict** — per-shape wall time of a warm analytic prediction vs a
  cold cycle-level simulation of the same shape: a closed-form model
  must be orders of magnitude cheaper.
"""

import platform

from repro.experiments.bench import scratch_cache, timed

#: shapes for the predict-vs-simulate timing — off both the kc probe
#: ladder anchors and the multicore calibration sizes
PREDICT_SHAPES = (160, 224)

#: (machine, method) pairs timed in the predict section
PREDICT_PAIRS = (("a64fx", "camp8"), ("a64fx", "openblas-fp32"))

#: warm predictions per shape when timing the analytic side (single
#: predictions are far below timer resolution)
PREDICT_REPEATS = 200


def _grid_pairs(fast=True):
    """The (machine, method) pairs the accuracy grid calibrates."""
    from repro.experiments import exp_model_accuracy as exp
    from repro.machines import get_spec, machine_names

    pairs = []
    for machine in machine_names():
        for method in exp._machine_methods(get_spec(machine), fast):
            pairs.append((machine, method))
    return pairs


def run_bench(full=False):
    """Full benchmark payload for ``BENCH_analytic.json``."""
    from repro.analytic import calibrate_machine, get_model
    from repro.experiments import exp_model_accuracy as exp
    from repro.gemm.api import make_driver

    fast = not full
    pairs = _grid_pairs(fast)
    by_machine = {}
    for machine, method in pairs:
        by_machine.setdefault(machine, []).append(method)

    def calibrate():
        for machine, methods in by_machine.items():
            calibrate_machine(machine, methods=methods)

    with scratch_cache():
        calibration, _ = timed(calibrate)

        # accuracy grid (models now warm — this times nothing)
        summary = exp.band_summary(exp.run(fast=fast))

        # warm predict vs cold simulate, per shape
        sim_s = 0.0
        model_s = 0.0
        for machine, method in PREDICT_PAIRS:
            model = get_model(method, machine)
            for size in PREDICT_SHAPES:
                sim, _ = timed(lambda: make_driver(method, machine).analyze(
                    size, size, size))
                sim_s += sim["best_s"]
                predict, _ = timed(lambda: [
                    model.predict(size, size, size)
                    for _ in range(PREDICT_REPEATS)
                ])
                model_s += predict["best_s"]
    shapes_timed = len(PREDICT_PAIRS) * len(PREDICT_SHAPES)
    predictions = shapes_timed * PREDICT_REPEATS
    sim_per_shape = sim_s / shapes_timed
    model_per_shape = model_s / predictions
    return {
        "schema": "repro-camp/bench-analytic/v1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "grid": {
            "fast": fast,
            "pairs": ["%s/%s" % pair for pair in pairs],
            "points": summary["points"],
        },
        "accuracy": {
            "p95_rel_error": round(summary["p95_rel_error"], 6),
            "max_rel_error": round(summary["max_rel_error"], 6),
            "p95_band": summary["p95_band"],
            "point_cap": summary["point_cap"],
            "within_band": summary["within_band"],
        },
        "calibrate_s": calibration["best_s"],
        "predict": {
            "shapes": shapes_timed,
            "predictions": predictions,
            "sim_per_shape_s": round(sim_per_shape, 6),
            "model_per_shape_s": round(model_per_shape, 9),
            "speedup": round(sim_per_shape / max(model_per_shape, 1e-12), 1),
        },
    }
