"""``fit`` workload: offline batch detection, cold ``TPGrGAD.fit_detect`` per graph.

One caller in a closed loop fits distinct seeded simML graphs at the
paper's size until ``--seconds`` have passed (and at least
``FIT_MIN_GRAPHS`` graphs).  Set-up is a fresh interpreter importing the
package and constructing the detector, timed ``SETUP_REPEATS`` times.
"""

from __future__ import annotations

import time
import traceback
from pathlib import Path

from perfbench import common, quality, settings
from perfbench.catalog import PER_LAYER
from perfbench.layers import LayerClock, layer_metrics

_SETUP_CODE = (
    "from perfbench.settings import pipeline_config\n"
    "from repro.core import TPGrGAD\n"
    "TPGrGAD(pipeline_config())\n"
    "print('ready', flush=True)\n"
)


def _graph(seed: int, index: int):
    from repro.datasets import make_simml

    return make_simml(scale=settings.FIT_SCALE, seed=settings.input_seed(seed, index))


def _fit(graph):
    from repro.core import TPGrGAD

    start = time.perf_counter()
    result = TPGrGAD(settings.pipeline_config()).fit_detect(graph)
    return result, time.perf_counter() - start


def run(seed: int, seconds: float, trace: bool, work_dir: Path) -> common.Outcome:
    return _traced(seed) if trace else _measured(seed, seconds)


def _measured(seed: int, seconds: float) -> common.Outcome:
    outcome = common.Outcome()
    setup = [common.time_import_and_construct(_SETUP_CODE) for _ in range(settings.SETUP_REPEATS)]

    latencies, rows = [], []
    busy = 0.0
    index = 0
    while busy < seconds or index < settings.FIT_MIN_GRAPHS:
        graph = _graph(seed, index)
        start = time.perf_counter()
        try:
            result, elapsed = _fit(graph)
        except Exception as error:  # counted as a failed op; the loop goes on
            traceback.print_exc()
            busy += time.perf_counter() - start
            outcome.check(False, f"graph {index}: {error!r}")
        else:
            busy += elapsed
            latencies.append(elapsed)
            if outcome.check(quality.result_is_valid(result), f"graph {index}: invalid result"):
                rows.append(quality.evaluate(result, graph.groups))
        index += 1
    if not latencies:
        raise RuntimeError("every fit_detect failed: " + "; ".join(outcome.errors))

    outcome.put_latencies(latencies, "cold fit_detect of one graph")
    outcome.put_common(
        setup, len(latencies) / busy, len(latencies), common.self_peak_rss_mb(), quality.fit_panel()
    )
    outcome.report["graphs"] = {"n": index, "n_nodes": graph.n_nodes, "n_edges": graph.n_edges}
    outcome.report["run_quality"] = quality.mean_quality(rows) if rows else None
    return outcome


def _traced(seed: int) -> common.Outcome:
    """One graph fitted four times, untraced and under the layer clock in ABBA order."""
    outcome = common.Outcome()
    graph = _graph(seed, 0)
    clock = LayerClock()
    walls = {False: [], True: []}
    digests = []
    for traced in (False, True, True, False):
        if traced:
            with clock.installed():
                result, elapsed = _fit(graph)
        else:
            result, elapsed = _fit(graph)
        walls[traced].append(elapsed)
        digests.append(quality.result_digest(result))
        outcome.check(quality.result_is_valid(result), "invalid result")
    outcome.check(len(set(digests)) == 1, "traced result differs from untraced")

    traced_s, plain_s = sum(walls[True]), sum(walls[False])
    layer = layer_metrics(clock.snapshot(), traced_s, len(walls[True]))
    outcome.check(layer["core.self_s"] >= 0.0, "layer times exceed the op wall time")
    for name, value in layer.items():
        outcome.put(name, value, PER_LAYER[name])
    outcome.put("obs.trace_overhead_pct", 100.0 * (traced_s - plain_s) / plain_s, "%")
    outcome.report["fit_wall_s"] = {"untraced": walls[False], "traced": walls[True]}
    return outcome
