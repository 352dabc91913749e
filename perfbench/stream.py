"""``stream`` workload: a burst event stream replayed through ``IncrementalTPGrGAD``.

Seeded ``make_burst_stream`` streams (simML at the paper's size, one ring
planted two-thirds in) are replayed tick by tick as a backfill: a closed
loop with no pacing, ``refit_policy="budget"``.  Each tick writes the
graph (``StreamingGraph.apply``) and either updates the detection
incrementally or, once the drift budget is spent, refits the pipeline
(once per stream at ``STREAM_DRIFT_BUDGET``).  A run replays
``STREAM_REPLAYS`` distinct streams of ``STREAM_TICKS_PER_SECOND * --seconds``
ticks each, one after the other, and pools their ticks: the tick median
then spans several graphs and a longer stretch of the run.  Set-up is the
detector's construction, i.e. the initial fit of a stream's base snapshot,
timed once per stream.  The traced run replays the first stream only.
"""

from __future__ import annotations

import time
import traceback
from pathlib import Path
from statistics import fmean
from typing import List, Tuple

from perfbench import common, quality, settings
from perfbench.catalog import PER_LAYER
from perfbench.layers import LayerClock, layer_metrics


def _stream(seed: int, seconds: float, index: int = 0):
    from repro.datasets import make_burst_stream

    n_ticks = max(3, round(settings.STREAM_TICKS_PER_SECOND * seconds))
    return make_burst_stream(
        "simml", scale=settings.STREAM_SCALE, seed=settings.input_seed(seed, index), n_ticks=n_ticks
    )


def _construct(stream) -> Tuple[object, float]:
    from repro.stream import IncrementalTPGrGAD, StreamConfig

    start = time.perf_counter()
    stream_config = StreamConfig(
        refit_policy=settings.STREAM_REFIT_POLICY, drift_budget=settings.STREAM_DRIFT_BUDGET
    )
    detector = IncrementalTPGrGAD(stream.base, settings.pipeline_config(), stream_config)
    return detector, time.perf_counter() - start


def _replay(detector, stream, outcome: common.Outcome) -> Tuple[List, List[float]]:
    """Apply every tick; returns the tick reports and each tick's wall time."""
    reports, walls = [], []
    for tick, delta in enumerate(stream.deltas):
        start = time.perf_counter()
        try:
            report = detector.update(delta)
        except Exception as error:  # counted as a failed op; later ticks depend on this one
            traceback.print_exc()
            outcome.check(False, f"tick {tick}: {error!r}")
            break
        walls.append(time.perf_counter() - start)
        reports.append(report)
        outcome.check(quality.result_is_valid(report.result), f"tick {tick}: invalid result")
    outcome.check(
        detector.graph.fingerprint() == stream.final.fingerprint(),
        "streamed graph differs from the stream's final snapshot",
    )
    return reports, walls


def _events(stream) -> int:
    return sum(d.n_new_nodes + d.n_new_edges + d.n_feature_updates for d in stream.deltas)


def run(seed: int, seconds: float, trace: bool, work_dir: Path) -> common.Outcome:
    outcome = common.Outcome()
    if trace:
        return _traced(_stream(seed, seconds), outcome)

    setup, walls, events, refits, run_quality = [], [], 0, 0, []
    for index in range(settings.STREAM_REPLAYS):
        stream = _stream(seed, seconds, index)
        detector = reports = None  # release the previous stream's state before building the next
        detector, elapsed = _construct(stream)
        setup.append(elapsed)
        reports, stream_walls = _replay(detector, stream, outcome)
        walls += stream_walls
        events += _events(stream)
        refits += sum(r.mode == "refit" for r in reports)
        run_quality.append(quality.evaluate(detector.result, stream.groups))
    outcome.put_latencies(walls, "one tick: graph write plus detection update")
    outcome.put_common(setup, events / sum(walls), len(walls), common.self_peak_rss_mb(), quality.stream_panel())
    outcome.report["ticks"] = {"n": len(walls), "streams": settings.STREAM_REPLAYS, "refits": refits, "events": events}
    outcome.report["run_quality"] = run_quality
    return outcome


def _detection_lag(stream, reports) -> Tuple[int, bool]:
    from repro.stream.replay import group_detected

    for tick in range(stream.burst_tick, len(reports)):
        if group_detected(reports[tick].result, stream.burst_group):
            return tick - stream.burst_tick, True
    return len(reports) - stream.burst_tick, False


def _traced(stream, outcome: common.Outcome) -> common.Outcome:
    """The stream replayed untraced, then again under the layer clock."""
    detector, _ = _construct(stream)
    plain_reports, plain_walls = _replay(detector, stream, outcome)
    detector = None
    detector, _ = _construct(stream)
    clock = LayerClock()
    with clock.installed():
        reports, walls = _replay(detector, stream, outcome)
    for tick, (plain, traced) in enumerate(zip(plain_reports, reports)):
        outcome.check(
            quality.result_digest(plain.result) == quality.result_digest(traced.result),
            f"tick {tick}: traced result differs from untraced",
        )

    layer = layer_metrics(clock.snapshot(), sum(walls), len(walls))
    outcome.check(layer["core.self_s"] >= 0.0, "layer times exceed the tick wall time")
    for name, value in layer.items():
        outcome.put(name, value, PER_LAYER[name])
    incremental = [w for w, r in zip(walls, reports) if r.mode == "incremental"]
    refits = [w for w, r in zip(walls, reports) if r.mode == "refit"]
    cache = detector.cache_info()
    lag, detected = _detection_lag(stream, reports)
    outcome.put("stream.incremental_s", fmean(incremental) if incremental else 0.0, "s")
    outcome.put("stream.refit_s", fmean(refits) if refits else 0.0, "s")
    outcome.put("stream.refits", len(refits), "count")
    outcome.put("stream.pair_reuse_ratio", _ratio(cache["pair_hits"], cache["pair_misses"]), "ratio")
    outcome.put("stream.embed_reuse_ratio", _ratio(cache["embed_hits"], cache["embed_misses"]), "ratio")
    outcome.put(
        "stream.dirty_ball_mean",
        fmean(r.dirty_ball for r in reports if r.mode == "incremental") if incremental else 0.0,
        "count",
    )
    outcome.put("stream.detection_lag_ticks", lag, "count")
    outcome.put("obs.trace_overhead_pct", 100.0 * (sum(walls) - sum(plain_walls)) / sum(plain_walls), "%")
    outcome.report["burst"] = {"tick": stream.burst_tick, "detected": detected, "lag_ticks": lag}
    return outcome


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0
