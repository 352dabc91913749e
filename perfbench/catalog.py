"""Names and units of every reported metric (mirrored by ``BENCHMARK.json``)."""

from __future__ import annotations

# Printed by every untraced run (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "group_cr": "ratio",
    "group_f1": "ratio",
    "group_auc": "ratio",
}

# Printed by every traced run (``--trace 1``).  Layer seconds are per op
# (graph fitted, response served, stream tick); a workload reports 0 for
# a layer it does not run.
PER_LAYER = {
    "gae.fit_s": "s",
    "gae.epoch_ms": "ms",
    "graph.target_s": "s",
    "gae.warm_s": "s",
    "sampling.sample_s": "s",
    "sampling.candidates": "count",
    "gcl.fit_s": "s",
    "gcl.epoch_ms": "ms",
    "gcl.embed_s": "s",
    "gcl.groups": "count",
    "outlier.score_s": "s",
    "core.self_s": "s",
    "core.self_pct": "%",
    "persist.load_s": "s",
    "serve.server_p50_ms": "ms",
    "serve.transport_p50_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.dedup_ratio": "ratio",
    "serve.shed": "count",
    "serve.generator_late_ms": "ms",
    "obs.provenance_bytes_per_req": "B",
    "stream.apply_s": "s",
    "stream.incremental_s": "s",
    "stream.refit_s": "s",
    "stream.refits": "count",
    "stream.pair_reuse_ratio": "ratio",
    "stream.embed_reuse_ratio": "ratio",
    "stream.dirty_ball_mean": "count",
    "stream.detection_lag_ticks": "count",
    "obs.trace_overhead_pct": "%",
}
