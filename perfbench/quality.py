"""Detection quality (CR, F1, AUC against planted groups) and output checks.

Quality is recorded on a fixed panel of small inputs, run through the same
code path as the workload (cold fit, warm detect_only, or a streamed
replay).  The panel does not depend on ``--seed``, so the three quality
metrics repeat exactly from run to run and any change in them is a change
in the program's numerics, not in the sampled inputs.  The quality of the
run's own seeded outputs is printed alongside for reference.
"""

from __future__ import annotations

from statistics import fmean
from typing import Dict, Iterable, List

import numpy as np

from perfbench import settings


def evaluate(result, truth_groups) -> Dict[str, float]:
    """CR / F1 / AUC of one detection result against planted groups."""
    from repro.metrics.report import evaluate_detection

    report = evaluate_detection(
        result.candidate_groups, result.scores, truth_groups, anomalous_groups=result.anomalous_groups
    )
    return {"group_cr": report.cr, "group_f1": report.f1, "group_auc": report.auc}


def mean_quality(rows: Iterable[Dict[str, float]]) -> Dict[str, float]:
    rows = list(rows)
    return {key: fmean(row[key] for row in rows) for key in ("group_cr", "group_f1", "group_auc")}


def result_is_valid(result) -> bool:
    """Structural check of one detection result.

    Scores are finite, one per candidate, and the flagged groups are
    exactly the candidates scoring at or above the threshold.
    """
    scores = np.asarray(result.scores, dtype=np.float64)
    if scores.shape != (len(result.candidate_groups),) or not np.all(np.isfinite(scores)):
        return False
    flagged = sorted(tuple(sorted(g.nodes)) for g in result.anomalous_groups)
    expected = sorted(
        tuple(sorted(g.nodes))
        for g, score in zip(result.candidate_groups, scores)
        if score >= result.threshold
    )
    return len(result.candidate_groups) > 0 and flagged == expected


def result_digest(result) -> str:
    """The provenance score digest of a result's wire form."""
    from repro.obs.provenance import score_digest

    return score_digest(result.to_json_dict())


def _panel_graphs(seeds) -> List:
    from repro.datasets import make_simml

    return [make_simml(scale=settings.PANEL_SCALE, seed=seed) for seed in seeds]


def fit_panel() -> Dict[str, float]:
    """Mean quality of cold ``fit_detect`` over the fit panel."""
    from repro.core import TPGrGAD

    rows = []
    for graph in _panel_graphs(settings.PANEL_FIT_SEEDS):
        rows.append(evaluate(TPGrGAD(settings.pipeline_config()).fit_detect(graph), graph.groups))
    return mean_quality(rows)


def serve_panel() -> Dict[str, float]:
    """Mean quality of warm ``detect_only`` over the serve panel.

    The panel model is fitted on the first fit-panel graph; served
    responses are checked bit-identical to ``detect_only`` elsewhere, so
    scoring in process gives the quality the server would return.
    """
    from repro.core import TPGrGAD

    detector = TPGrGAD(settings.pipeline_config())
    detector.fit_detect(_panel_graphs(settings.PANEL_FIT_SEEDS[:1])[0])
    rows = [
        evaluate(detector.detect_only(graph), graph.groups)
        for graph in _panel_graphs(settings.PANEL_SERVE_SEEDS)
    ]
    return mean_quality(rows)


def stream_panel() -> Dict[str, float]:
    """Quality of the final tick of the panel stream, replayed without refits.

    Every tick after the initial fit is an incremental update, so this
    figure tests the incremental path; refit numerics are those of
    ``fit_detect``, which :func:`fit_panel` covers.
    """
    from repro.datasets import make_burst_stream
    from repro.stream import IncrementalTPGrGAD, StreamConfig

    stream = make_burst_stream(
        "simml", scale=settings.PANEL_SCALE, seed=settings.PANEL_FIT_SEEDS[0],
        n_ticks=settings.PANEL_STREAM_TICKS,
    )
    detector = IncrementalTPGrGAD(
        stream.base, settings.pipeline_config(), StreamConfig(refit_policy="never")
    )
    for delta in stream.deltas:
        detector.update(delta)
    return evaluate(detector.result, stream.groups)
