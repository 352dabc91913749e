"""Per-layer clock of the benchmark: exclusive timing and clean removal."""

import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from perfbench import catalog  # noqa: E402
from perfbench.layers import TARGETS, LayerClock, layer_metrics  # noqa: E402


def _current(module_name, class_name, attr):
    module = sys.modules[module_name]
    return getattr(module, attr) if class_name is None else getattr(module, class_name).__dict__[attr]


def test_restore_puts_every_original_back():
    LayerClock().install().restore()  # loads every module the clock wraps
    before = {(m, c, a): _current(m, c, a) for m, c, a, _, _ in TARGETS}
    with LayerClock().installed():
        for key, value in before.items():
            assert _current(*key) is not value, key
    for key, value in before.items():
        assert _current(*key) is value, key

    import repro.gae.multihop
    import repro.graph
    from repro.graph.adjacency import graphsnn_weighted_adjacency

    assert repro.graph.graphsnn_weighted_adjacency is graphsnn_weighted_adjacency
    assert repro.gae.multihop.graphsnn_weighted_adjacency is graphsnn_weighted_adjacency


def test_layers_account_for_the_wall_time_of_a_fit():
    from repro.core import TPGrGAD, TPGrGADConfig
    from repro.datasets import make_example_graph
    from repro.gae import MHGAEConfig
    from repro.gcl import TPGCLConfig

    graph = make_example_graph(seed=3)
    config = TPGrGADConfig(mhgae=MHGAEConfig(epochs=3), tpgcl=TPGCLConfig(epochs=1), seed=0)
    plain = TPGrGAD(config).fit_detect(graph)
    clock = LayerClock()
    with clock.installed():
        start = time.perf_counter()
        traced = TPGrGAD(config).fit_detect(graph)
        wall = time.perf_counter() - start
    assert traced.to_json_dict() == plain.to_json_dict()

    snapshot = clock.snapshot()
    for layer in ("gae.fit", "graph.target", "gae.warm", "sampling", "gcl.fit", "gcl.embed", "outlier.score"):
        assert snapshot["calls"].get(layer, 0) >= 1, layer
    assert snapshot["counts"]["gae.epochs"] == 3
    assert snapshot["counts"]["sampling.candidates"] == len(traced.candidate_groups)

    metrics = layer_metrics(snapshot, wall, 1)
    assert 0.0 <= metrics["core.self_s"] < wall
    assert set(metrics) <= set(catalog.PER_LAYER)


def test_nested_calls_are_charged_to_the_inner_layer():
    clock = LayerClock()
    inner = clock._wrap(lambda: time.sleep(0.02), "inner", None)

    def outer():
        inner()
        time.sleep(0.01)

    clock._wrap(outer, "outer", None)()
    seconds = clock.snapshot()["seconds"]
    assert seconds["inner"] >= 0.02
    assert 0.01 <= seconds["outer"] < 0.02


def test_benchmark_json_matches_the_catalog():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == catalog.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["fit", "serve", "stream"]
