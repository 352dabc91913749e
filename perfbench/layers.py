"""Per-layer timing for the traced run.

:class:`LayerClock` wraps the public functions of each layer of the
program (MH-GAE, the GraphSNN reconstruction target, Algorithm-1
sampling, TPGCL, the outlier detector, artifact loading and the stream's
graph writes) and records each layer's *exclusive* wall time: time spent
in a nested wrapped call is charged to the inner layer only.  The layer
times of one operation therefore add up to at most its wall time, and the
remainder is the pipeline's own code (``core.self_s``).

The wrappers are installed for the traced run only and removed afterwards;
:meth:`LayerClock.restore` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# Reported layers, in report order.
LAYERS = (
    "gae.fit",
    "graph.target",
    "gae.warm",
    "sampling",
    "gcl.fit",
    "gcl.embed",
    "outlier.score",
    "persist.load",
    "stream.apply",
)


def _count_gae_epochs(clock: "LayerClock", args, result) -> None:
    clock.add("gae.epochs", args[0].training_result.epochs_run)


def _count_gcl_epochs(clock: "LayerClock", args, result) -> None:
    clock.add("gcl.epochs", args[0].training_result.epochs_run)


def _count_embedded_groups(clock: "LayerClock", args, result) -> None:
    clock.add("gcl.groups", len(args[2]))


def _count_candidates(clock: "LayerClock", args, result) -> None:
    clock.add("sampling.candidates", len(result))


# (module, class or None for a module-level function, attribute, layer, counter hook)
TARGETS: Tuple[Tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    ("repro.gae.autoencoder", "GraphAutoEncoder", "fit", "gae.fit", _count_gae_epochs),
    ("repro.gae.autoencoder", "GraphAutoEncoder", "score_nodes", "gae.warm", None),
    ("repro.persist.artifact", "PipelineState", "bind_mhgae", "gae.warm", None),
    ("repro.graph.adjacency", None, "graphsnn_weighted_adjacency", "graph.target", None),
    ("repro.sampling.sampler", "CandidateGroupSampler", "propose_pairs", "sampling", None),
    ("repro.sampling.sampler", "CandidateGroupSampler", "collect", "sampling", None),
    ("repro.sampling.sampler", "CandidateGroupSampler", "finalize", "sampling", _count_candidates),
    ("repro.sampling.engine", "MultiSourceSearchEngine", "__init__", "sampling", None),
    ("repro.sampling.engine", "MultiSourceSearchEngine", "distances", "sampling", None),
    ("repro.sampling.engine", "MultiSourceSearchEngine", "path_group", "sampling", None),
    ("repro.sampling.engine", "MultiSourceSearchEngine", "tree_group", "sampling", None),
    ("repro.sampling.engine", "MultiSourceSearchEngine", "cycle_groups", "sampling", None),
    ("repro.gcl.tpgcl", "TPGCL", "fit", "gcl.fit", _count_gcl_epochs),
    ("repro.gcl.tpgcl", "TPGCL", "embed_groups", "gcl.embed", _count_embedded_groups),
    ("repro.outlier.base", "OutlierDetector", "fit_scores", "outlier.score", None),
    ("repro.persist.artifact", "PipelineState", "load", "persist.load", None),
    ("repro.stream.delta", "StreamingGraph", "apply", "stream.apply", None),
)


class LayerClock:
    """Exclusive wall time, call counts and work counters per layer."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        # (owner, attribute, original object) in installation order.
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counts[counter] += value

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, layer: str, hook: Optional[Callable]) -> Callable:
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(clock._local, "stack", None)
            if stack is None:
                stack = clock._local.stack = []
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with clock._lock:
                    clock.seconds[layer] += elapsed - children[0]
                    clock.calls[layer] += 1
            if hook is not None:
                hook(clock, args, result)
            return result

        return timed

    def _patch(self, owner: object, attr: str, original: object, replacement: object) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> "LayerClock":
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        # Load the whole package first: a module imported while the wrappers
        # are in place would keep a wrapped re-export after restore().
        for module_name in ("repro.core", "repro.gae", "repro.persist", "repro.stream", *(t[0] for t in TARGETS)):
            importlib.import_module(module_name)
        for module_name, class_name, attr, layer, hook in TARGETS:
            module = sys.modules[module_name]
            if class_name is None:
                original = getattr(module, attr)
                wrapped = self._wrap(original, layer, hook)
                # Re-exports (``from x import f``) hold their own reference.
                for name, loaded in list(sys.modules.items()):
                    if (name == "repro" or name.startswith("repro.")) and getattr(loaded, attr, None) is original:
                        self._patch(loaded, attr, original, wrapped)
                continue
            owner = getattr(module, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(raw.__func__, layer, hook))
            else:
                replacement = self._wrap(raw, layer, hook)
            self._patch(owner, attr, raw, replacement)
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["LayerClock"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()


def layer_metrics(snapshot: Dict[str, Dict[str, float]], wall_s: float, n_ops: int) -> Dict[str, float]:
    """Per-op layer metrics and the coverage of ``wall_s`` by the layers.

    ``wall_s`` is the wall time of the ``n_ops`` traced operations the
    snapshot covers.  Layer seconds are exclusive, so their sum must not
    exceed the wall time; ``core.self_s`` is what no layer accounts for.
    """
    seconds, calls, counts = snapshot["seconds"], snapshot["calls"], snapshot["counts"]
    per_op = max(n_ops, 1)
    attributed = sum(seconds.get(layer, 0.0) for layer in LAYERS if layer != "persist.load")
    gae_epochs = counts.get("gae.epochs", 0.0)
    gcl_epochs = counts.get("gcl.epochs", 0.0)
    load_calls = calls.get("persist.load", 0)
    return {
        "gae.fit_s": seconds.get("gae.fit", 0.0) / per_op,
        "gae.epoch_ms": 1e3 * seconds.get("gae.fit", 0.0) / gae_epochs if gae_epochs else 0.0,
        "graph.target_s": seconds.get("graph.target", 0.0) / per_op,
        "gae.warm_s": seconds.get("gae.warm", 0.0) / per_op,
        "sampling.sample_s": seconds.get("sampling", 0.0) / per_op,
        "sampling.candidates": counts.get("sampling.candidates", 0.0) / per_op,
        "gcl.fit_s": seconds.get("gcl.fit", 0.0) / per_op,
        "gcl.epoch_ms": 1e3 * seconds.get("gcl.fit", 0.0) / gcl_epochs if gcl_epochs else 0.0,
        "gcl.embed_s": seconds.get("gcl.embed", 0.0) / per_op,
        "gcl.groups": counts.get("gcl.groups", 0.0) / per_op,
        "outlier.score_s": seconds.get("outlier.score", 0.0) / per_op,
        "stream.apply_s": seconds.get("stream.apply", 0.0) / per_op,
        "persist.load_s": seconds.get("persist.load", 0.0) / load_calls if load_calls else 0.0,
        "core.self_s": (wall_s - attributed) / per_op,
        "core.self_pct": 100.0 * (wall_s - attributed) / wall_s if wall_s > 0 else 0.0,
    }
