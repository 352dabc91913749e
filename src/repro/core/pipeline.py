"""The three-stage TP-GrGAD pipeline (Fig. 2 of the paper).

1. **Anchor node localization** — fit MH-GAE on the whole graph, take the
   top-``anchor_fraction`` of nodes by reconstruction error as anchors.
2. **Candidate group sampling** — run Algorithm 1 (path / tree / cycle
   searches) from the anchors to collect candidate groups.
3. **Candidate group discrimination** — train TPGCL on the candidates
   (PPA/PBA views, Eqn. 8 objective), embed each candidate, score the
   embeddings with an unsupervised outlier detector (ECOD by default) and
   flag groups whose score exceeds the threshold τ.

Besides the single-graph :meth:`TPGrGAD.fit_detect`, the pipeline exposes
a batched :meth:`TPGrGAD.fit_detect_many` that scores a list of graphs
through one call.  Stage outputs (anchors, candidates, group embeddings)
are cached per ``(graph fingerprint, config)`` so repeated graphs — the
common case in Table-III-style experiment grids sweeping thresholds or
detectors — skip the expensive training stages entirely.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TPGrGADConfig
from repro.core.result import GroupDetectionResult
from repro.gae import MultiHopGAE, select_anchor_nodes
from repro.gcl import TPGCL
from repro.graph import Graph, Group
from repro.obs.tracer import get_tracer
from repro.outlier import get_detector
from repro.sampling import CandidateGroupSampler


@dataclass
class _StageOutputs:
    """Everything the deterministic training stages produce for one graph.

    The fitted stage models ride along so a cache hit can restore the
    detector's ``mhgae`` / ``tpgcl`` attributes to the models that actually
    produced the returned result.
    """

    anchor_nodes: np.ndarray
    node_scores: Optional[np.ndarray]
    candidates: List[Group]
    embeddings: Optional[np.ndarray]
    mhgae: Optional[MultiHopGAE]
    tpgcl: Optional[TPGCL]


class TPGrGAD:
    """Topology Pattern Enhanced Unsupervised Group-level Graph Anomaly Detection.

    Examples
    --------
    >>> from repro.datasets import make_example_graph
    >>> detector = TPGrGAD(TPGrGADConfig.fast())
    >>> result = detector.fit_detect(make_example_graph())
    >>> result.n_candidates > 0
    True
    """

    def __init__(self, config: Optional[TPGrGADConfig] = None) -> None:
        self.config = config or TPGrGADConfig()
        self.mhgae: Optional[MultiHopGAE] = None
        self.tpgcl: Optional[TPGCL] = None
        self._graph: Optional[Graph] = None
        self._stage_cache: "OrderedDict[Tuple[str, str], _StageOutputs]" = OrderedDict()
        self.cache_hits: int = 0
        self.cache_misses: int = 0
        self.cache_evictions: int = 0
        # Loaded artifact state (set by TPGrGAD.load); detect_only prefers
        # it over the live fitted models.
        self._warm_state = None
        # Identity of the graph the live models were actually *trained* on
        # (a streaming warm start rebinds self._graph to the snapshot it
        # serves, so the manifest fingerprint cannot come from there), and
        # the TPGCL that training produced (a warm start may null
        # self.tpgcl when it skips the head — that must never erase
        # trained weights from what save() exports).
        self._fitted_fingerprint: Optional[str] = None
        self._fitted_n_features: Optional[int] = None
        self._fitted_tpgcl: Optional[TPGCL] = None

    # ------------------------------------------------------------------
    # Stage 1: anchor localization
    # ------------------------------------------------------------------
    def locate_anchors(self, graph: Graph) -> np.ndarray:
        """Fit MH-GAE and return anchor node indices (sorted by error)."""
        # Real training supersedes any loaded artifact state: save() must
        # export the freshly fitted models from here on, not the stale
        # weights the detector was loaded with.
        self._warm_state = None
        self._fitted_fingerprint = graph.fingerprint()
        self._fitted_n_features = graph.n_features
        self._fitted_tpgcl = None  # a new training generation begins
        self.mhgae = MultiHopGAE(self.config.mhgae)
        self.mhgae.fit(graph)
        return select_anchor_nodes(
            self.mhgae.score_nodes(),
            fraction=self.config.anchor_fraction,
            maximum=self.config.max_anchors,
        )

    # ------------------------------------------------------------------
    # Stage 2: candidate group sampling
    # ------------------------------------------------------------------
    def sample_candidates(self, graph: Graph, anchor_nodes: Sequence[int]) -> List[Group]:
        """Run Algorithm 1 from the anchor nodes."""
        sampler = CandidateGroupSampler(self.config.sampler)
        return sampler.sample(graph, anchor_nodes)

    # ------------------------------------------------------------------
    # Stage 3: discrimination
    # ------------------------------------------------------------------
    @staticmethod
    def _mean_features(graph: Graph, candidates: List[Group]) -> np.ndarray:
        return np.vstack(
            [graph.features[list(group.nodes)].mean(axis=0) for group in candidates]
        )

    def _embed_candidates(self, graph: Graph, candidates: List[Group]) -> np.ndarray:
        mean_features = self._mean_features(graph, candidates)
        if self.config.use_tpgcl and len(candidates) >= 2:
            self.tpgcl = TPGCL(self.config.tpgcl)
            self.tpgcl.fit(graph, candidates)
            self._fitted_tpgcl = self.tpgcl
            contrastive = self.tpgcl.embed_groups(graph, candidates)
            # The representation handed to the outlier detector keeps the
            # group's aggregate attribute profile alongside the topology-
            # pattern-sensitive TPGCL embedding (implementation note in
            # DESIGN.md): the contrastive objective alone is free to discard
            # attribute-level signal that the detector still needs.
            return np.hstack([contrastive, mean_features])
        # Table V ablation ("w/o TPGCL"): mean node features per group only.
        return mean_features

    def _score_embeddings(self, embeddings: np.ndarray) -> np.ndarray:
        detector = get_detector(self.config.detector)
        return detector.fit_scores(embeddings)

    # ------------------------------------------------------------------
    # Stage orchestration + per-graph cache
    # ------------------------------------------------------------------
    def _cache_key(self, graph: Graph) -> Tuple[str, str]:
        # content_hash covers every hyperparameter of every stage, so two
        # configs share a key exactly when they run identical pipelines —
        # and it is the same identity the artifact manifest and the serve
        # registry use, so a cache key can be correlated with a deployed
        # model version.
        return (graph.fingerprint(), self.config.content_hash())

    def clear_cache(self) -> None:
        """Drop all cached stage outputs and reset the cache counters."""
        self._stage_cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    def cache_info(self) -> Dict[str, int]:
        """Stage-cache statistics: hits / misses / evictions / sizes.

        The public read surface for operational monitoring (the serve
        layer's ``/metrics`` endpoint reports this verbatim) — callers
        never need to poke the private LRU.  Counters accumulate until
        :meth:`clear_cache` resets them, so they cannot grow unboundedly
        out of sync with a cache that was just emptied.
        """
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "evictions": self.cache_evictions,
            "currsize": len(self._stage_cache),
            "maxsize": self.config.cache_size,
        }

    def _run_stages(self, graph: Graph) -> _StageOutputs:
        """Run (or recall) the deterministic training stages for ``graph``.

        Every stage is seeded from the config, so recomputing for the same
        ``(graph fingerprint, config)`` key reproduces the cached outputs;
        the cache only skips redundant work, never changes results.
        """
        tracer = get_tracer()
        key = self._cache_key(graph) if self.config.cache_size else None
        cached = self._stage_cache.get(key) if key is not None else None
        if cached is not None:
            self._stage_cache.move_to_end(key)
            self.cache_hits += 1
            tracer.add("cache_hits")
            # Keep the stage-model attributes consistent with the result:
            # callers inspect e.g. ``detector.mhgae.score_nodes()`` after a
            # fit, and must see the models that scored *this* graph.
            self.mhgae = cached.mhgae
            self.tpgcl = cached.tpgcl
            self._fitted_fingerprint = key[0]
            self._fitted_n_features = graph.n_features
            self._fitted_tpgcl = cached.tpgcl
            # The rebound generation supersedes any cached/loaded export,
            # exactly as training does on the miss path.
            self._warm_state = None
            return cached
        self.cache_misses += 1
        tracer.add("cache_misses")

        self.tpgcl = None  # only set when the TPGCL stage actually runs
        with tracer.span("stage.anchors"):
            anchor_nodes = self.locate_anchors(graph)
        with tracer.span("stage.sampling") as span:
            candidates = self.sample_candidates(graph, anchor_nodes)
            span.add("n_candidates", len(candidates))
        with tracer.span("stage.embed"):
            embeddings = self._embed_candidates(graph, candidates) if candidates else None
        outputs = _StageOutputs(
            anchor_nodes=np.asarray(anchor_nodes),
            node_scores=self.mhgae.score_nodes() if self.mhgae else None,
            candidates=candidates,
            embeddings=embeddings,
            mhgae=self.mhgae,
            tpgcl=self.tpgcl,
        )
        if key is not None:
            self._stage_cache[key] = outputs
            while len(self._stage_cache) > self.config.cache_size:
                self._stage_cache.popitem(last=False)
                self.cache_evictions += 1
                tracer.add("cache_evictions")
        return outputs

    def _score_stages(self, outputs: _StageOutputs, threshold: Optional[float]) -> GroupDetectionResult:
        """Turn stage outputs into a scored, thresholded result.

        Containers are copied at this boundary (Group objects themselves
        are frozen) so a caller mutating a returned result can never
        corrupt the cache or results of later calls.
        """
        if not outputs.candidates:
            return GroupDetectionResult(
                candidate_groups=[],
                scores=np.array([]),
                threshold=0.0,
                anomalous_groups=[],
                anchor_nodes=outputs.anchor_nodes.copy(),
                node_scores=None if outputs.node_scores is None else outputs.node_scores.copy(),
            )

        with get_tracer().span("stage.score"):
            scores = self._score_embeddings(outputs.embeddings)
        if threshold is None:
            threshold = float(np.quantile(scores, 1.0 - self.config.contamination))
        anomalous = [
            group.with_score(float(score))
            for group, score in zip(outputs.candidates, scores)
            if score >= threshold
        ]
        return GroupDetectionResult(
            candidate_groups=list(outputs.candidates),
            scores=scores,
            threshold=float(threshold),
            anomalous_groups=anomalous,
            anchor_nodes=outputs.anchor_nodes.copy(),
            embeddings=outputs.embeddings.copy(),
            node_scores=None if outputs.node_scores is None else outputs.node_scores.copy(),
        )

    # ------------------------------------------------------------------
    # End-to-end
    # ------------------------------------------------------------------
    def fit_detect(self, graph: Graph, threshold: Optional[float] = None) -> GroupDetectionResult:
        """Run the full pipeline on ``graph`` and return scored groups.

        Parameters
        ----------
        graph:
            The attributed graph to analyse (ground-truth groups, if any,
            are ignored by the detector and only used for evaluation).
        threshold:
            Optional explicit score threshold τ; when omitted it is set to
            the ``1 - contamination`` quantile of the candidate scores.
        """
        tracer = get_tracer()
        with tracer.span("pipeline.fit_detect") as span:
            self._graph = graph
            result = self._score_stages(self._run_stages(graph), threshold)
            if tracer.enabled:
                span.set("n_nodes", graph.n_nodes)
                span.set("n_candidates", result.n_candidates)
                span.set("n_anomalous", result.n_anomalous)
            return result

    def fit_detect_many(
        self,
        graphs: Iterable[Graph],
        threshold: Optional[float] = None,
        n_workers: Optional[int] = None,
    ) -> List[GroupDetectionResult]:
        """Score a list of graphs through one call (the batched API).

        Each graph is scored independently with this detector's config —
        the result for a graph does not depend on batch order or
        composition, so ``fit_detect_many(gs) == [fit_detect(g) for g in
        gs]`` — but graphs repeated within or across calls hit the
        per-``(fingerprint, config)`` stage cache and skip the MH-GAE /
        sampling / TPGCL training entirely.

        ``n_workers > 1`` shards the batch across a process pool via
        :class:`repro.parallel.ParallelExecutor`; results are bit-identical
        to the serial order, the executor's duplicate-graph hits are
        merged back into this detector's ``cache_hits``/``cache_misses``
        counters, and the post-fit contract survives: this detector ends
        up holding (warm-bound copies of) the models that scored the
        batch's last graph, so ``save()`` / ``mhgae.score_nodes()`` work
        exactly as after a serial call.  Only the stage *cache* stays
        local to the workers — the fitted model objects cannot cross the
        process boundary.
        """
        if n_workers is not None and n_workers > 1:
            from repro.parallel import ParallelExecutor

            graphs = list(graphs)
            executor = ParallelExecutor(self.config, n_workers=n_workers)
            results = executor.fit_detect_many(graphs, threshold=threshold)
            self.cache_hits += executor.cache_hits
            self.cache_misses += executor.cache_misses
            if executor.final_state is not None and graphs:
                state = executor.final_state
                # The batch trained fresh models; they supersede any
                # loaded artifact state exactly as serial training does.
                self._warm_state = None
                self._graph = graphs[-1]
                self._fitted_fingerprint = state.graph_fingerprint
                self._fitted_n_features = state.n_features
                self.mhgae = state.bind_mhgae(graphs[-1])
                self.tpgcl = state.bind_tpgcl()
                self._fitted_tpgcl = self.tpgcl
            return results
        return [self.fit_detect(graph, threshold=threshold) for graph in graphs]

    # ------------------------------------------------------------------
    # Warm inference + persistence
    # ------------------------------------------------------------------
    def detect_only(self, graph: Graph, threshold: Optional[float] = None) -> GroupDetectionResult:
        """Score ``graph`` with the already-trained stage models (no training).

        Uses the loaded artifact state when this detector came from
        :meth:`load`, otherwise the live models of the last
        :meth:`fit_detect`.  On the graph the pipeline was fitted on this
        reproduces ``fit_detect`` exactly (same weights, same seeded
        sampler); on *new* graphs of the same feature dimensionality it is
        the warm-start serving path — anchors are scored by the trained
        MH-GAE and candidates embedded by the trained TPGCL encoder, with
        only the cheap sampling and outlier stages recomputed.

        The computation itself only reads the (immutable) config and
        :class:`~repro.persist.PipelineState`, and every per-call model
        binding and intermediate lives in locals — overlapping
        ``detect_only`` calls on one warm detector from multiple threads
        each produce exactly their serial result.  Nothing is written back
        to the detector: ``mhgae`` / ``tpgcl`` keep the trained models,
        and a serving detector holds no reference to the last scored
        graph or the MH-GAE bound to it, so its memory does not depend on
        which request came last.
        """
        from repro.persist import PipelineState

        tracer = get_tracer()
        with tracer.span("pipeline.detect_only") as top:
            state = self._warm_state
            if state is None:
                # Cache the export: serving N graphs must not re-copy every
                # parameter array N times.  Training invalidates this via
                # locate_anchors (which clears _warm_state).
                state = PipelineState.from_fitted(self)
                self._warm_state = state

            with tracer.span("stage.warm_bind"):
                mhgae = state.bind_mhgae(graph)
                node_scores = mhgae.score_nodes()
                anchor_nodes = select_anchor_nodes(
                    node_scores,
                    fraction=self.config.anchor_fraction,
                    maximum=self.config.max_anchors,
                )
            with tracer.span("stage.sampling") as span:
                candidates = self.sample_candidates(graph, anchor_nodes)
                span.add("n_candidates", len(candidates))

            with tracer.span("stage.warm_embed"):
                tpgcl, embeddings = self._warm_embed(state, graph, candidates)

            outputs = _StageOutputs(
                anchor_nodes=np.asarray(anchor_nodes),
                node_scores=node_scores,
                candidates=candidates,
                embeddings=embeddings,
                mhgae=mhgae,
                tpgcl=tpgcl,
            )
            if tracer.enabled:
                top.set("n_nodes", graph.n_nodes)
            return self._score_stages(outputs, threshold)

    def _warm_embed(self, state, graph: Graph, candidates: List[Group]):
        """Embed candidates with a PipelineState's trained encoder (no training).

        The single home of the warm TPGCL gating rule — the head applies
        exactly when the training path would have run it (``use_tpgcl``,
        ≥ 2 candidates) *and* the state actually carries a trained
        encoder.  Returns ``(tpgcl_or_None, embeddings_or_None)``; used by
        :meth:`detect_only` and the streaming warm start.
        """
        if not candidates:
            return None, None
        mean_features = self._mean_features(graph, candidates)
        tpgcl = (
            state.bind_tpgcl()
            if self.config.use_tpgcl and len(candidates) >= 2
            else None
        )
        if tpgcl is not None:
            contrastive = tpgcl.embed_groups(graph, candidates)
            return tpgcl, np.hstack([contrastive, mean_features])
        return None, mean_features

    def save(self, path) -> str:
        """Persist the fitted pipeline as an artifact directory.

        Writes encoder/MH-GAE parameters as ``arrays.npz`` plus a JSON
        manifest (config, graph fingerprint, library versions); see
        :mod:`repro.persist.artifact` for the format.
        """
        from repro.persist import save_pipeline

        return str(save_pipeline(self, path))

    @classmethod
    def from_state(cls, state) -> "TPGrGAD":
        """Wrap a :class:`repro.persist.PipelineState` in a warm detector.

        The in-memory counterpart of :meth:`load`: the returned detector
        serves :meth:`detect_only` from ``state`` without retraining.
        This is the constructor the serve registry uses — it holds the
        ``PipelineState`` itself (for identity metadata) and builds the
        serving detector from it through this public seam.
        """
        detector = cls(state.config)
        detector._warm_state = state
        return detector

    @classmethod
    def load(cls, path) -> "TPGrGAD":
        """Load an artifact saved by :meth:`save` into a warm detector.

        The returned detector serves :meth:`detect_only` immediately — no
        retraining — and reproduces the saved pipeline's in-memory
        ``fit_detect`` scores to machine precision on the fitted graph.
        """
        from repro.persist import load_pipeline

        return load_pipeline(path)
