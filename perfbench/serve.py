"""``serve`` workload: online ``detect_only`` scoring over HTTP.

A ``python -m repro.serve`` subprocess serves a warm artifact (fitted
untimed with the workload configuration) with ``--provenance-log`` on.
Requests score a pool of 16 seeded simML snapshots spread over ~550 to
2,768 nodes.  One generator process (this one) drives the server over at
most ``SERVE_CONNECTIONS`` keep-alive connections, after one untimed
warm-up request:

* phase 1, an open loop at the fixed rate ``SERVE_OPEN_RATE``; latency is
  measured from when each request was due, so a stall also delays the
  requests queued behind it;
* phase 2, a closed loop; it gives capacity.

Each phase sends whole shuffled passes over the pool, as many as
``settings`` gives per 20 s of ``--seconds``.

Every response must carry the score digest of a direct
``TPGrGAD.load(artifact).detect_only`` on the same snapshot, computed once
before the server starts.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import common, quality, settings, stats
from perfbench.catalog import PER_LAYER
from perfbench.layers import LayerClock, layer_metrics

_PORT_LINE = re.compile(r"serving on http://[^:]+:(\d+)")
_ARTIFACT_INDEX = 100


class _Server:
    """One launched server process and the files it writes."""

    def __init__(self, work_dir: Path, artifact: Path, tag: str, traced: bool) -> None:
        self.log_path = work_dir / f"server-{tag}.log"
        self.provenance_path = work_dir / f"provenance-{tag}.jsonl"
        self.trace_path = work_dir / f"trace-{tag}.jsonl"
        self.layers_path = work_dir / f"layers-{tag}.json"
        args = [
            "--artifact", f"bench={artifact}", "--host", "127.0.0.1", "--port", "0",
            "--provenance-log", str(self.provenance_path), "--log-level", "INFO",
        ]
        if traced:
            shim = Path(__file__).with_name("traced_server.py")
            command = [sys.executable, str(shim), str(self.layers_path), *args, "--trace", str(self.trace_path)]
        else:
            command = [sys.executable, "-m", "repro.serve", *args]
        start = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(command, env=common.program_env(), stdout=log, stderr=log)
        try:
            self.port = self._wait_for_port()
            self._wait_for_health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_for_port(self, timeout: float = 120.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _PORT_LINE.search(self.log_path.read_text())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited: {self.log_path.read_text()[-2000:]}")
            time.sleep(0.01)
        raise TimeoutError("server did not report its port")

    def _wait_for_health(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self._get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise TimeoutError("server /healthz did not answer")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def _get(self, path: str):
        conn = self.connect()
        try:
            return _request(conn, "GET", path)
        finally:
            conn.close()

    def metrics(self) -> Dict:
        status, raw = self._get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(raw)

    def peak_rss_mb(self) -> float:
        return common.process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then wait; kill only if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)


def _request(conn: http.client.HTTPConnection, method: str, path: str, body: Optional[bytes] = None):
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


@dataclass
class _Sample:
    """One request: pool index, due/sent/done times (perf_counter), HTTP status and body."""

    snapshot: int
    due: float
    sent: float
    done: float
    status: int
    raw: bytes


def _drive(server: _Server, bodies: List[bytes], order: List[int], rate: Optional[float],
           connections: int) -> List[_Sample]:
    """Send ``order`` over ``connections`` keep-alive connections.

    With ``rate`` set this is an open loop: request ``i`` is due at
    ``start + i / rate`` and waits for a free connection if none is idle.
    Otherwise it is a closed loop: each connection sends its next request
    as soon as its previous response has arrived.
    """
    lock = threading.Lock()
    cursor = iter(range(len(order)))
    samples: List[_Sample] = []
    errors: List[BaseException] = []
    start = time.perf_counter() + 0.05

    def worker() -> None:
        conn = server.connect()
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                if rate is not None:
                    due = start + index / rate
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                else:
                    due = time.perf_counter()
                sent = time.perf_counter()
                try:
                    status, raw = _request(conn, "POST", "/score", bodies[order[index]])
                except (http.client.HTTPException, OSError):
                    # Counted as a failed request; carry on over a new connection.
                    status, raw = 0, b""
                    conn.close()
                    conn = server.connect()
                done = time.perf_counter()
                with lock:
                    samples.append(_Sample(order[index], due, sent, done, status, raw))
        except BaseException as error:  # reported by the caller after join
            errors.append(error)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return samples


def _prepare(seed: int, work_dir: Path):
    """Artifact, pool, request bodies and the reference digests (all untimed)."""
    from repro.core import TPGrGAD
    from repro.datasets import make_simml

    fitted = TPGrGAD(settings.pipeline_config())
    fitted.fit_detect(make_simml(scale=settings.SERVE_ARTIFACT_SCALE, seed=settings.input_seed(seed, _ARTIFACT_INDEX)))
    artifact = Path(fitted.save(work_dir / "artifact"))
    pool = [
        make_simml(scale=scale, seed=settings.input_seed(seed, k))
        for k, scale in enumerate(settings.SERVE_POOL_SCALES)
    ]
    bodies = [json.dumps({"graph": graph.to_json_dict()}).encode() for graph in pool]
    return artifact, pool, bodies


def _references(artifact: Path, pool) -> Tuple[List, float]:
    """Direct warm ``detect_only`` on each snapshot, and its wall time."""
    from repro.core import TPGrGAD

    warm = TPGrGAD.load(artifact)
    warm.detect_only(pool[0])  # first-call set-up is not part of the timed pass
    start = time.perf_counter()
    results = [warm.detect_only(graph) for graph in pool]
    return results, time.perf_counter() - start


def _orders(seed: int, n_pool: int, seconds: float) -> Tuple[List[int], List[int]]:
    """Seeded request orders for the two phases, each a run of shuffled passes over the pool."""
    rng = np.random.default_rng((int(seed), 7))

    def passes(per_20s: int) -> List[int]:
        n = max(1, round(per_20s * seconds / 20.0))
        return [int(i) for _ in range(n) for i in rng.permutation(n_pool)]

    return passes(settings.SERVE_OPEN_PASSES), passes(settings.SERVE_CLOSED_PASSES)


def _check_responses(outcome: common.Outcome, samples: List[_Sample], digests: List[str]) -> None:
    from repro.obs.provenance import score_digest

    for sample in samples:
        ok = sample.status == 200
        if ok:
            ok = score_digest(json.loads(sample.raw)["result"]) == digests[sample.snapshot]
        outcome.check(ok, f"snapshot {sample.snapshot}: status {sample.status} or digest mismatch")


def _phases(server: _Server, bodies, pool, open_order, closed_order):
    """Warm-up request, open loop, closed loop; returns the samples of each and the capacity."""
    connections = min(settings.SERVE_CONNECTIONS, os.cpu_count() or 1)
    smallest = min(range(len(pool)), key=lambda k: pool[k].n_nodes)
    warmup = _drive(server, bodies, [smallest], rate=None, connections=1)
    phase1 = _drive(server, bodies, open_order, rate=settings.SERVE_OPEN_RATE, connections=connections)
    closed_start = time.perf_counter()
    phase2 = _drive(server, bodies, closed_order, rate=None, connections=connections)
    # Capacity is counted while every connection is busy: up to the last
    # send, which in a closed loop coincides with a completion.  The drain
    # after it, with connections idling, is not capacity.
    last_sent = max(s.sent for s in phase2)
    completed = sum(s.done <= last_sent for s in phase2)
    capacity = completed / (last_sent - closed_start)
    return warmup, phase1, phase2, capacity


def _split(phase1: List[_Sample]) -> Tuple[List[float], List[float]]:
    """Server-side latency (the response's ``latency_ms``) and the rest of each request, in ms."""
    server_ms, transport_ms = [], []
    for sample in phase1:
        if sample.status == 200:
            inside = float(json.loads(sample.raw)["latency_ms"])
            server_ms.append(inside)
            transport_ms.append(1e3 * (sample.done - sample.sent) - inside)
    return server_ms, transport_ms


def run(seed: int, seconds: float, trace: bool, work_dir: Path) -> common.Outcome:
    outcome = common.Outcome()
    artifact, pool, bodies = _prepare(seed, work_dir)
    references, _ = _references(artifact, pool)
    digests = [quality.result_digest(result) for result in references]
    open_order, closed_order = _orders(seed, len(pool), seconds)

    if trace:
        # Traced and untraced in-process scoring must agree; their wall
        # times, in ABBA order after the reference pass has warmed the
        # process up, give the clock's overhead.
        plain_s = _references(artifact, pool)[1]
        with LayerClock().installed():
            traced = [_references(artifact, pool) for _ in range(2)]
        plain_s += _references(artifact, pool)[1]
        for results, _ in traced:
            for k, result in enumerate(results):
                outcome.check(quality.result_digest(result) == digests[k], f"snapshot {k}: traced result differs")
        traced_s = sum(seconds for _, seconds in traced)
        outcome.put("obs.trace_overhead_pct", 100.0 * (traced_s - plain_s) / plain_s, "%")
        servers = [_Server(work_dir, artifact, "traced", traced=True)]
    else:
        servers = []
        for repeat in range(settings.SETUP_REPEATS):
            if servers:
                servers[-1].stop()
            servers.append(_Server(work_dir, artifact, str(repeat), traced=False))
    server = servers[-1]
    try:
        warmup, phase1, phase2, capacity = _phases(server, bodies, pool, open_order, closed_order)
        final_metrics = server.metrics()
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    _check_responses(outcome, warmup + phase1 + phase2, digests)

    latencies = [s.done - s.due for s in phase1]
    late_ms = [1e3 * max(0.0, s.sent - s.due) for s in phase1]
    outcome.report["phase1"] = {
        "rate_per_s": settings.SERVE_OPEN_RATE, "requests": len(phase1),
        "generator_late_ms_mean": fmean(late_ms),
    }
    outcome.report["phase2"] = {"responses": len(phase2), "capacity_per_s": capacity}
    outcome.report["server"] = {
        key: final_metrics.get(key)
        for key in ("scored_total", "mean_batch_size", "dedup_hits_total", "shed_total")
    }

    if trace:
        snapshot = json.loads(server.layers_path.read_text())
        spans = [json.loads(line) for line in server.trace_path.read_text().splitlines() if line.strip()]
        stage_s: Dict[str, float] = {}
        for span in spans:
            if span["name"].startswith("stage.") or span["name"] == "serve.batch":
                stage_s[span["name"]] = stage_s.get(span["name"], 0.0) + span["duration_s"]
        scored = int(final_metrics["scored_total"])
        layer = layer_metrics(snapshot, stage_s.get("serve.batch", 0.0), scored)
        outcome.check(layer["core.self_s"] >= 0.0, "server layer times exceed serve.batch wall time")
        for name, value in layer.items():
            outcome.put(name, value, PER_LAYER[name])
        server_ms, transport_ms = _split(phase1)
        records = server.provenance_path.read_text().splitlines()
        outcome.put("serve.server_p50_ms", stats.median(server_ms), "ms")
        outcome.put("serve.transport_p50_ms", stats.median(transport_ms), "ms")
        outcome.put("serve.batch_size_mean", float(final_metrics["mean_batch_size"]), "count")
        outcome.put("serve.dedup_ratio", int(final_metrics["dedup_hits_total"]) / max(scored, 1), "ratio")
        outcome.put("serve.shed", float(final_metrics["shed_total"]), "count")
        outcome.put("serve.generator_late_ms", fmean(late_ms), "ms")
        outcome.put(
            "obs.provenance_bytes_per_req", server.provenance_path.stat().st_size / max(len(records), 1), "B"
        )
        outcome.report["server_trace_s"] = stage_s
        return outcome

    outcome.put_latencies(latencies, "open-loop request, scheduled send to response")
    outcome.put_common(
        [s.setup_s for s in servers], capacity, len(phase2), peak_rss, quality.serve_panel()
    )
    outcome.report["run_quality"] = quality.mean_quality(
        quality.evaluate(result, graph.groups) for result, graph in zip(references, pool)
    )
    return outcome
