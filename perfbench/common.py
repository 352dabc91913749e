"""Pieces shared by the three workloads."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import stats

REPO_ROOT = Path(__file__).resolve().parents[1]


@dataclass
class Outcome:
    """What one workload run measured, checked and wants printed."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    report: Dict[str, Any] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, n: Optional[int] = None) -> None:
        self.metrics[name] = (float(value), unit)
        if n is not None:
            self.samples[name] = int(n)

    def check(self, ok: bool, what: str) -> bool:
        """Count one output check; a failed one is a failed op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def put_latencies(self, latencies_s: List[float], what: str) -> None:
        """``latency_p50_ms`` plus the tail (reported only when the sample supports one)."""
        latencies_ms = [1e3 * value for value in latencies_s]
        self.put("latency_p50_ms", stats.median(latencies_ms), "ms", len(latencies_ms))
        self.report["latency_of"] = what
        self.report["latency_tail"] = stats.tail(latencies_ms) or {
            "omitted": f"{len(latencies_ms)} samples; a tail needs at least {stats.MIN_BEYOND} beyond it"
        }

    def put_common(self, setup_s: List[float], ops_per_s: float, n_ops: int, peak_rss_mb: float,
                   quality: Dict[str, float]) -> None:
        """The end-to-end metrics every workload reports besides latency."""
        self.put("setup_s", stats.median(setup_s), "s", len(setup_s))
        self.put("ops_per_s", ops_per_s, "1/s", n_ops)
        self.put("peak_rss_mb", peak_rss_mb, "MB")
        for name, value in quality.items():
            self.put(name, value, "ratio")


def program_env() -> Dict[str, str]:
    """Environment of a program process: the repo's sources and one BLAS thread."""
    from perfbench.host import pin_blas_threads

    env = pin_blas_threads(dict(os.environ))
    paths = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def time_import_and_construct(code: str) -> float:
    """Seconds from spawning ``python -c code`` until it prints ``ready``."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], env=program_env(), stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        child.wait(timeout=60)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode}): {line!r}")
    return elapsed
