"""Workload constants: sizes, model configuration, the serve rate and the quality panel."""

from __future__ import annotations

# --- the program's configuration (same for every workload) ---------------
MHGAE_EPOCHS = 15
TPGCL_EPOCHS = 4
CONFIG_SEED = 0

# --- fit -----------------------------------------------------------------
FIT_SCALE = 1.0          # simML at the paper's size: 2,768 nodes, ~4.2k edges
FIT_MIN_GRAPHS = 3       # every run fits at least this many graphs
SETUP_REPEATS = 3        # set-up is measured this many times; the median is reported

# --- serve ---------------------------------------------------------------
SERVE_ARTIFACT_SCALE = 0.5    # the served snapshots, not the artifact's graph, set the work
# Pool sizes: 550 to 2,768 nodes, concentrated around scale 0.6 (cubic
# spacing), so the median request is one of several similar snapshots
# rather than whichever of two very different ones noise puts in the middle.
SERVE_POOL_SCALES = tuple(0.6 + 0.4 * u ** 3 for u in (-1 + 2 * i / 15 for i in range(16)))
# Both phases send whole shuffled passes over the pool, so every run scores
# the same mix of snapshot sizes.  Phase 1 is an open loop at a fixed rate
# (requests/s), about half of the closed-loop capacity measured at the
# parent commit with one BLAS thread on 2 cores; phase 2 is a closed loop.
# Pass counts are per 20 s of --seconds (about 13 s and 11 s at the parent).
SERVE_OPEN_RATE = 1.25
SERVE_OPEN_PASSES = 1
SERVE_CLOSED_PASSES = 2
SERVE_CONNECTIONS = 2    # at most nproc connections from the one generator process

# --- stream --------------------------------------------------------------
STREAM_SCALE = 1.0
# A run replays STREAM_REPLAYS distinct streams of STREAM_TICKS_PER_SECOND
# * --seconds ticks each and pools their tick latencies.  A stream's events
# are fixed by its graph, so more ticks make each tick's delta smaller.  At
# a drift budget of 0.4 (the default is 0.25) each stream refits once, near
# tick 58 of 100, so a run holds two refits and ~200 incremental ticks in
# ~40 s.  One 40-tick stream at the default budget has only ~3 s of
# incremental ticks; its tick median moved ~30% across runs of the same code.
STREAM_TICKS_PER_SECOND = 5.0  # 100 ticks per stream at --seconds 20
STREAM_REFIT_POLICY = "budget"
STREAM_DRIFT_BUDGET = 0.4
STREAM_REPLAYS = 2  # each replay starts with its own construction, a set-up sample

# --- quality panel: fixed inputs, so quality repeats exactly across seeds --
PANEL_SCALE = 0.2
PANEL_FIT_SEEDS = (0,)
PANEL_SERVE_SEEDS = (1, 2, 3)
PANEL_STREAM_TICKS = 20


def pipeline_config():
    """The TP-GrGAD configuration every workload runs."""
    from repro.core import TPGrGADConfig
    from repro.gae import MHGAEConfig
    from repro.gcl import TPGCLConfig

    return TPGrGADConfig(
        mhgae=MHGAEConfig(epochs=MHGAE_EPOCHS),
        tpgcl=TPGCLConfig(epochs=TPGCL_EPOCHS),
        seed=CONFIG_SEED,
    )


def input_seed(seed: int, index: int) -> int:
    """Dataset seed of the ``index``-th generated input of a run seeded ``seed``."""
    return 1_000 * int(seed) + int(index)
