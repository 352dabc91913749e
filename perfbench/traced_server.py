"""Run ``python -m repro.serve`` under the per-layer clock.

    python perfbench/traced_server.py LAYERS_JSON [repro.serve options...]

The clock is installed before the server loads its artifacts and removed
after the graceful drain; the per-layer totals are then written to
``LAYERS_JSON``.  Used by the traced run of the ``serve`` workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv) -> int:
    from perfbench.layers import LayerClock
    from repro.serve.__main__ import main as serve_main

    out, serve_argv = argv[0], argv[1:]
    clock = LayerClock()
    with clock.installed():
        code = serve_main(serve_argv)
    Path(out).write_text(json.dumps(clock.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
