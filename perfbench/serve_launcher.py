"""Start ``repro.serve`` with the traced run's wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py LEDGER_JSON [repro.serve args]``.

Installs :func:`perfbench.ledger.install` before the service starts, so
every entry point it reaches (and every pool worker it forks) records
spans, serves until SIGTERM like ``python -m repro.serve``, then writes
its ledger lanes and shared-memory counters to ``LEDGER_JSON``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    out_path, serve_args = argv[0], argv[1:]
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]
    from perfbench import ledger

    ledger.install()
    from repro.graphs import shm
    from repro.serve.__main__ import main as serve_main

    code = serve_main(serve_args)
    data = {"lanes": ledger.LEDGER.lane_data(), "shm": shm.stats()}
    Path(out_path).write_text(json.dumps(data))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
