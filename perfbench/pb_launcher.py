"""Traced `repro serve`: wraps the request-path functions, serves, and
writes its spans when the server exits (SIGINT).

    python perfbench/pb_launcher.py SPANS.json serve --port 0
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pb_trace import Recorder, install_service_probes  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    states: list = []
    install_service_probes(recorder, states)
    from repro.cli import main as repro_main

    try:
        code = repro_main(argv)
    finally:
        engine_caches = [state.engine.cache_info() for state in states]
        recorder.dump(spans_path, engine_caches=engine_caches)
    return code


if __name__ == "__main__":
    sys.exit(main())
