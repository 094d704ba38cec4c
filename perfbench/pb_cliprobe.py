"""CLI-layer probe, run in a fresh interpreter per sample.

    python perfbench/pb_cliprobe.py cost --area ... (any `repro` argv)

Times `import repro.cli`, `repro.cli.build_parser()` and
`repro.cli.main(argv)` (which builds its own parser again), and prints
one JSON line with the three times and main's captured stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    start = time.perf_counter()
    import repro.cli

    imported = time.perf_counter()
    repro.cli.build_parser()
    parsed = time.perf_counter()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = repro.cli.main(argv)
    done = time.perf_counter()
    print(json.dumps({
        "import_ms": (imported - start) * 1e3,
        "parser_ms": (parsed - imported) * 1e3,
        "main_ms": (done - parsed) * 1e3,
        "code": code,
        "stdout": captured.getvalue(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
