"""Shared plumbing of the benchmark: paths, child environments, order
statistics, the HTTP client and the `repro serve` process handle.

Everything here is benchmark-side: the program under test is only ever
reached through `python -m repro ...` processes, HTTP, or the library's
public functions.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The checkout the benchmark runs in (the directory holding `perfbench/`).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples"
#: Scratch space for stores, span files and server logs; removed per run.
WORK_ROOT = ROOT / ".perfbench_work"

#: Numeric-library thread pools are pinned to one thread in every
#: process, so the two cores go to the workload and not to BLAS spinners.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, a process that will
    not start); reported on stderr with a non-zero exit and no result."""


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file() and (
        EXAMPLES / "corpus_granularity.json"
    ).is_file()


def pin_threads() -> None:
    """Apply the thread pins to this process (before numpy loads)."""
    for key, value in THREAD_PINS.items():
        os.environ[key] = value


def make_work_dir(name: str) -> Path:
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_env(work: Path) -> dict[str, str]:
    """Environment of every program process: the checkout's `src` on
    the path, pinned thread pools, temporary files inside the checkout."""
    env = dict(os.environ)
    env.update(THREAD_PINS)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    env["TMPDIR"] = str(work)
    env.pop("REPRO_CORPUS_FAULTS", None)
    return env


def use_checkout_tmp(work: Path) -> None:
    """Point this process's temporary files into the checkout too."""
    import tempfile

    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)


# ----------------------------------------------------------------------
# order statistics
# ----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    """The 90th percentile (`statistics.quantiles`, exclusive method)."""
    return float(statistics.quantiles(values, n=10)[8])


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of a live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------


class Client:
    """One persistent HTTP/1.1 connection (closed-loop: one request in
    flight at a time)."""

    def __init__(self, port: int, timeout: float = 60.0):
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=timeout
        )

    def post(self, path: str, body: bytes) -> tuple[int, bytes, float]:
        """Send one request; returns (status, body, seconds)."""
        start = time.perf_counter()
        self.connection.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = self.connection.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - start

    def get_json(self, path: str) -> dict:
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        data = response.read()
        if response.status != 200:
            raise BenchError(f"GET {path} returned {response.status}")
        return json.loads(data)

    def close(self) -> None:
        self.connection.close()


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------


class ServerProcess:
    """A `repro serve --port 0` process (or the traced launcher).

    ``startup_s`` is launch to the first healthy ``/healthz``.
    """

    def __init__(self, argv: list[str], work: Path, tag: str):
        self.log_path = work / f"{tag}.stderr"
        env = child_env(work)
        self._log = open(self.log_path, "wb")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            line = self.process.stdout.readline().decode("utf-8", "replace")
            if not line.startswith("serving on http://"):
                raise BenchError(
                    f"server did not start: {line!r}; see {self.log_path}"
                )
            self.port = int(line.strip().rsplit(":", 1)[1])
            self._wait_healthy(deadline=time.monotonic() + 60.0)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - start

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            client = Client(self.port, timeout=5.0)
            try:
                client.get_json("/healthz")
                return
            except (OSError, http.client.HTTPException, BenchError):
                if time.monotonic() > deadline:
                    raise BenchError("server never became healthy") from None
                time.sleep(0.005)
            finally:
                client.close()

    def health(self) -> dict:
        client = Client(self.port)
        try:
            return client.get_json("/healthz")
        finally:
            client.close()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> int:
        """SIGINT (the server's clean shutdown), then wait; kill if it
        does not end."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
        return self.process.returncode


def serve_argv() -> list[str]:
    """`repro serve` at its default settings on a free port."""
    return [sys.executable, "-m", "repro", "serve", "--port", "0"]


def launch_servers(argv: list[str], work: Path, launches: int, tag: str):
    """Launch ``launches`` servers one after another, keep the last.

    Returns (median start-up seconds, the running server)."""
    times = []
    server = None
    for index in range(launches):
        if server is not None:
            server.stop()
        server = ServerProcess(argv, work, f"{tag}-{index}")
        times.append(server.startup_s)
    return median(times), server
