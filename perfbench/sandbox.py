"""Hermetic run environment: private directories, child processes, the run record.

Everything a benchmark run reads or writes lives inside the checkout: the
program comes from ``<checkout>/src`` and every cache, store, scenario file
and temporary file goes under ``<checkout>/.perfbench/``.  Child processes
get the same environment with every ``REPRO_*`` variable removed except the
cache and store locations, so ``REPRO_TRACE``, ``REPRO_FAULTS`` and
``REPRO_HORIZON_WORKERS`` stay at their defaults.
"""

from __future__ import annotations

import hashlib
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Root of the checkout the benchmark runs from (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes (git-ignored).
WORK = ROOT / ".perfbench"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed set-up)."""


def require_program() -> None:
    """Put ``<checkout>/src`` first on ``sys.path``; fail when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))


def compile_sources() -> None:
    """Byte-compile the program once per checkout (the benchmark's build step).

    Later runs and their child processes then import from warm ``.pyc``
    files, so the first run does not pay compilation inside its timings.
    """
    import compileall

    if not compileall.compile_dir(str(SRC / "repro"), quiet=1, workers=1):
        raise BenchError("byte-compiling the program failed")


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


class Sandbox:
    """Private directories plus the child processes started inside them.

    Use as a context manager: on exit every child still running is
    terminated (then killed) and waited for, and the directory is removed.
    """

    def __init__(self, label: str) -> None:
        WORK.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK))
        self.tmp = self.root / "tmp"
        self.tmp.mkdir()
        self._children: List[subprocess.Popen] = []
        self._saved_env = dict(os.environ)
        self._saved_tempdir = tempfile.tempdir
        self.env = self._child_env()

    def _child_env(self) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_CACHE_DIR"] = str(self.root / "default-cache")
        env["REPRO_STORE_PATH"] = str(self.root / "default-store.sqlite")
        env["TMPDIR"] = str(self.tmp)
        return env

    def __enter__(self) -> "Sandbox":
        # The in-process program sees the same environment as its children.
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            del os.environ[key]
        os.environ.update(
            {k: self.env[k] for k in ("REPRO_CACHE_DIR", "REPRO_STORE_PATH", "TMPDIR")}
        )
        tempfile.tempdir = str(self.tmp)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop_children()
        os.environ.clear()
        os.environ.update(self._saved_env)
        tempfile.tempdir = self._saved_tempdir
        shutil.rmtree(self.root, ignore_errors=True)

    # -- child processes ------------------------------------------------------

    def spawn(self, args: Sequence[str], stdout: int = subprocess.DEVNULL) -> subprocess.Popen:
        """Start ``python <args>`` with the sandbox environment."""
        child = subprocess.Popen(
            [sys.executable, *args],
            cwd=str(self.root),
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=stdout,
            stderr=subprocess.DEVNULL,
        )
        self._children.append(child)
        return child

    def run(self, args: Sequence[str], timeout_s: float = 120.0) -> Tuple[int, float]:
        """Run ``python <args>`` to completion: ``(exit code, wall seconds)``.

        The wall time runs from just before the spawn to the reaped exit.
        A child still running at ``timeout_s`` is killed and reported as
        exit code ``-9``.
        """
        started = time.perf_counter()
        child = self.spawn(args)
        try:
            code = child.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            code = -9
        wall = time.perf_counter() - started
        self._children.remove(child)
        return code, wall

    def reap(self, child: subprocess.Popen, timeout_s: float) -> int:
        """Wait for a spawned child (killing it after ``timeout_s``)."""
        try:
            code = child.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            code = -9
        if child in self._children:
            self._children.remove(child)
        return code

    def stop(self, child: subprocess.Popen, timeout_s: float = 10.0) -> int:
        """SIGTERM a child, then SIGKILL it if it lingers; always waits."""
        if child.poll() is None:
            child.send_signal(signal.SIGTERM)
        code = self.reap(child, timeout_s)
        if child.stdout is not None:
            child.stdout.close()
        return code

    def stop_children(self) -> None:
        for child in list(self._children):
            self.stop(child)


def read_line(child: subprocess.Popen, prefix: str, timeout_s: float) -> str:
    """Read the child's stdout until a line starting with ``prefix`` appears."""
    if child.stdout is None:
        raise BenchError("child process was started without a stdout pipe")
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        ready, _, _ = select.select([child.stdout], [], [], 0.05)
        if ready:
            line = child.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            if line.startswith(prefix):
                return line.strip()
        elif child.poll() is not None:
            break
    raise BenchError(f"child process never printed {prefix!r}")


def tree_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown (not a git checkout)"


def run_record(seed: int, workload: str, trace: bool) -> dict:
    """What a result was measured on: machine, interpreter, libraries, code."""
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }

