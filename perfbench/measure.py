"""Running the CLI as a subprocess and measuring it from outside.

A command's peak RSS is the largest sum of VmRSS over its process tree (the
command and every descendant, pool workers included), sampled from /proc
while it runs. The largest VmHWM (per-process peak) seen in the tree is a
floor for it, so a short spike of one process between samples still counts.
``ru_maxrss`` from ``wait4`` is not used: the kernel carries the parent's
peak into a child across fork and exec, so it would report this process.
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

SAMPLE_S = 0.02
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Completed:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stderr: str


def _rss_kb(pid: int) -> tuple[int, int]:
    """(VmRSS, VmHWM) of one process in kB; zeros once it has gone."""
    rss = hwm = 0
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    rss = int(line.split()[1])
                elif line.startswith("VmHWM:"):
                    hwm = int(line.split()[1])
    except OSError:
        pass
    return rss, hwm


def _children(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [int(c) for c in fh.read().split()]
    except OSError:
        return []


def tree_rss_kb(pid: int) -> tuple[int, int]:
    """(summed VmRSS, largest VmHWM) over ``pid`` and its descendants."""
    total = hwm = 0
    todo = [pid]
    while todo:
        p = todo.pop()
        rss, peak = _rss_kb(p)
        total += rss
        hwm = max(hwm, peak)
        todo.extend(_children(p))
    return total, hwm


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(args: list, env: dict, cwd: Path, out_dir: Path, timeout_s: float) -> Completed:
    """Run ``args``, wait for it and its whole tree, and measure it. After
    ``timeout_s`` the whole session is killed (and the command fails)."""
    out_path, err_path = out_dir / "stdout.txt", out_dir / "stderr.txt"
    peak = [0, 0]
    done = threading.Event()
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, env=env, cwd=cwd, stdout=out, stderr=err,
                                start_new_session=True)

        def sample():
            while not done.wait(SAMPLE_S):
                total, hwm = tree_rss_kb(proc.pid)
                peak[0], peak[1] = max(peak[0], total), max(peak[1], hwm)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        killer = threading.Timer(timeout_s, _kill_session, (proc.pid,))
        killer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        finally:
            wall = time.perf_counter() - t0
            killer.cancel()
            done.set()
            sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_session(proc.pid)  # ends anything the command left running
    peak_kb = max(peak)
    return Completed(returncode=proc.returncode, wall_s=wall, peak_rss_mb=peak_kb / 1024.0,
                     stderr=err_path.read_text())


def fingerprint(repo: Path) -> dict:
    """Where a result was measured. The BLAS thread variables are recorded as
    the program sees them; the benchmark never sets them."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = {"name": "unknown"}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True,
                             text=True, timeout=10)
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=repo,
                             capture_output=True, text=True, timeout=10)
        same = top.returncode == 0 and Path(top.stdout.strip()).resolve() == repo.resolve()
        revision = rev.stdout.strip() if rev.returncode == 0 and same else "unknown"
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": revision,
    }
