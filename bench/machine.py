"""The machine a run measured on: environment block, reference probe, child processes."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import subprocess
import threading
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 120.0


def pin_blas_threads():
    """One BLAS thread for this process and its children; call before importing numpy."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def pin_cpu():
    """Keep this process and its children on one CPU of those it may use.

    The CPUs of the machine change speed independently; on one CPU the
    reference probe measures the speed the ops ran at.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def reference_probe():
    """Milliseconds for a fixed mix of small LAPACK calls and interpreter work.

    It is interleaved with the ops, so a drift in machine speed shows in
    ``machine.ref_ms`` apart from a change in the program.
    """
    import numpy as np

    a = np.arange(36.0).reshape(6, 6) % 7.0 + np.eye(6)

    def body(reps):
        for _ in range(reps):
            np.linalg.svd(a)
        sum(i * i for i in range(200 * reps))

    body(10)  # refill caches another process may have evicted; not timed
    t0 = time.perf_counter()
    body(100)
    return 1e3 * (time.perf_counter() - t0)


def run_child(argv, cwd, env, capture_dir=None):
    """Run a child to completion; return (seconds, exit code, stdout, stderr, maxrss_kb).

    Output is captured in files under ``capture_dir`` (default ``cwd``).  The
    child's own peak resident set comes from wait4, so children of other
    kinds do not mix into it.
    """
    out_path = os.path.join(capture_dir or cwd, ".child.out")
    err_path = os.path.join(capture_dir or cwd, ".child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return elapsed, proc.returncode, stdout, stderr, usage.ru_maxrss


def child_env(src_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    env.pop("PYTHONSTARTUP", None)
    return env


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_info():
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version"),
                "openblas_configuration": blas.get("openblas configuration")}
    except (TypeError, KeyError):
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _last_level_cache():
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
            if best is None or level > best[0]:
                best = (level, size)
    except (OSError, ValueError):
        return None
    return None if best is None else f"L{best[0]} {best[1]}"


def environment(ref_ms):
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "machine.ref_ms": statistics.median(ref_ms) if ref_ms else None,
        "machine.ref_samples": len(ref_ms),
    }
