"""Host context recorded with every run (not metrics) and the memory
readings that are metrics.

The memtouch probe is the first-touch page-fault rate of a fresh Python
process allocating 32 MB: on shared hosts it drops by orders of magnitude
during memory-reclaim windows, and every fresh Ray worker slows with it,
so each run records it at start and end.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys

_MEMTOUCH = (
    "import time,numpy as np;t=time.perf_counter();"
    "a=np.ones({mb}*131072,dtype=np.float64);"
    "print(time.perf_counter()-t)"
)


def memtouch_mbps(mb: int = 32) -> float:
    """MB/s a fresh process reaches when first touching ``mb`` MB; -1 on error."""
    try:
        out = subprocess.run(
            [sys.executable, "-c", _MEMTOUCH.format(mb=mb)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        return mb / float(out.stdout.strip())
    except (subprocess.SubprocessError, ValueError, ZeroDivisionError):
        return -1.0


def _git_sha(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # a plain source checkout has no .git


def _nproc() -> int:
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10, check=True)
        return int(out.stdout.strip())
    except (OSError, subprocess.SubprocessError, ValueError):
        return -1


def _meminfo_mb() -> dict:
    vals = {}
    with open("/proc/meminfo") as f:
        for line in f:
            key, rest = line.split(":", 1)
            if key in ("MemTotal", "MemAvailable"):
                vals[key] = int(rest.split()[0]) // 1024
    return vals


def host_block(root: str, seed: int, ray_cpus: int) -> dict:
    mem = _meminfo_mb()
    return {
        "git_sha": _git_sha(root),
        "seed": seed,
        "ray_cpus": ray_cpus,
        "nproc": _nproc(),  # honours OMP_NUM_THREADS, so it can read 1
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ram_total_mb": mem.get("MemTotal", -1),
        "ram_available_mb": mem.get("MemAvailable", -1),
        "loadavg": list(os.getloadavg()),
        "python": sys.version.split()[0],
    }


def driver_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _children(pid: int, by_parent: dict) -> list:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        kids = by_parent.get(p, [])
        out.extend(kids)
        todo.extend(kids)
    return out


def worker_peak_rss_mb() -> float:
    """Largest VmHWM among this process's Ray worker descendants (MB)."""
    by_parent: dict = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        by_parent.setdefault(ppid, []).append(int(name))
    peak_kb = 0
    for pid in _children(os.getpid(), by_parent):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
            if b"default_worker.py" not in cmd and not cmd.startswith(b"ray::"):
                continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    return peak_kb / 1024.0
