"""The closed loop: one client sends the next job only after the previous
job has returned and its output has passed its check.

Every job runs under a per-job timeout. A job that raises, times out or
fails its check counts as failed; a timeout also ends the loop, because
the hung job still holds the engine.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


class JobTimeout(RuntimeError):
    """A job did not return within the per-job timeout."""


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    items: int = 0
    busy_s: float = 0.0
    job_s: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    timed_out: bool = False

    @classmethod
    def merged(cls, parts) -> "LoopResult":
        """One result for loops run one after another (e.g. in several sessions)."""
        out = cls()
        for p in parts:
            out.attempted += p.attempted
            out.failed += p.failed
            out.items += p.items
            out.busy_s += p.busy_s
            out.job_s.extend(p.job_s)
            out.errors.extend(p.errors)
            out.timed_out |= p.timed_out
        return out

    @property
    def items_per_s(self) -> float:
        return self.items / self.busy_s if self.busy_s > 0 else 0.0

    @property
    def job_s_p50(self) -> float:
        return statistics.median(self.job_s) if self.job_s else 0.0


def run_job(job: Callable[[], Any], timeout_s: float) -> tuple[Any, float]:
    """Run ``job()`` in a daemon thread; return (output, wall seconds).

    Raises ``JobTimeout`` when the job is still running after ``timeout_s``
    (the thread is abandoned, so the caller must end the run), or re-raises
    the job's own exception.
    """
    box: dict = {}

    def target():
        try:
            box["out"] = job()
        except BaseException as exc:  # handed to the caller below
            box["err"] = exc

    th = threading.Thread(target=target, name="perfbench-job", daemon=True)
    t0 = time.perf_counter()
    th.start()
    th.join(timeout_s)
    dt = time.perf_counter() - t0
    if th.is_alive():
        raise JobTimeout(f"job still running after {timeout_s:.0f} s")
    if "err" in box:
        raise box["err"]
    return box["out"], dt


def closed_loop(
    job: Callable[[], Any],
    check: Callable[[Any], str | None],
    *,
    seconds: float,
    timeout_s: float,
    items_per_job: int,
    min_jobs: int = 1,
) -> LoopResult:
    """Run jobs back to back until ``seconds`` have passed and at least
    ``min_jobs`` were attempted.

    ``check(output)`` returns None for a correct output or a one-line
    description of what is wrong. Job wall time excludes the check, so
    ``busy_s`` is the time the engine worked for the client.
    """
    res = LoopResult()
    t_start = time.perf_counter()
    while True:
        res.attempted += 1
        try:
            out, dt = run_job(job, timeout_s)
        except JobTimeout as exc:
            res.failed += 1
            res.timed_out = True
            res.errors.append(f"JobTimeout: {exc}")
            return res
        except Exception as exc:
            res.failed += 1
            res.errors.append(f"{type(exc).__name__}: {exc}"[:500])
        else:
            res.busy_s += dt
            problem = check(out)
            if problem is None:
                res.job_s.append(dt)
                res.items += items_per_job
            else:
                res.failed += 1
                res.errors.append(f"check failed: {problem}"[:500])
        if time.perf_counter() - t_start >= seconds and res.attempted >= min_jobs:
            return res
