"""The sweep runner: independent jobs, inline or across worker processes.

A sweep is a bag of independent jobs: scaling points
(:class:`PointJob`) or serving runs
(:class:`~repro.serve.sweep.ServeJob`).  A job provides ``digest()``
(its content address), ``run()`` and a payload round trip
(``to_payload`` / ``from_payload``).  :func:`run_jobs` serves what the
result cache holds, runs the rest inline or over one
:class:`~concurrent.futures.ProcessPoolExecutor`, and merges results in
input order: worker completion order never leaks into the output.

The result cache is consulted and populated in the *parent* process only:
workers stay cache-blind, so there are no cross-process file races and a
warm cache short-circuits before any worker starts.  A job carries all
of its inputs (a point's selection table rides in its ``StudyConfig``),
so a worker needs no state from the parent and the job's digest covers
everything it runs on.

Imports of :mod:`repro.core` are deferred into the functions:
:mod:`repro.core` imports this package while it loads.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scenarios import Scenario
    from repro.core.study import ScalingPoint, ScalingStudy, StudyConfig
    from repro.perf.cache import ResultCache


@dataclass(frozen=True)
class PointJob:
    """One sweep point: a :class:`~repro.core.scenarios.Scenario` (any
    frozen scenario, registered or not) at ``num_gpus``.

    ``fault_plan`` / ``recovery`` (both frozen dataclasses) ride along so
    chaos sweeps parallelize identically to clean ones; the digest covers
    both fields.
    """

    scenario: "Scenario"
    num_gpus: int
    config: "StudyConfig"
    fault_plan: object | None = None
    recovery: object | None = None

    def _study(self) -> "ScalingStudy":
        from repro.core.study import ScalingStudy

        return ScalingStudy(
            self.scenario, self.config,
            fault_plan=self.fault_plan, recovery=self.recovery,
        )

    def digest(self) -> str:
        return self._study().point_digest(self.num_gpus)

    def run(self) -> "ScalingPoint":
        return self._study().run_point(self.num_gpus)

    @staticmethod
    def to_payload(point: "ScalingPoint") -> dict:
        from repro.core.study import point_payload

        return point_payload(point)

    @staticmethod
    def from_payload(payload: dict) -> "ScalingPoint":
        from repro.core.study import point_from_payload

        return point_from_payload(payload)


def _run(job):
    """Worker entry point (module level so it pickles under spawn)."""
    return job.run()


def run_jobs(
    jobs: Sequence,
    *,
    workers: int | None = None,
    cache: "ResultCache | None" = None,
) -> list:
    """Run every job; returns results in input order.

    Digests are computed only when ``cache`` is enabled.  The jobs the
    cache misses run inline when ``workers == 1`` or there is one of them
    (the code path the equivalence tests compare against, no pool
    overhead), else over one pool of ``workers`` processes (default: one
    per CPU).  Cached results equal freshly computed ones.
    """
    workers = max(1, os.cpu_count() or 1) if workers is None else workers
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")

    use_cache = cache is not None and cache.enabled
    results: list = [None] * len(jobs)
    digests: dict[int, str] = {}
    pending: list[int] = []
    for i, job in enumerate(jobs):
        if use_cache:
            digests[i] = job.digest()
            hit = cache.get(digests[i])
            if hit is not None:
                results[i] = job.from_payload(hit)
                continue
        pending.append(i)

    if workers == 1 or len(pending) <= 1:
        computed = [jobs[i].run() for i in pending]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
            computed = list(pool.map(_run, [jobs[i] for i in pending]))
    for i, result in zip(pending, computed):
        results[i] = result
        if use_cache:
            cache.put(digests[i], jobs[i].to_payload(result))
    return results
