"""Performance layer: result caching, steady-state extrapolation and
parallel sweeps.

The scaling sweeps behind Figs. 10-13 are embarrassingly parallel and
heavily repetitive — training steps are identical in performance mode, and
the same (scenario, gpu_count) points are re-simulated by every figure.
This package exploits both:

* :mod:`repro.perf.digest` — canonical content digests of run
  configurations (scenario, study config, world size, fault plan,
  code-version salt);
* :mod:`repro.perf.cache` — content-addressed on-disk cache of
  :class:`~repro.core.study.ScalingPoint` results with explicit
  invalidation;
* :mod:`repro.perf.steady` — steady-state detection over per-step times
  so converged runs extrapolate instead of simulating every step;
* :mod:`repro.perf.parallel` — the one sweep runner: serves cache hits
  and runs the rest inline or across worker processes, merged in input
  order;
* :mod:`repro.perf.profile` — first-class cProfile wrapping for the CLI.

See ``docs/performance.md`` for the caching/extrapolation model and the
validity conditions of each fast path.
"""

from repro.perf.cache import ResultCache, default_cache_dir
from repro.perf.digest import CACHE_VERSION_SALT, canonical_digest
from repro.perf.parallel import PointJob, run_jobs
from repro.perf.profile import profiled_call
from repro.perf.steady import PeriodicSteadyState

__all__ = [
    "ResultCache",
    "default_cache_dir",
    "CACHE_VERSION_SALT",
    "canonical_digest",
    "PointJob",
    "run_jobs",
    "profiled_call",
    "PeriodicSteadyState",
]
