"""Performance layer: result caching, steady-state extrapolation, parallel
sweeps, and runtime fast-path toggles.

The scaling sweeps behind Figs. 10-13 are embarrassingly parallel and
heavily repetitive — training steps are identical in performance mode, and
the same (scenario, gpu_count) points are re-simulated by every figure.
This package exploits both:

* :mod:`repro.perf.digest` — canonical content digests of run
  configurations (scenario, model, world size, env knobs, fault plan,
  code-version salt);
* :mod:`repro.perf.cache` — content-addressed on-disk cache of
  :class:`~repro.core.study.ScalingPoint` results with explicit
  invalidation;
* :mod:`repro.perf.steady` — steady-state detection over per-step times
  so converged runs extrapolate instead of simulating every step;
* :mod:`repro.perf.parallel` — dispatches independent sweep points across
  worker processes with a deterministic merge;
* :mod:`repro.perf.flags` — runtime toggles for the sim-engine fast paths
  (uncontended-link collapse, collective-schedule memoization), used by
  the equivalence tests to compare fast vs. slow paths;
* :mod:`repro.perf.profile` — first-class cProfile wrapping for the CLI.

See ``docs/performance.md`` for the caching/extrapolation model and the
validity conditions of each fast path.
"""

from repro.perf import flags
from repro.perf.cache import ResultCache, default_cache_dir
from repro.perf.digest import CACHE_VERSION_SALT, canonical_digest, env_knobs
from repro.perf.parallel import PointJob, run_point_jobs, run_scenario_sweeps
from repro.perf.profile import profiled_call
from repro.perf.steady import PeriodicSteadyState

__all__ = [
    "flags",
    "ResultCache",
    "default_cache_dir",
    "CACHE_VERSION_SALT",
    "canonical_digest",
    "env_knobs",
    "PointJob",
    "run_point_jobs",
    "run_scenario_sweeps",
    "profiled_call",
    "PeriodicSteadyState",
]
