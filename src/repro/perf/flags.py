"""Runtime toggles for the simulator's performance fast paths.

Both fast paths are *result-preserving* (the equivalence suite in
``tests/test_perf_equivalence.py`` holds them to that), so they default to
on.  They can be disabled per process via environment variables — the knob
the tests and the ablation harness use to compare against the slow path:

* ``REPRO_PERF_LINK_FASTPATH=0`` — disable the uncontended-link collapse
  in the event-driven engine (every transfer goes back to per-hop
  request/hold/release event scheduling);
* ``REPRO_PERF_SCHEDULE_MEMO=0`` — disable collective step-schedule
  memoization (ring/RSAG/hierarchical plans rebuilt per call).

Module globals are mutable on purpose: tests flip them directly
(``repro.perf.flags.link_fastpath = False``) instead of respawning.
"""

from __future__ import annotations

import os


def _env_on(name: str, default: bool = True) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "off", "false", "no")


#: collapse uncontended multi-hop transfers into one timed event
link_fastpath: bool = _env_on("REPRO_PERF_LINK_FASTPATH")

#: reuse collective step schedules across calls with identical keys
schedule_memo: bool = _env_on("REPRO_PERF_SCHEDULE_MEMO")
