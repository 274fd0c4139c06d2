"""Golden plan reports of the hybrid layout planner at large worlds.

The digests were recorded before fusion buffers became one value per
collective and before node-group checks compared groups by local pair.
Each pins ``canonical_digest`` of a whole ``plan_hybrid`` report, so any
change to a candidate's step time, the ranking, the best layout or the
report's fields shows up as a mismatch.

* The 4,096-rank ``max_pp=1``, ``microbatches=(8,)`` column at one
  measured step: the e2e benchmark's ``plan_4096`` workload, whose
  digest this is.  The report's step times do not move when a fused
  message's registration is missed, so the test also pins the
  registration-cache hits and misses each candidate's MPI world ends
  with: fused messages that kept no stable ids would change them.
* The 16,384-rank column at the default two measured steps, what
  ``python -m repro hybrid plan --ranks 16384 --max-pp 1 --microbatches
  8`` plans (``-m slow``).
"""

from __future__ import annotations

import pytest

from repro.mpi import MpiWorld
from repro.parallel.planner import PlannerConfig, plan_hybrid
from repro.perf.digest import canonical_digest

PLAN_4096 = "016d64399f87753e1960055f48bdf1e6fe7fc5b232b8bd65d9762e288ba8cd15"
PLAN_16384 = "51b3b2c36e2f07fdfcef2e7d5dec3282adc2155089dc47ce8227e2d646de846c"
#: (world size, registration hits, misses) per candidate, in pricing order
REGCACHE_4096 = [(4096, 2048, 2048), (2048, 1024, 3072), (1024, 0, 0)]


def test_4096_rank_column(monkeypatch):
    seen = []
    stats = MpiWorld.regcache_stats

    def recording(world):
        out = stats(world)
        seen.append((world.size, out["hits"], out["misses"]))
        return out

    monkeypatch.setattr(MpiWorld, "regcache_stats", recording)
    config = PlannerConfig(
        ranks=4096, max_pp=1, microbatches=(8,), measure_steps=1
    )
    report = plan_hybrid(config, jobs=1, use_memo=False)
    assert canonical_digest(report) == PLAN_4096
    assert seen == REGCACHE_4096


@pytest.mark.slow
def test_16384_rank_column():
    config = PlannerConfig(ranks=16384, max_pp=1, microbatches=(8,))
    report = plan_hybrid(config, jobs=1, use_memo=False)
    assert canonical_digest(report) == PLAN_16384
