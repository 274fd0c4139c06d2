"""Layer ledger: attribute a cProfile run to the ``repro`` packages.

A layer is a package under ``src/repro`` (``mpi``, ``serve``, ...), with
``sim/fastpath.py`` split out as ``sim.fastpath`` and the top-level
modules (``errors``, ``version``, ``__main__``) grouped as ``repro``.
Everything else is either the benchmark's own code, which is the layer
``other``, or code outside the program (builtins, numpy, the standard
library, dataclass-generated methods), whose self time is charged to the
layer that called it.

This module reads profiles only; it imports nothing from ``repro``.
"""

from __future__ import annotations

import os
from collections import defaultdict

PACKAGES = (
    "chaos", "comm", "compression", "core", "cuda", "data", "faults",
    "hardware", "horovod", "metrics", "models", "mpi", "nccl", "net",
    "parallel", "perf", "profiling", "resilience", "serve", "sim",
    "tensor", "trainer", "utils",
)
LAYERS = PACKAGES + ("sim.fastpath", "repro", "other")

#: counters the workloads read from returned reports (or, for the replay
#: ratio, from the fast-path sessions the traced run observes); a
#: workload that never exercises a counter's layer reports 0
COUNTERS = (
    ("sim.fastpath.replay_ratio", "ratio", "higher"),
    ("perf.steady.extrapolated_ratio", "ratio", "higher"),
    ("net.regcache_hit_rate", "ratio", "higher"),
    ("step.forward_share", "ratio", "lower"),
    ("step.backward_share", "ratio", "lower"),
    ("step.exposed_comm_share", "ratio", "lower"),
    ("step.coordination_share", "ratio", "lower"),
    ("step.update_share", "ratio", "lower"),
    ("step.staging_block_share", "ratio", "lower"),
    ("step.comm_wall_share", "ratio", "lower"),
    ("step.unattributed_share", "ratio", "lower"),
    ("parallel.bubble_fraction", "ratio", "lower"),
    ("parallel.tp_comm_share", "ratio", "lower"),
    ("parallel.pp_hop_share", "ratio", "lower"),
    ("serve.utilization", "ratio", "higher"),
    ("serve.shed_ratio", "ratio", "lower"),
    ("serve.retry_ratio", "ratio", "lower"),
    ("serve.cold_starts", "count", "lower"),
    ("serve.rebuffers", "count", "lower"),
    ("serve.rehomes", "count", "lower"),
    ("resilience.checkpoint_share", "ratio", "lower"),
    ("resilience.detection_share", "ratio", "lower"),
    ("resilience.lost_work_share", "ratio", "lower"),
    ("resilience.recovery_share", "ratio", "lower"),
)
COUNTER_NAMES = tuple(name for name, _, _ in COUNTERS)


#: every per-layer metric as (name, unit, better), in report order
PER_LAYER = tuple(
    metric
    for layer in LAYERS
    for metric in (
        (f"{layer}.self_share", "ratio", "lower"),
        (f"{layer}.calls", "count", "lower"),
    )
) + (
    ("trace.profiled_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
) + COUNTERS


def layer_of(filename: str, repro_dir: str, bench_dir: str) -> str | None:
    """The layer a function defined in ``filename`` belongs to.

    Returns ``None`` for code outside both the program and the benchmark:
    its time is charged to its callers (see :func:`charge`).  Builtins
    (``~``) and generated code (``<string>``) have no absolute path.
    """
    if not os.path.isabs(filename):
        return None
    path = os.path.normpath(filename)
    if path.startswith(bench_dir + os.sep):
        return "other"
    if not path.startswith(repro_dir + os.sep):
        return None
    parts = os.path.relpath(path, repro_dir).split(os.sep)
    if len(parts) == 1:
        return "repro"
    if parts[:2] == ["sim", "fastpath.py"]:
        return "sim.fastpath"
    return parts[0] if parts[0] in PACKAGES else "other"


def charge(stats: dict, classify) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer self time and cross-layer call counts of a profile.

    ``stats`` is ``pstats.Stats.stats``: ``func -> (cc, nc, tt, ct,
    callers)`` with ``callers[caller] = (nc, cc, tt, ct)``.  ``classify``
    maps a function key to its layer, or to ``None`` for outside code.

    Outside code's own time is split over its callers by the per-caller
    self time pstats records; time it inherited from outside callees moves
    up by per-caller cumulative time.  Time that reaches no layer (a root
    with no callers, or mass still circulating in a cycle of outside
    functions after the last round) is charged to ``other``, so the layer
    times always sum to the profile's total.

    ``calls`` counts calls whose caller sits in a different layer; calls
    made through outside code (``map``, a sort key) are not counted.
    """
    layer = {func: classify(func) for func in stats}
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    own: dict = {}
    for func, (_, _, tt, _, callers) in stats.items():
        home = layer[func]
        if home is None:
            own[func] = tt
            continue
        self_s[home] += tt
        for caller, (nc, _, _, _) in callers.items():
            if layer.get(caller) not in (None, home):
                calls[home] += nc
    pending = _push(stats, layer, own, 2, self_s)
    for _ in range(100):
        if not pending:
            break
        pending = _push(stats, layer, pending, 3, self_s)
    self_s["other"] += sum(pending.values())
    return self_s, calls


def _push(stats, layer, mass: dict, index: int, self_s: dict) -> dict:
    """Move each outside function's mass one step up to its callers."""
    onward: dict = defaultdict(float)
    for func, amount in mass.items():
        callers = stats[func][4]
        weights = {c: v[index] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: v[0] for c, v in callers.items()}
            total = sum(weights.values())
        if total <= 0:
            self_s["other"] += amount
            continue
        for caller, weight in weights.items():
            share = amount * weight / total
            home = layer.get(caller, "other")
            if home is None:
                onward[caller] += share
            else:
                self_s[home] += share
    return onward
