"""One sample of one workload, in this fresh process; prints one JSON record.

    PYTHONPATH=src python benchmarks/e2e/worker.py --workload serve_mix --seed 7 --trace 0

``run.py`` starts one of these per sample.  With ``--trace 1`` the timed
call runs under ``cProfile`` and the record adds the layer ledger.
"""

import time

# setup_s counts from here: interpreter start-up is excluded; the imports
# of numpy and repro and the workload's input construction are included
_START = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import sys
import traceback

import layers
from reference import Reference

HERE = os.path.dirname(os.path.abspath(__file__))


def _profiled(call):
    """Run ``call`` under cProfile, watching every fast-path session."""
    import cProfile
    import pstats

    import repro.sim.fastpath as fastpath

    sessions = []
    enable = fastpath.enable_fastpath

    def watched(world):
        session = enable(world)
        if session is not None:
            sessions.append(session)
        return session

    # every call site imports enable_fastpath from the module at call time
    fastpath.enable_fastpath = watched
    profiler = cProfile.Profile()
    try:
        start = time.perf_counter()
        profiler.enable()
        out = call()
        profiler.disable()
        wall_s = time.perf_counter() - start
    finally:
        fastpath.enable_fastpath = enable
    stats = pstats.Stats(profiler).stats
    return out, wall_s, stats, sessions


def _ledger(stats, sessions) -> tuple[dict, float]:
    """Per-layer metrics of a profile and its conservation residual."""
    import repro

    repro_dir = os.path.dirname(os.path.abspath(repro.__file__))
    self_s, calls = layers.charge(
        stats,
        lambda func: layers.layer_of(func[0], repro_dir, HERE),
    )
    profiled = sum(entry[2] for entry in stats.values())
    out = {"trace.profiled_s": profiled}
    for layer in layers.LAYERS:
        out[f"{layer}.self_share"] = self_s[layer] / profiled
        out[f"{layer}.calls"] = calls[layer]
    replayed = sum(s.stats()["replayed_transfers"] for s in sessions)
    exact = sum(s.stats()["exact_transfers"] for s in sessions)
    out["sim.fastpath.replay_ratio"] = (
        replayed / (replayed + exact) if replayed + exact else 0.0
    )
    return out, abs(sum(self_s.values()) - profiled) / profiled


def _referenced(call):
    """Time ``call`` between two readings of the host-speed probe.

    Returns the output, wall seconds, the probe's median seconds and the
    peak RSS in MB.  The probe's table is freed during the call and built
    again only after the peak is read, so the peak is the workload's own.
    """
    before = Reference().seconds()
    start = time.perf_counter()
    out = call()
    wall_s = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    after = Reference().seconds()
    return out, wall_s, statistics.median(before + after), peak_mb


def sample(name: str, seed: int, trace: bool) -> dict:
    """Set up, time and check one run; exceptions become failed checks."""
    import numpy

    from repro.perf.digest import canonical_digest
    from workloads import WORKLOADS

    record = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    try:
        workload = WORKLOADS[name](seed)
        record["setup_s"] = time.perf_counter() - _START
        if trace:
            out, record["wall_s"], stats, sessions = _profiled(workload.run)
        else:
            out, record["wall_s"], record["ref_s"], record["peak_rss_mb"] = (
                _referenced(workload.run)
            )
            record["wall_ref"] = record["wall_s"] / record["ref_s"]
        evaluation = workload.evaluate(out)
    except Exception as exc:  # a failing workload is a failed sample
        traceback.print_exc()
        record.update(attempted=1, failed=1, failures=[f"raised {exc!r}"])
        return record
    checks = list(evaluation.checks)
    record["digest"] = canonical_digest(evaluation.digest_payload)
    record["sim"] = evaluation.sim
    unknown = set(evaluation.counters) - set(layers.COUNTER_NAMES)
    if unknown:
        raise KeyError(f"undeclared counters {sorted(unknown)}")
    if trace:
        ledger, residual = _ledger(stats, sessions)
        metrics = dict.fromkeys(layers.COUNTER_NAMES, 0.0)
        metrics.update(evaluation.counters)
        metrics.update(ledger)
        record["layers"] = metrics
        record["conservation_residual"] = residual
        checks.append(("layer self times sum to the profile within 1%",
                       residual <= 0.01))
    record["attempted"] = len(checks)
    record["failures"] = [label for label, ok in checks if not ok]
    record["failed"] = len(record["failures"])
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = sample(args.workload, args.seed, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
