"""Communication-stack regression harness: writes ``BENCH_comm.json``.

The command line is the harness's (``benchmarks/harness.py``); CI runs::

    python benchmarks/bench_comm.py --quick --out BENCH_comm.json \
        --check-baseline benchmarks/baselines/BENCH_comm_baseline.json

Workloads:

* **collective_sweep** — prices allreduces across every backend x size x
  rank grid point through ``build_communicator``; the *simulated* times for a
  set of anchor points are machine-independent and baseline-checked
  exactly (any drift means the cost model changed — bump the digest salt).
* **hierarchical_vs_ring** — the acceptance claim: the two-level backend
  beats a flat ring on multi-node worlds for every bandwidth-bound
  (>= 1 MB) message size; reports the speedups.
* **tuner** — autotunes the default grid cold then memo-warm; the tuned
  table (byte edges, rank edges, algorithm grid) is machine-independent
  and baseline-checked exactly.  Its digest is reported too, but not
  gated: it folds in the cache salt, which moves with every salt bump
  while the table stays the same.
* **routed_overhead** — cost of the registry's communicator, which
  checks for a selection table on every allreduce, over
  ``world.communicator()`` (collectives/sec ratio); the wall-clock rate
  is the tolerance-gated regression metric.
"""

from __future__ import annotations

# harness before repro: it puts ``src`` on ``sys.path``
from harness import anchors, exact, floor, main, ratio, timed

from repro.comm import TuningConfig, build_communicator, tune_table
from repro.core import MPI_OPT
from repro.hardware import LASSEN
from repro.hardware.cluster import build_cluster
from repro.mpi import WorldSpec
from repro.mpi.comm import GpuBuffers

KIB = 1024
MIB = 1024 * 1024
#: allowed fall of the routed collectives/sec below its baseline
ROUTED_FLOOR = floor(0.50)


def make_comm(backend: str, num_ranks: int):
    cluster = build_cluster(LASSEN, num_ranks)
    spec = None
    if backend == "mpi":
        spec = WorldSpec(num_ranks=num_ranks, policy=MPI_OPT.policy,
                         config=MPI_OPT.mv2)
    _world, comm = build_communicator(
        cluster, backend, world_spec=spec, num_ranks=num_ranks
    )
    return comm


def virtual(nbytes: int, n: int) -> GpuBuffers:
    return GpuBuffers.virtual(nbytes, n)


def time_collective_sweep(quick: bool) -> dict:
    rank_counts = (4, 16) if quick else (4, 16, 64, 512)
    sizes = (4 * KIB, 1 * MIB, 16 * MIB) if quick else (
        4 * KIB, 64 * KIB, 1 * MIB, 16 * MIB, 64 * MIB
    )

    def sweep() -> dict[str, float]:
        times = {}
        for backend in ("mpi", "nccl", "hierarchical"):
            for num_ranks in rank_counts:
                comm = make_comm(backend, num_ranks)
                for nbytes in sizes:
                    timing = comm.allreduce(virtual(nbytes, num_ranks))
                    times[f"{backend}:{nbytes}x{num_ranks}"] = timing.time
        return times

    times, wall_s = timed(sweep)
    return {
        "ops": len(times),
        "wall_s": wall_s,
        "ops_per_sec": ratio(len(times), wall_s),
        # machine-independent: simulated seconds per anchor collective
        "anchors": times,
    }


def time_hierarchical_vs_ring(quick: bool) -> dict:
    rank_counts = (16,) if quick else (16, 64, 512)
    sizes = (1 * MIB, 16 * MIB) if quick else (1 * MIB, 16 * MIB, 64 * MIB)
    speedups = {}
    for num_ranks in rank_counts:
        hier = make_comm("hierarchical", num_ranks)
        mpi = make_comm("mpi", num_ranks)
        for nbytes in sizes:
            hier_t = hier.allreduce(virtual(nbytes, num_ranks)).time
            ring_t = mpi.allreduce(
                virtual(nbytes, num_ranks), algorithm="ring"
            ).time
            assert hier_t < ring_t, (
                f"hierarchical ({hier_t:.3e}s) must beat flat ring "
                f"({ring_t:.3e}s) at {nbytes}B x {num_ranks} ranks"
            )
            speedups[f"{nbytes}x{num_ranks}"] = ring_t / hier_t
    return {"speedup_vs_ring": speedups, "min_speedup": min(speedups.values())}


def time_tuner(quick: bool) -> dict:
    from repro.comm.tuning import _TUNE_MEMO

    config = TuningConfig(
        byte_points=(4 * KIB, 1 * MIB, 16 * MIB) if quick else (
            4 * KIB, 64 * KIB, 1 * MIB, 16 * MIB, 64 * MIB
        ),
        rank_counts=(4, 16) if quick else (4, 16, 64),
    )
    _TUNE_MEMO.clear()
    table, cold_s = timed(tune_table, config)
    again, warm_s = timed(tune_table, config)
    assert again is table, "tuner memo missed on identical config"
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "table": {
            "byte_edges": list(table.byte_edges),
            "rank_edges": list(table.rank_edges),
            "algorithms": [list(row) for row in table.algorithms],
        },
        "table_digest": table.digest(),
    }


def time_routed_overhead(quick: bool) -> dict:
    from repro.mpi import MpiWorld

    iterations = 200 if quick else 1000
    num_ranks = 16
    cluster = build_cluster(LASSEN, num_ranks)
    spec = WorldSpec(num_ranks=num_ranks, policy=MPI_OPT.policy,
                     config=MPI_OPT.mv2)
    raw = MpiWorld(cluster, spec).communicator()
    routed = make_comm("mpi", num_ranks)
    buffers = virtual(1 * MIB, num_ranks)

    def repeat(comm) -> None:
        for _ in range(iterations):
            comm.allreduce(buffers)

    _, raw_s = timed(repeat, raw)
    _, routed_s = timed(repeat, routed)
    return {
        "iterations": iterations,
        "raw_s": raw_s,
        "routed_s": routed_s,
        "overhead_factor": ratio(routed_s, raw_s),
        "routed_ops_per_sec": ratio(iterations, routed_s),
    }


def measure(args) -> dict:
    print("[bench_comm] collective sweep ...")
    sweep = time_collective_sweep(args.quick)
    print("[bench_comm]   {ops} collectives in {wall_s:.2f}s = "
          "{ops_per_sec:.0f}/s".format(**sweep))
    print("[bench_comm] hierarchical vs flat ring ...")
    hier = time_hierarchical_vs_ring(args.quick)
    print("[bench_comm]   min speedup {min_speedup:.2f}x".format(**hier))
    print("[bench_comm] autotuner ...")
    tuner = time_tuner(args.quick)
    print("[bench_comm]   cold {cold_s:.2f}s  warm {warm_s:.4f}s  "
          "digest {table_digest}".format(**tuner))
    print("[bench_comm] routed overhead (registry vs world communicator) ...")
    routed = time_routed_overhead(args.quick)
    print("[bench_comm]   {overhead_factor:.2f}x raw, "
          "{routed_ops_per_sec:.0f} ops/s".format(**routed))
    return {
        "workloads": {
            "collective_sweep": sweep,
            "hierarchical_vs_ring": hier,
            "tuner": tuner,
            "routed_overhead": routed,
        },
        "routed_ops_per_sec": routed["routed_ops_per_sec"],
        "anchors": sweep["anchors"],
        "table": tuner["table"],
        "table_digest": tuner["table_digest"],
    }


def check(report: dict, baseline: dict) -> list[str]:
    failures = ROUTED_FLOOR(
        "routed collectives/sec", report["routed_ops_per_sec"],
        baseline.get("routed_ops_per_sec"),
    )
    # simulated times and tuned tables are machine-independent: exact match
    failures += anchors(report["anchors"], baseline.get("anchors", {}))
    # the tuner grid depends on --quick; only compare like with like
    if baseline.get("table") and baseline.get("quick") == report["quick"]:
        failures += exact("tuned table", report["table"], baseline["table"])
    return failures


if __name__ == "__main__":
    raise SystemExit(main("comm", __doc__, measure, check))
