"""Simulated SR inference serving: what happens after training.

The paper trains EDSR at scale; this subsystem serves it.  Inference
requests flow through the same discrete-event machinery and calibrated
V100 cost model the training simulations run on:

* :mod:`repro.serve.workload` — seeded open-loop arrival traces
  (Poisson / diurnal / bursty / video sessions) over mixed patch sizes
  and scale factors;
* :mod:`repro.serve.batcher` — per-replica dynamic batching (max size +
  timeout, padding-aware, FIFO within class);
* :mod:`repro.serve.costing` — per-batch GPU latency from
  :mod:`repro.models.costing`, plus replica cold-start (checkpoint read
  + weight broadcast over the simulated interconnect);
* :mod:`repro.serve.router` — pluggable placement (round-robin,
  join-shortest-queue, least-loaded) with bounded queues and shedding;
* :mod:`repro.serve.autoscaler` — reactive queue-depth scaling;
* :mod:`repro.serve.slo` — the per-request outcome ledger: throughput,
  goodput, utilization, p50/p95/p99/p999 latency;
* :mod:`repro.serve.simulator` — the event-driven run loop, including
  replica failure -> watchdog declaration -> failover retry via
  :class:`~repro.faults.FaultPlan` / :class:`~repro.resilience.RecoveryPolicy`;
* :mod:`repro.serve.sweep` — :class:`ServeJob`, one serving run as a
  job of the cache-backed sweep runner (``repro serve --jobs N``);
* :mod:`repro.serve.functional` — a real EDSR checkpoint served through
  the actual tensor stack, bit-identical to offline inference, anchoring
  the simulated numbers to a real model.

Exposed via ``python -m repro serve``; see ``docs/serving.md``.
"""

from repro.serve.autoscaler import AutoscalerConfig
from repro.serve.batcher import BatchingConfig, DynamicBatcher
from repro.serve.costing import ServingCostModel, serving_model_config
from repro.serve.functional import FunctionalServer
from repro.serve.router import (
    POLICY_NAMES,
    ROUTING_POLICIES,
    AdmissionConfig,
    JoinShortestQueue,
    LeastLoaded,
    RoundRobin,
    make_routing_policy,
)
from repro.serve.simulator import ServeReport, ServeScenario, simulate_serve
from repro.serve.slo import QUANTILES, SLOConfig, SLOLedger, nearest_rank
from repro.serve.sweep import ServeJob
from repro.serve.workload import (
    DEFAULT_MIX,
    VIDEO_MIX,
    WORKLOAD_KINDS,
    Request,
    RequestClass,
    WorkloadConfig,
    generate_arrivals,
)

__all__ = [
    "AutoscalerConfig",
    "BatchingConfig",
    "DynamicBatcher",
    "ServingCostModel",
    "serving_model_config",
    "FunctionalServer",
    "POLICY_NAMES",
    "ROUTING_POLICIES",
    "AdmissionConfig",
    "RoundRobin",
    "JoinShortestQueue",
    "LeastLoaded",
    "make_routing_policy",
    "ServeScenario",
    "ServeReport",
    "simulate_serve",
    "SLOConfig",
    "SLOLedger",
    "QUANTILES",
    "nearest_rank",
    "ServeJob",
    "Request",
    "RequestClass",
    "WorkloadConfig",
    "generate_arrivals",
    "DEFAULT_MIX",
    "VIDEO_MIX",
    "WORKLOAD_KINDS",
]
