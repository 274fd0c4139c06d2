"""Runtime fault injector: the single object every layer consults.

One :class:`FaultInjector` is built from a :class:`~repro.faults.FaultPlan`
and threaded through the stack:

* :class:`~repro.hardware.links.Link` / ``Cluster.path_cost`` ask
  :meth:`link_state` for bandwidth/latency degradation (``path_cost``
  only while :attr:`degrades_links`: the plan holds a ``LinkFault``);
* :class:`~repro.mpi.transports.TransportModel.transfer_proc` asks
  :meth:`message_verdict` per transmission attempt (drop / delay);
* the Horovod coordinator and trainer ask :meth:`failure_time` /
  :meth:`failed_ranks` for membership, and :meth:`compute_factor` for
  straggler/jitter slowdown.

Every injected fault and recovery action is recorded into one
:class:`~repro.faults.trace.FaultTrace` (:attr:`FaultInjector.trace`), so
chaos runs are observable post hoc: ``repro.profiling`` renders it as a
report (``fault_report``) and as Chrome trace instants
(``fault_trace_events``).  All randomness
derives from the plan seed via :func:`~repro.utils.seeding.derive_seed`:
the drop, wire-corruption and checkpoint-corruption verdicts draw with
:func:`~repro.utils.seeding.seeded_random` (numpy's
``default_rng(seed).random()``, bit for bit), compute jitter from a numpy
``Generator``.  Two runs with identical (plan, workload) produce
byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FaultPlanError
from repro.faults.plan import (
    DOMAIN_FAULTS,
    CorruptionFault,
    FaultPlan,
    JitterFault,
    LinkFault,
    MessageFault,
    PartitionFault,
    RankFailure,
    StragglerFault,
    SwitchFailure,
)
from repro.faults.trace import FaultTrace
from repro.utils.seeding import (
    derive_seed,
    extend_seed,
    seed_prefix,
    seeded_random,
)


@dataclass(frozen=True)
class MessageVerdict:
    """Outcome of consulting the injector for one transmission attempt.

    ``severed=True`` marks a drop caused by a partition or switch outage:
    the path is *gone*, not lossy — every retransmission attempt will
    drop too, so the sender is guaranteed to exhaust its retry ladder.
    """

    drop: bool = False
    delay_s: float = 0.0
    severed: bool = False


def window_active(start: float, duration: float | None, time: float) -> bool:
    """End-exclusive fault-window membership: ``start <= time < start +
    duration`` (``duration=None`` never ends).

    The window is half-open — a fault is active *at* its start instant
    and inactive at exactly ``start + duration``, so back-to-back windows
    ``[a, b)`` and ``[b, c)`` tile the timeline without double-firing and
    a zero-length window is empty (plan validation rejects
    ``duration=0`` for that reason).
    """
    if time < start:
        return False
    return duration is None or time < start + duration


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against the simulation clock.

    ``topology`` (a :class:`~repro.faults.domains.Topology`) is required
    when the plan contains domain faults — node/switch failures and
    partitions resolve their blast radius through it.  Plans made of
    per-rank faults only work without one.
    """

    def __init__(self, plan: FaultPlan, *, topology=None):
        self.plan = plan
        self.topology = topology
        self.trace = FaultTrace()
        self._stragglers = plan.of_type(StragglerFault)
        self._jitters = plan.of_type(JitterFault)
        self._links = plan.of_type(LinkFault)
        #: link state varies with simulated time only under a LinkFault;
        #: without one, every route prices at its fault-free constants
        self.degrades_links = bool(self._links)
        self._messages = plan.of_type(MessageFault)
        self._partitions = plan.of_type(PartitionFault)
        self._switch_failures = plan.of_type(SwitchFailure)
        corruptions = plan.of_type(CorruptionFault)
        self._wire_corruptions = [c for c in corruptions if c.target == "wire"]
        self._ckpt_corruptions = [
            c for c in corruptions if c.target == "checkpoint"
        ]
        if topology is None:
            if any(isinstance(f, DOMAIN_FAULTS) for f in plan.faults):
                raise FaultPlanError(
                    "plan contains domain faults (node/switch/partition) "
                    "but no topology was given; pass "
                    "FaultInjector(plan, topology=Topology(...))"
                )
            self._lowered = {
                f.rank: f for f in plan.of_type(RankFailure)
            }
            self._failures = {f.rank: f.time for f in plan.of_type(RankFailure)}
            self._domains = {}
        else:
            from repro.faults.domains import lower_domain_faults

            lowered = lower_domain_faults(plan, topology)
            self._lowered = {e.rank: e for e in lowered}
            self._failures = {e.rank: e.time for e in lowered}
            self._domains = {e.rank: e.domain for e in lowered if e.domain}
        self._msg_seq = 0
        self._corrupt_seq = 0
        # (stream, *pair) -> SHA-256 state of "plan.seed/stream/src/dst",
        # the derive_seed prefix every roll of that key extends
        self._prefixes: dict[tuple, object] = {}
        # transition keys already recorded (one trace event per onset, not
        # one per query)
        self._noted: set[tuple] = set()

    # -- recording --------------------------------------------------------------
    def record(
        self,
        kind: str,
        time: float,
        *,
        rank: int | None = None,
        src: int | None = None,
        dst: int | None = None,
        detail: str = "",
    ) -> None:
        """Append one event to :attr:`trace`, the run's one fault log."""
        self.trace.record(kind, time, rank=rank, src=src, dst=dst, detail=detail)

    def _note(self, key: tuple, kind: str, time: float, **fields) -> None:
        if key in self._noted:
            return
        self._noted.add(key)
        self.record(kind, time, **fields)

    def _roll(self, key: tuple, seq: int) -> float:
        """``default_rng(derive_seed(plan.seed, *key, seq)).random()``,
        hashing the prefix ``plan.seed/*key`` once per key."""
        prefix = self._prefixes.get(key)
        if prefix is None:
            prefix = self._prefixes[key] = seed_prefix(self.plan.seed, *key)
        return seeded_random(extend_seed(prefix, seq))

    # -- compute (stragglers / jitter) ------------------------------------------
    def compute_factor(self, rank: int, time: float, step: int = 0) -> float:
        """Slowdown multiplier for one rank's compute at (time, step)."""
        factor = 1.0
        for i, f in enumerate(self._stragglers):
            if f.rank != rank:
                continue
            if window_active(f.start, f.duration, time):
                factor *= f.factor
                self._note(
                    ("straggler", i), "straggler-on", time,
                    rank=rank, detail=f"factor={f.factor:g}",
                )
            elif ("straggler", i) in self._noted:
                self._note(
                    ("straggler-off", i), "straggler-off", time, rank=rank
                )
        for f in self._jitters:
            if f.sigma > 0 and window_active(f.start, f.duration, time):
                z = abs(
                    float(
                        np.random.default_rng(
                            derive_seed(self.plan.seed, "jitter", rank, step)
                        ).standard_normal()
                    )
                )
                factor *= 1.0 + f.sigma * z
        return factor

    # -- links ------------------------------------------------------------------
    def link_state(self, kind, time: float) -> tuple[float, float]:
        """(bandwidth multiplier, extra latency seconds) for a link class.

        ``kind`` is a :class:`~repro.hardware.links.LinkKind` (or its value
        string).  Flapping faults alternate degraded/healthy half-periods.
        """
        kind_value = getattr(kind, "value", kind)
        bw_factor = 1.0
        extra = 0.0
        for i, f in enumerate(self._links):
            if f.kind is not None and f.kind != kind_value:
                continue
            if not window_active(f.start, f.duration, time):
                continue
            if f.flap_period_s > 0:
                phase = (time - f.start) % f.flap_period_s
                cycle = int((time - f.start) // f.flap_period_s)
                if phase >= f.flap_period_s / 2:
                    self._note(
                        ("link-up", i, cycle), "link-restored", time,
                        detail=kind_value,
                    )
                    continue
                self._note(
                    ("link-down", i, cycle), "link-degraded", time,
                    detail=f"{kind_value} bw*{f.bandwidth_factor:g} cycle={cycle}",
                )
            else:
                self._note(
                    ("link-down", i), "link-degraded", time,
                    detail=f"{kind_value} bw*{f.bandwidth_factor:g}",
                )
            bw_factor *= f.bandwidth_factor
            extra += f.latency_add_s
        return bw_factor, extra

    # -- severed paths (partitions / switch outages) -----------------------------
    def path_severed(self, src: int, dst: int, time: float) -> bool:
        """True when no fabric path exists between two ranks right now.

        A partition severs every path crossing the cut (the island keeps
        its internal fabric); a dead leaf switch severs every inter-node
        path touching a node behind it.  Same-node pairs ride NVLink and
        are never severed.
        """
        topo = self.topology
        if topo is None or src == dst:
            return False
        src_node = topo.node_of_rank(src)
        dst_node = topo.node_of_rank(dst)
        if src_node == dst_node:
            return False
        for f in self._partitions:
            if not window_active(f.start, f.duration, time):
                continue
            if (src_node in f.nodes) != (dst_node in f.nodes):
                return True
        for f in self._switch_failures:
            if not window_active(f.time, f.down_s, time):
                continue
            behind = set(topo.nodes_behind_switch(f.switch))
            if src_node in behind or dst_node in behind:
                return True
        return False

    # -- messages ---------------------------------------------------------------
    def message_verdict(self, src: int, dst: int, time: float) -> MessageVerdict:
        """Drop/delay decision for one transmission attempt.

        Each consultation advances a sequence counter, so retransmissions
        re-roll the (seeded) drop decision deterministically.  A severed
        path returns a guaranteed drop *without* consuming the sequence
        counter — topology verdicts are deterministic, so they must not
        perturb the seeded stream of probabilistic drops.
        """
        if self.path_severed(src, dst, time):
            self._note(
                ("severed", src, dst), "msg-severed", time, src=src, dst=dst,
                detail="no fabric path (partition/switch outage)",
            )
            return MessageVerdict(drop=True, severed=True)
        drop = False
        delay = 0.0
        for f in self._messages:
            if f.src is not None and f.src != src:
                continue
            if f.dst is not None and f.dst != dst:
                continue
            if not window_active(f.start, f.duration, time):
                continue
            delay += f.delay_s
            if f.drop_prob > 0 and not drop:
                seq = self._msg_seq
                self._msg_seq += 1
                drop = self._roll(("drop", src, dst), seq) < f.drop_prob
        if drop:
            self.record("msg-drop", time, src=src, dst=dst)
        elif delay > 0:
            self.record("msg-delay", time, src=src, dst=dst,
                        detail=f"{delay:g}s")
        return MessageVerdict(drop=drop, delay_s=delay)

    # -- corruption --------------------------------------------------------------
    def corruption_verdict(self, src: int, dst: int, time: float) -> bool:
        """True when this transmission attempt's payload is corrupted.

        Rolled per attempt from the plan seed on a sequence counter
        separate from the drop stream, so corruption plans never perturb
        drop decisions (and vice versa).  Every hit is recorded —
        downstream CRC detection must pair each ``wire-corrupt`` event
        with a ``crc-detected`` one.
        """
        for f in self._wire_corruptions:
            if not window_active(f.start, f.duration, time):
                continue
            seq = self._corrupt_seq
            self._corrupt_seq += 1
            if self._roll(("corrupt", src, dst), seq) < f.prob:
                self.record("wire-corrupt", time, src=src, dst=dst)
                return True
        return False

    def wire_corruption_active(self, time: float) -> bool:
        """True while any wire-corruption window covers ``time``.

        Steady-state extrapolation must not skip engine steps inside an
        active window — an extrapolated step sends no messages, so the
        corruption (and its CRC retransmit cost) would silently vanish.
        """
        return any(
            window_active(f.start, f.duration, time)
            for f in self._wire_corruptions
        )

    def checkpoint_corrupt(self, save_index: int, time: float) -> bool:
        """True when snapshot number ``save_index`` is written corrupt
        (torn write / bit rot caught later by checksum verification)."""
        for f in self._ckpt_corruptions:
            if not window_active(f.start, f.duration, time):
                continue
            if self._roll(("ckpt-corrupt",), save_index) < f.prob:
                self.record(
                    "ckpt-corrupt", time, detail=f"save_index={save_index}"
                )
                return True
        return False

    # -- rank failures ----------------------------------------------------------
    def failure_time(self, rank: int) -> float | None:
        """When ``rank`` permanently fails, or None if it never does."""
        return self._failures.get(rank)

    def failed_ranks(self, time: float) -> set[int]:
        return {r for r, t in self._failures.items() if t <= time}

    def failure_down_s(self, rank: int) -> float | None:
        """Outage duration for ``rank``'s failure (None: permanent or no
        failure scheduled)."""
        spec = self._lowered.get(rank)
        return spec.down_s if spec is not None else None

    def domain_of(self, rank: int) -> str:
        """Failure-domain label of ``rank``'s scheduled failure
        (``"node:2"``, ``"switch:1"``, ``"partition:0"``) or ``""`` for
        an independent failure / no failure at all."""
        return self._domains.get(rank, "")
