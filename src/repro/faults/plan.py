"""Declarative, serializable fault schedules.

A :class:`FaultPlan` is the single source of truth for everything adverse
that happens during a simulated run: which ranks slow down and when, which
link classes degrade or flap, which messages get dropped or delayed, and
which ranks die outright.  Plans are frozen dataclasses keyed by a root
seed, so the same plan always produces the same injected behaviour — the
property the chaos and determinism test suites are built on.

Time values are *simulation* seconds (the trainer's accumulated step clock
or ``Environment.now`` inside the event engine, depending on the layer the
fault targets).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.errors import ConfigError, FaultPlanError


def _check_window(name: str, start: float, duration: float | None) -> None:
    if start < 0:
        raise FaultPlanError(f"{name}: start must be >= 0, got {start}")
    if duration is not None and duration <= 0:
        # Windows are half-open [start, start + duration) — see
        # ``repro.faults.injector.window_active`` — so duration=0 would
        # define an empty window that can never fire.
        raise FaultPlanError(
            f"{name}: duration must be positive (or None for permanent); "
            f"duration={duration} defines an empty window that never fires"
        )


@dataclass(frozen=True)
class StragglerFault:
    """Deterministic per-rank compute slowdown.

    ``factor`` multiplies the rank's backward/compute time while the fault
    window is active; ``duration=None`` makes the straggler permanent.
    """

    rank: int
    factor: float
    start: float = 0.0
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise FaultPlanError(f"straggler: rank must be >= 0, got {self.rank}")
        if self.factor < 1.0:
            raise FaultPlanError(
                f"straggler: factor must be >= 1.0 (a slowdown), got {self.factor}"
            )
        _check_window("straggler", self.start, self.duration)


@dataclass(frozen=True)
class JitterFault:
    """Seeded Gaussian compute jitter applied to every rank, every step.

    Each (rank, step) draws ``|N(0, 1)|`` from the plan seed and inflates
    compute by ``1 + sigma * |z|`` — the stochastic-straggler model behind
    the paper's ``sigma`` ablation, made reproducible.  Because the draws
    depend only on the seed (not on ``sigma``), step time is monotone in
    ``sigma`` for a fixed seed.
    """

    sigma: float
    start: float = 0.0
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise FaultPlanError(f"jitter: sigma must be >= 0, got {self.sigma}")
        _check_window("jitter", self.start, self.duration)


@dataclass(frozen=True)
class LinkFault:
    """Degradation (and optional flapping) of one physical link class.

    ``kind`` is a :class:`~repro.hardware.links.LinkKind` value string
    (``"nvlink-p2p"``, ``"ib"``, ...) or ``None`` for every link.  While
    active, bandwidth is multiplied by ``bandwidth_factor`` and
    ``latency_add_s`` is added to the link alpha.  ``flap_period_s > 0``
    turns the fault into a square wave: degraded for the first half of each
    period, healthy for the second.
    """

    kind: str | None = None
    bandwidth_factor: float = 1.0
    latency_add_s: float = 0.0
    start: float = 0.0
    duration: float | None = None
    flap_period_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise FaultPlanError(
                "link: bandwidth_factor must be in (0, 1], got "
                f"{self.bandwidth_factor}"
            )
        if self.latency_add_s < 0:
            raise FaultPlanError(
                f"link: latency_add_s must be >= 0, got {self.latency_add_s}"
            )
        if self.flap_period_s < 0:
            raise FaultPlanError(
                f"link: flap_period_s must be >= 0, got {self.flap_period_s}"
            )
        if self.bandwidth_factor == 1.0 and self.latency_add_s == 0.0:
            raise FaultPlanError("link: fault degrades nothing")
        _check_window("link", self.start, self.duration)


@dataclass(frozen=True)
class MessageFault:
    """Dropped and/or delayed point-to-point messages.

    Applies to the event-driven transport path (``transfer_proc`` /
    :class:`~repro.mpi.p2p.P2PFabric`) and to NCCL's and the hierarchical
    backend's ring hops; the default analytic MPI engine never consults
    it, so MPI study points ignore it.  ``src``/``dst`` of ``None``
    match any rank.  Drops are decided per attempt from the plan seed, so
    retransmissions re-roll deterministically.
    """

    src: int | None = None
    dst: int | None = None
    drop_prob: float = 0.0
    delay_s: float = 0.0
    start: float = 0.0
    duration: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0:
            raise FaultPlanError(
                f"message: drop_prob must be in [0, 1], got {self.drop_prob}"
            )
        if self.delay_s < 0:
            raise FaultPlanError(
                f"message: delay_s must be >= 0, got {self.delay_s}"
            )
        if self.drop_prob == 0.0 and self.delay_s == 0.0:
            raise FaultPlanError("message: fault neither drops nor delays")
        _check_window("message", self.start, self.duration)


@dataclass(frozen=True)
class RankFailure:
    """Loss of one rank at ``time`` (node crash / GPU falls off the bus).

    ``down_s=None`` makes the outage permanent; a finite ``down_s`` means
    the node returns to service that many seconds later, and an elastic
    recovery policy (:class:`~repro.resilience.RecoveryPolicy` with
    ``regrow=True``) may re-admit the rank once the window ends.  How a
    failure is absorbed — shrink, restart-from-checkpoint, regrow — is
    always the consumer's policy, never the plan's.
    """

    rank: int
    time: float = 0.0
    down_s: float | None = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise FaultPlanError(f"failure: rank must be >= 0, got {self.rank}")
        if self.time < 0:
            raise FaultPlanError(f"failure: time must be >= 0, got {self.time}")
        if self.down_s is not None and self.down_s <= 0:
            raise FaultPlanError(
                "failure: down_s must be positive (or None for permanent), "
                f"got {self.down_s}"
            )


@dataclass(frozen=True)
class NodeFailure:
    """Correlated loss of one whole node (PSU trip, kernel panic).

    Every GPU rank hosted on ``node`` fails *simultaneously* at ``time``
    — the blast radius is computed from the cluster topology
    (:class:`~repro.faults.domains.Topology`), so a Lassen node takes its
    4 ranks down in one detection window, not 4 staggered ones.
    ``down_s`` follows :class:`RankFailure` semantics.
    """

    node: int
    time: float = 0.0
    down_s: float | None = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise FaultPlanError(
                f"node-failure: node must be >= 0, got {self.node}"
            )
        if self.time < 0:
            raise FaultPlanError(
                f"node-failure: time must be >= 0, got {self.time}"
            )
        if self.down_s is not None and self.down_s <= 0:
            raise FaultPlanError(
                "node-failure: down_s must be positive (or None for "
                f"permanent), got {self.down_s}"
            )


@dataclass(frozen=True)
class SwitchFailure:
    """Loss of one leaf (TOR) switch of the fat-tree.

    Every IB path through the switch is severed for the outage window:
    the nodes behind it keep computing but cannot reach the rest of the
    fabric, so from the job's point of view all their ranks drop out at
    once.  Messages attempted across the severed boundary fail the retry
    ladder and raise :class:`~repro.errors.MpiTimeoutError`.
    """

    switch: int
    time: float = 0.0
    down_s: float | None = None

    def __post_init__(self) -> None:
        if self.switch < 0:
            raise FaultPlanError(
                f"switch-failure: switch must be >= 0, got {self.switch}"
            )
        if self.time < 0:
            raise FaultPlanError(
                f"switch-failure: time must be >= 0, got {self.time}"
            )
        if self.down_s is not None and self.down_s <= 0:
            raise FaultPlanError(
                "switch-failure: down_s must be positive (or None for "
                f"permanent), got {self.down_s}"
            )


@dataclass(frozen=True)
class PartitionFault:
    """Network partition: a set of nodes is cut off from the rest.

    ``nodes`` is the severed island; the side holding node 0 (where the
    coordinator lives) keeps running, so node 0 may not be listed.  While
    the window is active every path crossing the cut is severed — the
    survivors see the island's ranks die together, and any message across
    the cut exhausts its retry ladder with
    :class:`~repro.errors.MpiTimeoutError`.  ``duration=None`` makes the
    partition permanent; a finite duration heals it, after which a
    ``regrow`` recovery policy may re-admit the island.
    """

    nodes: tuple[int, ...] = ()
    start: float = 0.0
    duration: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise FaultPlanError("partition: needs at least one severed node")
        if any(n < 0 for n in self.nodes):
            raise FaultPlanError(
                f"partition: node ids must be >= 0, got {self.nodes}"
            )
        if 0 in self.nodes:
            raise FaultPlanError(
                "partition: node 0 hosts the coordinator and must stay on "
                "the surviving side; list the severed island only"
            )
        if len(set(self.nodes)) != len(self.nodes):
            raise FaultPlanError(
                f"partition: duplicate node ids in {self.nodes}"
            )
        _check_window("partition", self.start, self.duration)


@dataclass(frozen=True)
class CorruptionFault:
    """Seeded bit-flip corruption of data in flight or at rest.

    ``target="wire"`` corrupts point-to-point payloads with probability
    ``prob`` per transmission attempt; the transport's CRC32 check
    detects the damage and retransmits through the retry ladder (an
    undetected corruption can never reach optimizer state).
    ``target="checkpoint"`` corrupts snapshot writes with probability
    ``prob`` per save; the restart path's checksum verification skips the
    damaged snapshot and falls back to an older one.
    """

    target: str = "wire"
    prob: float = 0.0
    start: float = 0.0
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.target not in ("wire", "checkpoint"):
            raise FaultPlanError(
                "corruption: target must be 'wire' or 'checkpoint', got "
                f"{self.target!r}"
            )
        if not 0.0 < self.prob <= 1.0:
            raise FaultPlanError(
                f"corruption: prob must be in (0, 1], got {self.prob}"
            )
        _check_window("corruption", self.start, self.duration)


@dataclass(frozen=True)
class RetryPolicy:
    """Retransmission semantics for dropped messages.

    A lost message costs ``ack_timeout_s`` to detect, then retransmits
    after an exponential backoff (``base_backoff_s * backoff_factor**k``).
    After ``max_retries`` consecutive losses the transport raises
    :class:`~repro.errors.MpiTimeoutError`.

    ``max_retries=0`` is *fail-fast*: the first loss raises immediately
    (no retransmission).  Invalid timing parameters are rejected here
    with :class:`~repro.errors.ConfigError` — a zero ack timeout or a
    negative backoff would otherwise surface as a silent downstream hang
    or a simulation that never advances.
    """

    max_retries: int = 4
    ack_timeout_s: float = 500e-6
    base_backoff_s: float = 100e-6
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"retry: max_retries must be >= 0 (0 means fail-fast on "
                f"the first loss), got {self.max_retries}"
            )
        if self.ack_timeout_s <= 0:
            raise ConfigError(
                "retry: ack_timeout_s must be > 0 (a zero timeout would "
                f"poll a lost message forever), got {self.ack_timeout_s}"
            )
        if self.base_backoff_s < 0:
            raise ConfigError(
                f"retry: base_backoff_s must be >= 0, got {self.base_backoff_s}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"retry: backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff(self, attempt: int) -> float:
        """Backoff before retransmission ``attempt`` (1-based)."""
        return self.base_backoff_s * self.backoff_factor ** (attempt - 1)

    def ladder_time(self) -> float:
        """Total wall time of the exhausted retry ladder — what a sender
        waits before declaring a severed path dead: one ack timeout plus
        backoff per retransmission."""
        return sum(
            self.ack_timeout_s + self.backoff(k)
            for k in range(1, self.max_retries + 1)
        )


_FAULT_TYPES = {
    "straggler": StragglerFault,
    "jitter": JitterFault,
    "link": LinkFault,
    "message": MessageFault,
    "failure": RankFailure,
    "node-failure": NodeFailure,
    "switch-failure": SwitchFailure,
    "partition": PartitionFault,
    "corruption": CorruptionFault,
}
_TYPE_NAMES = {cls: name for name, cls in _FAULT_TYPES.items()}

FaultSpec = (
    StragglerFault | JitterFault | LinkFault | MessageFault | RankFailure
    | NodeFailure | SwitchFailure | PartitionFault | CorruptionFault
)

#: fault classes whose blast radius needs the cluster topology to resolve
DOMAIN_FAULTS = (NodeFailure, SwitchFailure, PartitionFault)


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered collection of fault specs.

    The empty plan (``FaultPlan(seed=s)``) injects nothing; running under
    it must reproduce a fault-free run exactly.
    """

    seed: int = 0
    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for f in self.faults:
            if type(f) not in _TYPE_NAMES:
                raise FaultPlanError(f"unknown fault spec {f!r}")

    def of_type(self, cls: type) -> list:
        return [f for f in self.faults if isinstance(f, cls)]

    @property
    def failures(self) -> list[RankFailure]:
        return self.of_type(RankFailure)

    # -- serialization (the documented schema) ---------------------------------
    def to_json(self) -> str:
        entries = []
        for f in self.faults:
            entry = {"type": _TYPE_NAMES[type(f)]}
            entry.update(asdict(f))
            entries.append(entry)
        return json.dumps({"seed": self.seed, "faults": entries}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"invalid fault-plan JSON: {exc}") from exc
        faults = []
        for entry in raw.get("faults", []):
            kind = entry.pop("type", None)
            if kind not in _FAULT_TYPES:
                raise FaultPlanError(f"unknown fault type {kind!r}")
            faults.append(_FAULT_TYPES[kind](**entry))
        return cls(seed=int(raw.get("seed", 0)), faults=tuple(faults))
