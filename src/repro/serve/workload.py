"""Seeded open-loop arrival-trace generators for SR inference serving.

A serving experiment begins from an *arrival trace*: the full list of
requests (arrival time, LR patch size, upscale factor) that will hit the
front-end router, generated ahead of the simulation from a root seed.
Open-loop means arrivals never react to system state — overload shows up
as queueing and shedding instead of silently throttled offered load,
which is the regime the SLO ledger is designed to expose.

Four arrival processes are modelled:

* **poisson** — homogeneous Poisson at ``rate_rps``;
* **diurnal** — inhomogeneous Poisson whose rate follows a raised cosine
  over ``period_s`` (peak/trough controlled by ``diurnal_depth``),
  generated by Lewis-Shedler thinning so the trace stays exact;
* **bursty** — a Markov-modulated Poisson process alternating between a
  quiet base rate and ``burst_factor``-times-higher bursts with
  exponentially distributed sojourn times;
* **video** — homogeneous Poisson *session* starts; each session expands
  into one request per frame at the class's frame rate, so the trace is a
  superposition of isochronous frame trains (the unit of the router's
  session affinity and of the jitter-buffer SLO).

All randomness derives from :func:`repro.utils.seeding.derive_seed`, so
``generate_arrivals(cfg, duration, seed)`` is a pure function: the same
inputs always produce the identical trace, in any process (the property
the ``--jobs 2`` sweep determinism tests pin down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.models.blocks import SUPPORTED_SCALES
from repro.sim import fastpath
from repro.utils.seeding import derive_seed


@dataclass(frozen=True)
class RequestClass:
    """One kind of SR request: an LR patch size and an upscale factor.

    ``weight`` is the relative probability of this class in the mix;
    weights need not sum to one.  A class with ``frames > 1`` is a *video
    stream*: one arrival starts a session that emits ``frames`` requests
    at ``frame_rate_fps``, each carrying the per-frame ``deadline_s``
    playout deadline (``None`` falls back to the scenario's SLO target).
    """

    name: str
    patch: int = 48
    scale: int = 2
    weight: float = 1.0
    frames: int = 1
    frame_rate_fps: float = 24.0
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.patch < 8:
            raise ConfigError(f"patch must be >= 8, got {self.patch}")
        if self.scale not in SUPPORTED_SCALES:
            raise ConfigError(
                f"scale must be one of {SUPPORTED_SCALES}, got {self.scale}"
            )
        if self.weight <= 0:
            raise ConfigError(f"weight must be > 0, got {self.weight}")
        if self.frames < 1:
            raise ConfigError(f"frames must be >= 1, got {self.frames}")
        if self.frame_rate_fps <= 0:
            raise ConfigError(
                f"frame_rate_fps must be > 0, got {self.frame_rate_fps}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError(
                f"deadline_s must be > 0 when set, got {self.deadline_s}"
            )


#: default mixed traffic: mostly thumbnail-sized x2 patches, some larger
#: patches, and a tail of expensive x4 upscales
DEFAULT_MIX = (
    RequestClass("thumb-x2", patch=48, scale=2, weight=6.0),
    RequestClass("photo-x2", patch=96, scale=2, weight=3.0),
    RequestClass("photo-x4", patch=96, scale=4, weight=1.0),
)

#: default video traffic: short x2 clips at 24 fps plus a tail of larger,
#: slower x4 clips; per-frame deadlines sized to roughly two frame times
VIDEO_MIX = (
    RequestClass(
        "clip-x2", patch=48, scale=2, weight=3.0,
        frames=24, frame_rate_fps=24.0, deadline_s=0.084,
    ),
    RequestClass(
        "clip-x4", patch=96, scale=4, weight=1.0,
        frames=12, frame_rate_fps=12.0, deadline_s=0.167,
    ),
)

WORKLOAD_KINDS = ("poisson", "diurnal", "bursty", "video")


@dataclass(frozen=True)
class WorkloadConfig:
    """Declarative, digest-able description of one arrival process."""

    kind: str = "poisson"
    rate_rps: float = 25.0
    classes: tuple[RequestClass, ...] = field(default_factory=lambda: DEFAULT_MIX)
    #: diurnal: modulation period and depth (0 flat .. 1 trough hits zero)
    diurnal_period_s: float = 60.0
    diurnal_depth: float = 0.8
    #: bursty: rate multiplier inside a burst and mean sojourn times
    burst_factor: float = 6.0
    burst_mean_s: float = 2.0
    quiet_mean_s: float = 8.0

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigError(
                f"workload kind must be one of {WORKLOAD_KINDS}, got {self.kind!r}"
            )
        if self.rate_rps <= 0:
            raise ConfigError(f"rate_rps must be > 0, got {self.rate_rps}")
        if not self.classes:
            raise ConfigError("workload needs at least one request class")
        object.__setattr__(self, "classes", tuple(self.classes))
        if not 0.0 <= self.diurnal_depth <= 1.0:
            raise ConfigError(
                f"diurnal_depth must be in [0, 1], got {self.diurnal_depth}"
            )
        if self.diurnal_period_s <= 0:
            raise ConfigError("diurnal_period_s must be > 0")
        if self.burst_factor < 1.0:
            raise ConfigError(
                f"burst_factor must be >= 1, got {self.burst_factor}"
            )
        if self.burst_mean_s <= 0 or self.quiet_mean_s <= 0:
            raise ConfigError("burst/quiet sojourn means must be > 0")


@dataclass(frozen=True)
class Request:
    """One inference request in the arrival trace.

    Video frames carry the session they belong to and their frame index;
    single-image requests leave ``session`` as ``None``.
    """

    rid: int
    cls: RequestClass
    arrival: float
    session: int | None = None
    frame: int = 0


def _poisson_times_fast(
    cfg: WorkloadConfig, duration_s: float, seed: int
) -> list[float]:
    """Vectorized homogeneous-Poisson trace, bit-identical to the scalar
    loop that the walk oracle (``repro.sim.fastpath.walk_oracle``) runs.

    ``np.cumsum`` accumulates left-to-right with the same float association
    as ``t += gap``, and a batched ``rng.exponential(scale, size=n)``
    consumes the bit stream exactly as n scalar draws do — so the only
    freedom is how many draws to take.  The scalar loop stops at the first
    arrival past ``duration_s``; here we overdraw (the class-pick RNG is
    seeded independently, so overdrawing cannot perturb anything
    downstream) and, if the estimate ever falls short, rebuild the
    generator and redraw the *same* leading stream at twice the size.
    """
    scale = 1.0 / cfg.rate_rps
    expected = cfg.rate_rps * duration_s
    n = max(16, int(expected + 10.0 * math.sqrt(expected) + 16))
    while True:
        rng = np.random.default_rng(derive_seed(seed, "serve-arrivals", cfg.kind))
        cum = np.cumsum(rng.exponential(scale, size=n))
        if cum[-1] >= duration_s:
            cut = int(np.searchsorted(cum, duration_s, side="left"))
            return cum[:cut].tolist()
        n *= 2


def _arrival_times(
    cfg: WorkloadConfig, duration_s: float, seed: int
) -> list[float]:
    if cfg.kind in ("poisson", "video") and not fastpath.WALK_ORACLE:
        return _poisson_times_fast(cfg, duration_s, seed)
    rng = np.random.default_rng(derive_seed(seed, "serve-arrivals", cfg.kind))
    times: list[float] = []
    if cfg.kind in ("poisson", "video"):
        t = 0.0
        while True:
            t += rng.exponential(1.0 / cfg.rate_rps)
            if t >= duration_s:
                break
            times.append(t)
    elif cfg.kind == "diurnal":
        # Lewis-Shedler thinning against the raised-cosine envelope.
        peak = cfg.rate_rps * (1.0 + cfg.diurnal_depth)
        t = 0.0
        while True:
            t += rng.exponential(1.0 / peak)
            if t >= duration_s:
                break
            lam = cfg.rate_rps * (
                1.0
                + cfg.diurnal_depth
                * math.cos(2.0 * math.pi * t / cfg.diurnal_period_s)
            )
            if rng.random() < lam / peak:
                times.append(t)
    else:  # bursty (MMPP): alternate quiet/burst phases
        t = 0.0
        burst = False
        phase_end = float(rng.exponential(cfg.quiet_mean_s))
        while t < duration_s:
            rate = cfg.rate_rps * (cfg.burst_factor if burst else 1.0)
            t += rng.exponential(1.0 / rate)
            while t >= phase_end:
                burst = not burst
                mean = cfg.burst_mean_s if burst else cfg.quiet_mean_s
                phase_end += float(rng.exponential(mean))
            if t < duration_s:
                times.append(t)
    return times


def generate_arrivals(
    cfg: WorkloadConfig, duration_s: float, seed: int
) -> tuple[Request, ...]:
    """The full deterministic arrival trace for one serving run.

    The homogeneous-Poisson generator is vectorized (see
    :func:`_poisson_times_fast`); the inhomogeneous processes interleave
    thinning draws and stay scalar.

    When any class in the mix streams (``frames > 1``), every arrival is
    a *session start*: session ``s`` with class ``c`` expands into
    ``c.frames`` frame requests at ``start + k / c.frame_rate_fps``, and
    requests are renumbered in global (arrival, session, frame) order.
    Mixes whose classes are all single-frame keep the exact historical
    trace, so existing digests and baselines are untouched.
    """
    if duration_s <= 0:
        raise ConfigError(f"duration_s must be > 0, got {duration_s}")
    times = _arrival_times(cfg, duration_s, seed)
    weights = np.asarray([c.weight for c in cfg.classes], dtype=float)
    probs = weights / weights.sum()
    rng = np.random.default_rng(derive_seed(seed, "serve-classes", cfg.kind))
    picks = rng.choice(len(cfg.classes), size=len(times), p=probs)
    if all(c.frames == 1 for c in cfg.classes):
        return tuple(
            Request(rid=i, cls=cfg.classes[int(k)], arrival=float(t))
            for i, (t, k) in enumerate(zip(times, picks))
        )
    expanded: list[tuple[float, int, int, RequestClass]] = []
    for sid, (start, k) in enumerate(zip(times, picks)):
        cls = cfg.classes[int(k)]
        for frame in range(cls.frames):
            arrival = float(start) + frame / cls.frame_rate_fps
            expanded.append((arrival, sid, frame, cls))
    expanded.sort(key=lambda e: (e[0], e[1], e[2]))
    return tuple(
        Request(rid=i, cls=cls, arrival=arrival, session=sid, frame=frame)
        for i, (arrival, sid, frame, cls) in enumerate(expanded)
    )
