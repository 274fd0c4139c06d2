"""Message-size × world-size algorithm-selection tables (MVAPICH2-style).

MVAPICH2 ships per-architecture tuning tables that pick a collective
algorithm from the (message size, communicator size) pair; the paper's
MVAPICH2-GDR vs. NCCL crossover is exactly that mechanism.  A
:class:`SelectionTable` is the simulator's version: a small 2-D grid of
algorithm names bucketed by byte and rank thresholds, either built in
(mirroring the heuristics the backends already apply) or produced by the
sim-driven autotuner in :mod:`repro.comm.tuning`.

Tables are *opt-in*: with no table the communicator passes
``algorithm=None`` and every backend falls back to its own heuristic.
A study routes through one by carrying it in its config
(``StudyConfig.comm_table``), which ``build_communicator(table=...)``
hands to the communicator; there is no process-wide table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.utils.tables import TextTable
from repro.utils.units import format_bytes


@dataclass(frozen=True)
class SelectionTable:
    """Algorithm choices on a (byte bucket) × (rank bucket) grid.

    ``byte_edges``/``rank_edges`` are ascending *inclusive upper bounds*
    of buckets ``0..len(edges)-1``; values beyond the last edge land in
    the final, open-ended bucket.  ``algorithms[b][r]`` is therefore a
    ``(len(byte_edges)+1) × (len(rank_edges)+1)`` grid.
    """

    backend: str
    byte_edges: tuple[int, ...]
    rank_edges: tuple[int, ...]
    algorithms: tuple[tuple[str, ...], ...]
    #: provenance ("builtin", "tuned", ...) and tuning records: neither
    #: changes what the table routes, so neither enters equality or a digest
    source: str = field(default="builtin", compare=False)
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        for name, edges in (("byte_edges", self.byte_edges), ("rank_edges", self.rank_edges)):
            if list(edges) != sorted(set(edges)):
                raise ConfigError(f"{name} must be strictly ascending, got {edges}")
        want_rows = len(self.byte_edges) + 1
        want_cols = len(self.rank_edges) + 1
        if len(self.algorithms) != want_rows or any(
            len(row) != want_cols for row in self.algorithms
        ):
            raise ConfigError(
                f"algorithms grid must be {want_rows}x{want_cols} for "
                f"{len(self.byte_edges)} byte edges and {len(self.rank_edges)} rank edges"
            )

    # -- lookup -------------------------------------------------------------
    @staticmethod
    def _bucket(value: int, edges: tuple[int, ...]) -> int:
        for i, edge in enumerate(edges):
            if value <= edge:
                return i
        return len(edges)

    def lookup(self, nbytes: int, num_ranks: int) -> str:
        """The algorithm this table selects for one collective."""
        b = self._bucket(nbytes, self.byte_edges)
        r = self._bucket(num_ranks, self.rank_edges)
        return self.algorithms[b][r]

    # -- identity -----------------------------------------------------------
    def digest(self) -> str:
        """Content address of the selection policy (folds into cache keys)."""
        from repro.perf.digest import canonical_digest

        return canonical_digest(
            {
                "kind": "comm-table",
                "backend": self.backend,
                "byte_edges": list(self.byte_edges),
                "rank_edges": list(self.rank_edges),
                "algorithms": [list(row) for row in self.algorithms],
            }
        )

    # -- serialization ------------------------------------------------------
    def to_payload(self) -> dict:
        return {
            "backend": self.backend,
            "byte_edges": list(self.byte_edges),
            "rank_edges": list(self.rank_edges),
            "algorithms": [list(row) for row in self.algorithms],
            "source": self.source,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SelectionTable":
        return cls(
            backend=payload["backend"],
            byte_edges=tuple(payload["byte_edges"]),
            rank_edges=tuple(payload["rank_edges"]),
            algorithms=tuple(tuple(row) for row in payload["algorithms"]),
            source=payload.get("source", "builtin"),
            extra=dict(payload.get("extra", {})),
        )

    # -- display ------------------------------------------------------------
    def render(self) -> str:
        headers = ["Message Size"] + [
            f"<= {e} ranks" for e in self.rank_edges
        ] + [f"> {self.rank_edges[-1]} ranks" if self.rank_edges else "any ranks"]
        table = TextTable(
            headers,
            title=f"{self.backend} selection table ({self.source}) "
            f"digest={self.digest()[:12]}",
        )
        labels = [f"<= {format_bytes(e)}" for e in self.byte_edges] + [
            f"> {format_bytes(self.byte_edges[-1])}" if self.byte_edges else "any"
        ]
        for label, row in zip(labels, self.algorithms):
            table.add_row(label, *row)
        return table.render()
