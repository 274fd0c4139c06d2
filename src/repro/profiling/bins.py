"""Message-size bins (Table I's row structure)."""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.utils.units import KIB, MIB, format_bytes


@dataclass(frozen=True)
class SizeBin:
    """Half-open byte interval [low, high)."""

    label: str
    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low < 0 or self.high <= self.low:
            raise ConfigError(f"bad bin bounds [{self.low}, {self.high})")

    def contains(self, nbytes: int) -> bool:
        return self.low <= nbytes < self.high


#: the exact bins of the paper's Table I / Fig. 14
PAPER_BINS = (
    SizeBin("1-128 KB", 0, 128 * KIB),
    SizeBin("128 KB - 16 MB", 128 * KIB, 16 * MIB),
    SizeBin("16 MB - 32 MB", 16 * MIB, 32 * MIB),
    SizeBin("32 MB - 64 MB", 32 * MIB, 64 * MIB + 1),
)


def bin_for(nbytes: int, bins: tuple[SizeBin, ...] = PAPER_BINS) -> SizeBin | None:
    """The bin containing ``nbytes``, or None if out of range."""
    for b in bins:
        if b.contains(nbytes):
            return b
    return None


def overflow_bin(bins: tuple[SizeBin, ...] = PAPER_BINS) -> SizeBin:
    """The bin above the last of ``bins``, which must tile ``[0, top)`` in
    order: with it, every size has a bin.  Table I has no such row, so a
    report shows it only when it holds an op."""
    low = 0
    for b in bins:
        if b.low != low:
            raise ConfigError(
                f"bins must tile [0, top) in order; {b.label!r} starts at "
                f"{b.low}, not {low}"
            )
        low = b.high
    return SizeBin(f"> {format_bytes(low - 1)}", low, sys.maxsize)
