"""Left-to-right totals.

``sum()`` adds floats with Neumaier compensation from Python 3.12 on, so
its last bits can differ from the left-to-right fold earlier versions
compute.  Totals that feed a pinned number (a golden digest, a point
payload, a serving report) use :func:`fold_sum`, which adds in order on
every version.
"""

from __future__ import annotations


def fold_sum(values):
    """``0 + v0 + v1 + ...``, added left to right.

    Like ``sum()``, an empty ``values`` returns the int 0.
    """
    total = 0
    for value in values:
        total = total + value
    return total
