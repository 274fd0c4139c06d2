"""Deterministic seed derivation.

Every stochastic component (data generator, compute-jitter model, sampler)
draws its own :class:`numpy.random.Generator` from a root seed plus a string
key, so simulations are reproducible and adding a new consumer never
perturbs existing streams.  A consumer that needs one uniform per seed
draws it with :func:`seeded_random`, the same float without building a
generator.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np


def derive_seed(root_seed: int, *keys: str | int) -> int:
    """Derive a 63-bit child seed from ``root_seed`` and a key path."""
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode())
    for key in keys:
        h.update(b"/")
        h.update(str(key).encode())
    return int.from_bytes(h.digest()[:8], "little") & (2**63 - 1)


def seed_prefix(root_seed: int, *keys: str | int):
    """The SHA-256 state of :func:`derive_seed` after ``root_seed`` and
    ``keys``: the bytes ``"root/key0/key1/..."``.

    A caller that derives many seeds under one prefix hashes it once and
    finishes each with :func:`extend_seed`.
    """
    return hashlib.sha256("/".join(map(str, (int(root_seed), *keys))).encode())


def extend_seed(prefix, key: int) -> int:
    """``derive_seed(root_seed, *keys, key)`` from ``prefix =
    seed_prefix(root_seed, *keys)``; ``prefix`` itself is not changed."""
    h = prefix.copy()
    h.update(b"/%d" % key)
    return int.from_bytes(h.digest()[:8], "little") & (2**63 - 1)


def seeded_random(seed: int) -> float:
    """``np.random.default_rng(seed).random()``, bit for bit, without numpy.

    A per-attempt fault verdict needs one uniform draw, and building a
    numpy ``Generator`` for it costs far more than the draw.  This
    replays the generator's arithmetic on Python integers for ``0 <= seed
    < 2**64``, which covers every :func:`derive_seed` output; any other
    seed raises ``ValueError``.  A numpy integer seed is converted first
    (fixed-width arithmetic would wrap the 128-bit steps).

    1. ``SeedSequence(seed)`` fills a pool of four 32-bit words.  Word
       ``i`` starts as ``hashmix`` of the seed's ``i``-th little-endian
       32-bit word (zero past its end, so words 2 and 3 start as
       constants).  Then, for each source word in order, every other word
       becomes ``mix(word, hashmix(source))``.  ``generate_state(4,
       uint64)`` hashes the pool, cycled twice, into eight output words.
       ``hashmix`` xors its input with a running constant and multiplies
       it by the next one; both depend only on the call's index, so they
       appear below as literals, as does ``mix(constant, y)``'s first
       product.
    2. ``PCG64`` seeds from those words: ``s0`` is the first 128 bits and
       ``inc = 2 * seq + 1`` comes from the last 128; with ``M`` its
       128-bit LCG multiplier, its state becomes ``(s0 + inc) * M + inc``.
    3. ``random()`` takes one more step ``state * M + inc``, the XSL-RR
       output ``rotr64(hi ^ lo, state >> 122)`` and ``(out >> 11) *
       2**-53``.  Steps 2 and 3 fold into ``s0 * M**2 + seq * 2 * K + K``
       modulo ``2**128``, with ``K = M**2 + M + 1``.

    The property tests compare it with numpy over the whole seed range.
    """
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed!r}")
    # SeedSequence: hashmix the two seed words into the pool
    x = ((seed & 0xFFFFFFFF ^ 0x43B0D7E5) * 0xAE5A53A9) & 0xFFFFFFFF
    m0 = x ^ x >> 16
    x = ((seed >> 32 ^ 0xAE5A53A9) * 0x8488043D) & 0xFFFFFFFF
    m1 = x ^ x >> 16
    # source m0 into m1, m2, m3 (m2 and m3 still hold constants)
    x = ((m0 ^ 0x9205B1D5) * 0xE9096E59) & 0xFFFFFFFF
    m1 = (0xCA01F9DD * m1 - 0x4973F715 * (x ^ x >> 16)) & 0xFFFFFFFF
    m1 ^= m1 >> 16
    x = ((m0 ^ 0xE9096E59) * 0x8D5CB6AD) & 0xFFFFFFFF
    m2 = (0x5228666D - 0x4973F715 * (x ^ x >> 16)) & 0xFFFFFFFF
    m2 ^= m2 >> 16
    x = ((m0 ^ 0x8D5CB6AD) * 0x9BB16511) & 0xFFFFFFFF
    m3 = (0x74577501 - 0x4973F715 * (x ^ x >> 16)) & 0xFFFFFFFF
    m3 ^= m3 >> 16
    # source m1 into m0, m2, m3
    x = ((m1 ^ 0x9BB16511) * 0x00C238C5) & 0xFFFFFFFF
    m0 = (0xCA01F9DD * m0 - 0x4973F715 * (x ^ x >> 16)) & 0xFFFFFFFF
    m0 ^= m0 >> 16
    x = ((m1 ^ 0x00C238C5) * 0x4D029A09) & 0xFFFFFFFF
    m2 = (0xCA01F9DD * m2 - 0x4973F715 * (x ^ x >> 16)) & 0xFFFFFFFF
    m2 ^= m2 >> 16
    x = ((m1 ^ 0x4D029A09) * 0xCC132E1D) & 0xFFFFFFFF
    m3 = (0xCA01F9DD * m3 - 0x4973F715 * (x ^ x >> 16)) & 0xFFFFFFFF
    m3 ^= m3 >> 16
    # source m2 into m0, m1, m3
    x = ((m2 ^ 0xCC132E1D) * 0x83A97B41) & 0xFFFFFFFF
    m0 = (0xCA01F9DD * m0 - 0x4973F715 * (x ^ x >> 16)) & 0xFFFFFFFF
    m0 ^= m0 >> 16
    x = ((m2 ^ 0x83A97B41) * 0xFA8DDCB5) & 0xFFFFFFFF
    m1 = (0xCA01F9DD * m1 - 0x4973F715 * (x ^ x >> 16)) & 0xFFFFFFFF
    m1 ^= m1 >> 16
    x = ((m2 ^ 0xFA8DDCB5) * 0xAC4C06B9) & 0xFFFFFFFF
    m3 = (0xCA01F9DD * m3 - 0x4973F715 * (x ^ x >> 16)) & 0xFFFFFFFF
    m3 ^= m3 >> 16
    # source m3 into m0, m1, m2
    x = ((m3 ^ 0xAC4C06B9) * 0x26FF5A8D) & 0xFFFFFFFF
    m0 = (0xCA01F9DD * m0 - 0x4973F715 * (x ^ x >> 16)) & 0xFFFFFFFF
    m0 ^= m0 >> 16
    x = ((m3 ^ 0x26FF5A8D) * 0x0E554A71) & 0xFFFFFFFF
    m1 = (0xCA01F9DD * m1 - 0x4973F715 * (x ^ x >> 16)) & 0xFFFFFFFF
    m1 ^= m1 >> 16
    x = ((m3 ^ 0x0E554A71) * 0x78C50DA5) & 0xFFFFFFFF
    m2 = (0xCA01F9DD * m2 - 0x4973F715 * (x ^ x >> 16)) & 0xFFFFFFFF
    m2 ^= m2 >> 16
    # generate_state: eight words w0..w7 from the pool m0..m3, m0..m3
    x = ((m0 ^ 0x8B51F9DD) * 0x464A0A99) & 0xFFFFFFFF
    w0 = x ^ x >> 16
    x = ((m1 ^ 0x464A0A99) * 0x819D14A5) & 0xFFFFFFFF
    w1 = x ^ x >> 16
    x = ((m2 ^ 0x819D14A5) * 0xD369FDC1) & 0xFFFFFFFF
    w2 = x ^ x >> 16
    x = ((m3 ^ 0xD369FDC1) * 0x501638AD) & 0xFFFFFFFF
    w3 = x ^ x >> 16
    x = ((m0 ^ 0x501638AD) * 0xA600C129) & 0xFFFFFFFF
    w4 = x ^ x >> 16
    x = ((m1 ^ 0xA600C129) * 0x8B0167F5) & 0xFFFFFFFF
    w5 = x ^ x >> 16
    x = ((m2 ^ 0x8B0167F5) * 0x5C1E2ED1) & 0xFFFFFFFF
    w6 = x ^ x >> 16
    x = ((m3 ^ 0x5C1E2ED1) * 0x301D747D) & 0xFFFFFFFF
    w7 = x ^ x >> 16
    # PCG64: s0 * M**2 + seq * 2K + K (uint64 words are little-endian
    # pairs of uint32 words; the high 64 bits of each 128 come first)
    s = (
        0x17BCE35BDF69743C529ED9EB20E0AE99
        * (w1 << 96 | w0 << 64 | w3 << 32 | w2)
        + 0x763BA0C1FE5FA3C12C49729F815B49BE
        * (w5 << 96 | w4 << 64 | w7 << 32 | w6)
        + 0x3B1DD060FF2FD1E09624B94FC0ADA4DF
    ) & 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF
    # XSL-RR, then the top 53 bits as a double in [0, 1)
    x = (s >> 64 ^ s) & 0xFFFFFFFFFFFFFFFF
    r = s >> 122
    return (((x >> r | x << 64 - r) & 0xFFFFFFFFFFFFFFFF) >> 11) * 2**-53


class SeedSequenceFactory:
    """Hands out independent RNGs keyed by name.

    >>> f = SeedSequenceFactory(1234)
    >>> a = f.generator("data")
    >>> b = f.generator("jitter", 3)
    """

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)

    def seed(self, *keys: str | int) -> int:
        return derive_seed(self.root_seed, *keys)

    def generator(self, *keys: str | int) -> np.random.Generator:
        return np.random.default_rng(self.seed(*keys))
