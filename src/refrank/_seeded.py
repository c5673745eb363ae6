"""Stable seeded draws: pure functions of their string parts.

Built on BLAKE2b so values are identical across processes and platforms,
unlike the builtin hash(). The synthetic oracle and reference selection use
these so that call order, batching, and threading can never change outcomes.

A draw hashes its parts as one byte string: each part's UTF-8 bytes
followed by 0x1f. Hashing is streaming, so a hash state that has absorbed
the leading parts (``prefix``) and is then copied and fed the rest gives
the digest of all the parts at once. A caller that draws many times under
the same leading parts hashes them once; ``extend`` adds parts to a copy of
such a state.

Every normal draw goes through ``normal_from(state, data)``, which takes
the trailing parts already as the bytes ``encode`` gives for them, so
``normal_from(prefix(a, b), encode(c))`` equals ``std_normal(a, b, c)``
bit for bit. A caller that draws under the same trailing part many times,
as the oracle does with each doc id, encodes it once.

A normal draw reads its 16-byte digest as two big-endian 64-bit integers,
unpacked in one step, maps each to a uniform in (0, 1) and applies
Box-Muller. The float operations and their order are fixed: the values are
pinned bit for bit by the tests and behind every golden run file.
"""

from __future__ import annotations

import hashlib
import struct
from math import cos, log, pi, sqrt

_TWO64 = 2.0**64
_TWO_PI = 2.0 * pi
_TWO_WORDS = struct.Struct(">QQ").unpack  # a 16-byte digest as two big-endian uint64


def encode(*parts: str) -> bytes:
    """The bytes a draw hashes for parts: each part's UTF-8 followed by 0x1f."""
    # "\x1f" is the single byte 0x1f in UTF-8; the empty last item ends the
    # last part with it, and no parts give no bytes
    return "\x1f".join((*parts, "")).encode("utf-8")


def prefix(*parts: str, size: int = 16):
    """A BLAKE2b state that has absorbed parts; copy it before each use."""
    return hashlib.blake2b(encode(*parts), digest_size=size)


def extend(state, *parts: str):
    """A copy of ``state`` that has also absorbed parts; ``state`` is unchanged."""
    hasher = state.copy()
    hasher.update(encode(*parts))
    return hasher


def stable_digest(*parts: str, size: int = 16) -> bytes:
    return prefix(*parts, size=size).digest()


def unit_uniform(*parts: str) -> float:
    """Deterministic uniform draw in the open interval (0, 1)."""
    value = int.from_bytes(stable_digest(*parts, size=8), "big")
    return (value + 0.5) / _TWO64


def normal_from(state, data: bytes) -> float:
    """std_normal of the parts ``state`` absorbed followed by the encoded ``data``.

    ``state`` is a 16-byte ``prefix``; it is copied, never changed.
    """
    hasher = state.copy()
    hasher.update(data)
    high, low = _TWO_WORDS(hasher.digest())
    # Box-Muller over two uniforms in (0, 1)
    u1 = (high + 0.5) / _TWO64
    u2 = (low + 0.5) / _TWO64
    return sqrt(-2.0 * log(u1)) * cos(_TWO_PI * u2)


_EMPTY = prefix()


def std_normal(*parts: str) -> float:
    """Deterministic standard normal draw (Box-Muller over two uniforms)."""
    return normal_from(_EMPTY, encode(*parts))
