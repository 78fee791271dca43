"""Deterministic encodings: canonical JSON and rendezvous bit strings.

Two unrelated-looking codec families live here because they share one
contract — **byte-stable encodings** that every layer of the system can
rely on being identical across processes, machines, and re-runs:

* :func:`canonical_json` / :func:`json_roundtrip` are the canonical
  JSON codec behind the content-addressed result store, the run
  journal, the campaign replay artifacts, and every byte-identity
  check in CI (the REPRO104 lint rule enforces routing through them —
  see docs/static_analysis.md).
* the bit-string transforms are used by ``AsymmRV`` (our substitute
  for the algorithm of Czyzowicz, Kosowski & Pelc [20]), which turns
  each agent's truncated view into a *label* — a finite bit string —
  and schedules exploration/waiting periods from a transformed version
  of that label.  :func:`double_and_terminate` makes the code
  **prefix-free**: no transformed label is a prefix of another, so
  unequal labels disagree at some position even when their raw lengths
  differ.  :func:`int_to_bits` / :func:`bits_to_int` are the canonical
  binary codecs used to serialize view signatures.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from typing import Any

__all__ = [
    "canonical_json",
    "json_roundtrip",
    "int_to_bits",
    "bits_to_int",
    "double_and_terminate",
    "undouble",
    "bytes_to_bits",
]


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace).

    The single canonical serializer: cache keys are SHA-256 digests of
    this text, journal lines are this text, and CI asserts cold==warm
    byte-identity over outputs derived from it.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def json_roundtrip(obj: Any) -> Any:
    """Normalize a payload to what a store read would return.

    The orchestrator passes every shard result through this even when
    caching is off, so merged records are bit-identical between cold,
    warm, and cache-disabled runs.
    """
    return json.loads(canonical_json(obj))


def int_to_bits(value: int, width: int | None = None) -> tuple[int, ...]:
    """Big-endian binary expansion of a non-negative integer.

    If ``width`` is given the result is zero-padded on the left to that
    width (raising if the value does not fit).
    """
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    bits = tuple(int(c) for c in bin(value)[2:]) if value else (0,)
    if width is not None:
        if len(bits) > width:
            raise ValueError(f"{value} does not fit in {width} bits")
        bits = (0,) * (width - len(bits)) + bits
    return bits


def bits_to_int(bits: Iterable[int]) -> int:
    """Inverse of :func:`int_to_bits` (big-endian)."""
    out = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0/1, got {bit}")
        out = (out << 1) | bit
    return out


def double_and_terminate(bits: Sequence[int]) -> tuple[int, ...]:
    """Classic prefix-free transformation: double every bit, append 01.

    ``b1 b2 ... bk  ->  b1 b1 b2 b2 ... bk bk 0 1``

    The doubled body never contains the block "01" at an even offset,
    so the terminator is unambiguous and the code is prefix-free: for
    any two distinct inputs, neither output is a prefix of the other.
    """
    out: list[int] = []
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0/1, got {bit}")
        out.append(bit)
        out.append(bit)
    out.extend((0, 1))
    return tuple(out)


def undouble(code: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`double_and_terminate`; validates the format."""
    if len(code) < 2 or len(code) % 2 != 0:
        raise ValueError("malformed doubled code: bad length")
    if tuple(code[-2:]) != (0, 1):
        raise ValueError("malformed doubled code: missing 01 terminator")
    body = code[:-2]
    bits: list[int] = []
    for i in range(0, len(body), 2):
        pair = (body[i], body[i + 1])
        if pair == (0, 0):
            bits.append(0)
        elif pair == (1, 1):
            bits.append(1)
        else:
            raise ValueError(f"malformed doubled code: pair {pair} at {i}")
    return tuple(bits)


def bytes_to_bits(data: bytes) -> tuple[int, ...]:
    """Expand bytes into a big-endian bit tuple (8 bits per byte)."""
    out: list[int] = []
    for byte in data:
        for shift in range(7, -1, -1):
            out.append((byte >> shift) & 1)
    return tuple(out)
