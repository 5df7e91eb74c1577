"""Vertex sets as arbitrary-precision integer bitmasks."""

from __future__ import annotations

from itertools import compress, count
from typing import Iterable, Iterator, Sequence


def mask_of(vertices: Iterable[int]) -> int:
    """The mask with the bit of each vertex set, one ``|= 1 << v`` each."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """The set bits of the mask, ascending. Each step copies the whole mask,
    so a mask of many bits is better listed by ``bits``."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# binary digits "0" and "1" to the bytes 0 and 1, for ``compress``
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def bits(mask: int) -> list[int]:
    """The set bits of the mask as an ascending list, in time linear in the
    mask's length, read off its binary digits, least significant first.

    A dense mask, with a set bit in every 5 digits or more, is listed in one
    C-level pass: its digits as the bytes 0 and 1 select from ``count()``.
    A sparse one is searched with ``str.find``, one call per set bit, which
    skips a run of zeros faster than that pass steps through it. Near the
    cut the two take about the same time (random masks of 900 to 100000
    bits, Python 3.11)."""
    digits = bin(mask)[:1:-1]
    if 5 * mask.bit_count() >= len(digits):
        return list(compress(count(), digits.encode().translate(_DIGIT_BYTES)))
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def flood(adj: Sequence[int], alive: int, start: int) -> int:
    """The mask of the vertices of ``alive`` reachable from ``start`` through
    ``alive`` in the graph whose row v is ``adj[v]``; ``start`` must be in
    ``alive``. It stops early, returning ``alive``, once every vertex of
    ``alive`` is adjacent to one reached."""
    comp = 1 << start
    frontier = comp
    while frontier:
        reach = comp
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach |= adj[low.bit_length() - 1]
            if not alive & ~reach:
                return alive
        frontier = reach & alive & ~comp
        comp |= frontier
    return comp
