"""Vertex sets as arbitrary-precision integer bitmasks."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def mask_of(vertices: Iterable[int], size: int = 0) -> int:
    """The mask with the bit of each vertex set.

    Each ``|= 1 << v`` copies the whole mask, which is cheapest for few or
    small masks. Given ``size``, a bound on the vertices, the bits are set in
    a byte buffer instead, linear in their number, for large masks.
    """
    if size:
        buffer = bytearray((size + 7) >> 3)
        for v in vertices:
            buffer[v >> 3] |= 1 << (v & 7)
        return int.from_bytes(buffer, "little")
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


def bits(mask: int) -> list[int]:
    """The set bits of the mask as an ascending list, in time linear in the
    mask's length: its binary digits are searched, least significant first."""
    digits = bin(mask)[:1:-1]
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
