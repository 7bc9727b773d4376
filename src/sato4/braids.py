"""Build PD diagrams from braid words.

A word is a sequence of nonzero integers: letter k stands for the
generator crossing strand k over strand k+1 (a positive crossing under
the package sign convention), -k for its inverse.  The closure wires
each end position back to its start position.
"""

from __future__ import annotations

from typing import Sequence

from .diagram import LinkDiagram, _orient, find, make_crossing, union
from .errors import DiagramError

__all__ = ["braid_closure"]


def braid_closure(word: Sequence[int], strands: int) -> LinkDiagram:
    if strands < 1:
        raise DiagramError("need at least one strand")
    for letter in word:
        if letter == 0 or abs(letter) >= strands:
            raise DiagramError(f"letter {letter} out of range for {strands} strands")
    initial = list(range(1, strands + 1))
    current = list(initial)
    nxt = strands + 1
    crossings = []
    for cid, letter in enumerate(word, 1):
        k = abs(letter) - 1
        a, b = (current[k], nxt), (current[k + 1], nxt + 1)  # strands k, k + 1 as (in, out)
        nxt += 2
        # letter > 0 puts strand k over
        crossings.append(make_crossing(cid, b, a, 1) if letter > 0 else make_crossing(cid, a, b, -1))
        current[k], current[k + 1] = b[1], a[1]

    # Close up: identify the final arc at each position with the initial one.
    parent: dict[int, int] = {}
    for fin, ini in zip(current, initial):
        union(parent, fin, ini)
    markers = [ini for fin, ini in zip(current, initial) if fin == ini]  # an untouched strand is a circle
    # _orient signs the code as it signs parsed text: a component that never passes under may run
    # against the braid, and scrambling reads orientation, so keeping its signs changes the bench inputs
    crossings = _orient([tuple(find(parent, a) for a in c.arcs) for c in crossings])
    return LinkDiagram(crossings, markers)
