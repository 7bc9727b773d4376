"""Build PD diagrams from braid words.

A word is a sequence of nonzero integers: letter k stands for the
generator crossing strand k over strand k+1 (a positive crossing under
the package sign convention), -k for its inverse.  The closure wires
each end position back to its start position.
"""

from __future__ import annotations

from typing import Sequence

from .diagram import Crossing, LinkDiagram, find, union
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
    quads = []
    for letter in word:
        k = abs(letter) - 1
        a_in, b_in = current[k], current[k + 1]
        a_out, b_out = nxt, nxt + 1
        nxt += 2
        if letter > 0:
            # strand k over: X[b_in, a_out, b_out, a_in]
            quads.append((b_in, a_out, b_out, a_in))
        else:
            # strand k under: X[a_in, b_in, a_out, b_out]
            quads.append((a_in, b_in, a_out, b_out))
        current[k], current[k + 1] = b_out, a_out

    # Close up: identify the final arc at each position with the initial one.
    parent: dict[int, int] = {}
    markers = []
    for fin, ini in zip(current, initial):
        if not union(parent, fin, ini):
            markers.append(find(parent, fin))  # untouched strand closes into a free circle
    quads = [tuple(find(parent, a) for a in q) for q in quads]
    markers = [m for m in markers if not any(m in q for q in quads)]
    crossings = [Crossing(i, q) for i, q in enumerate(quads, 1)]
    return LinkDiagram(crossings, markers)
