"""Best-effort search for unlinking movies.

Best-first over diagrams, scored by crossing count then inter-component
crossing count, exploring simplifying Reidemeister moves, triangle
slides and self-crossing changes.  Finding a movie is search-hard in
general, so one budget bounds it: ``max_nodes``, the distinct diagrams
expanded.  When the frontier outgrows four times ``_BEAM`` entries it
is cut to the ``_BEAM`` best.  ``None`` means the budget ran out or the
frontier emptied, in which case callers fall back to hand-written
scripts.  No move the search tries grows the diagram, so the reachable
set is finite and script length needs no cap of its own.

Expansion is lazy: expanding a diagram pushes one frontier entry per
listed move, scored from the move alone, and the child diagram is built
only when its entry is popped.  Duplicates are dropped at pop time, so
each distinct diagram is expanded at most once.
"""

from __future__ import annotations

import heapq
import itertools

from . import rewrites
from .diagram import LinkDiagram
from .errors import ScriptError
from .movies import HomotopyScript, Move, apply_move

__all__ = ["enumerate_moves", "auto_script"]

# frontier entries kept when the frontier outgrows four times this many
_BEAM = 512


def enumerate_moves(
    d: LinkDiagram,
    include_sc: bool = True,
    include_adds: bool = False,
) -> list[Move]:
    """Moves whose sites pattern-match in the given diagram.

    Sites are validated by the same predicates the rewrites use, so every
    returned move applies (adds are included only on request since they
    grow the diagram).
    """
    moves: list[Move] = []
    for c in d.crossings:
        if rewrites.kink_loop(d, c.id) is not None:
            moves.append(Move("r1_remove", crossing=c.id))
    bigons = rewrites.bigon_arcs(d)
    for pair in sorted(bigons):
        if not rewrites.is_clasp(d, bigons[pair]):
            moves.append(Move("r2_remove", crossings=pair))
    for tri in rewrites.find_triangles(d):
        moves.append(Move("r3", crossings=tri))
    if include_sc and d.lk0_violation is None:
        for c in d.crossings:
            if d.is_self_crossing(c.id):
                moves.append(Move("sc", crossing=c.id))
    if include_adds:
        for arc in sorted(d.arcs):
            for sign in (1, -1):
                moves.append(Move("r1_add", arc=arc, sign=sign))
        for face in d.faces:
            for (x, _), (y, _) in itertools.combinations(face, 2):
                if x != y:
                    moves.append(Move("r2_add", arcs=(x, y)))
    return moves


def _score(d: LinkDiagram) -> tuple[int, int]:
    inter = sum(1 for c in d.crossings if not d.is_self_crossing(c.id))
    return (len(d.crossings), inter)


def _child_score(d: LinkDiagram, score: tuple[int, int], m: Move) -> tuple[int, int]:
    """``_score(apply_move(d, m))`` read off a removing, sliding or changing move."""
    n, inter = score
    if m.kind == "r1_remove":
        return (n - 1, inter)  # a kink is a self-crossing
    if m.kind == "r2_remove":
        # both bigon crossings join the same two strands
        return (n - 2, inter if d.is_self_crossing(m.crossings[0]) else inter - 2)
    return score  # r3 and sc keep every crossing and its strands


def auto_script(d: LinkDiagram, max_nodes: int = 20000) -> HomotopyScript | None:
    """Search for a movie from d to the 2-component unlink.

    ``max_nodes`` caps the distinct diagrams expanded, the final one
    included.  Returns None when that budget is spent or the frontier is
    empty.  A returned script is not replayed, so callers that need the
    movie run ``run_script`` on it.
    """
    if d.lk0_violation:
        raise ScriptError(d.lk0_violation)
    start_pd = d.serialize()
    counter = itertools.count()
    # (score, depth, counter, parent, move, parent's path); the root has no
    # parent, and depth breaks score ties toward shorter scripts
    heap: list = [(_score(d), 0, next(counter), None, None, ())]
    seen: set[str] = set()
    nodes = 0
    while heap and nodes < max_nodes:
        if len(heap) > 4 * _BEAM:
            heap = heapq.nsmallest(_BEAM, heap)
            heapq.heapify(heap)
        (score, depth, _, parent, move, path) = heapq.heappop(heap)
        if parent is None:
            cur = d
        else:
            cur = apply_move(parent, move)
            path += (move,)
        key = cur.canonical_encoding
        if key in seen:
            continue
        seen.add(key)
        nodes += 1
        if not cur.crossings and cur.component_count == 2:
            return HomotopyScript(link=start_pd, moves=path)
        for m in enumerate_moves(cur):
            entry = (_child_score(cur, score, m), depth + 1, next(counter), cur, m, path)
            heapq.heappush(heap, entry)
    return None
