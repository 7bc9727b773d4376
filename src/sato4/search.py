"""Best-effort search for unlinking movies.

Best-first over diagrams, scored by crossing count then inter-component
crossing count, exploring simplifying Reidemeister moves, triangle
slides and self-crossing changes.  Finding a movie is search-hard in
general; a budget bound makes failure an expected outcome, in which case
callers fall back to hand-written scripts.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from . import rewrites
from .diagram import LinkDiagram
from .errors import MoveError, ScriptError
from .movies import HomotopyScript, Move, apply_move, run_script

__all__ = ["SearchBudget", "enumerate_moves", "auto_script"]


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 20000
    max_depth: int = 60
    beam_width: int = 512


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


def auto_script(d: LinkDiagram, budget: SearchBudget = SearchBudget()) -> HomotopyScript | None:
    """Search for a validated movie from d to the 2-component unlink.

    Returns None when the budget runs out.  Any returned script has been
    re-validated with run_script.
    """
    if d.lk0_violation:
        raise ScriptError(d.lk0_violation)
    start_pd = d.serialize()
    counter = itertools.count()
    heap: list = [(_score(d), 0, next(counter), d, ())]
    seen = {d.canonical_encoding}
    nodes = 0
    while heap and nodes < budget.max_nodes:
        if len(heap) > 4 * budget.beam_width:
            heap = heapq.nsmallest(budget.beam_width, heap)
            heapq.heapify(heap)
        (_, depth, _, cur, path) = heapq.heappop(heap)
        nodes += 1
        if not cur.crossings and cur.component_count == 2:
            script = HomotopyScript(link=start_pd, moves=tuple(path))
            run_script(script, d)
            return script
        if depth >= budget.max_depth:
            continue
        for m in enumerate_moves(cur):
            try:
                nxt = apply_move(cur, m)
            except MoveError:
                continue
            key = nxt.canonical_encoding
            if key in seen:
                continue
            seen.add(key)
            heapq.heappush(heap, (_score(nxt), depth + 1, next(counter), nxt, path + (m,)))
    return None
