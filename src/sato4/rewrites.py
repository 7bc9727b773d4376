"""Local diagram rewrites: Reidemeister moves as PD-level surgery.

Validity is checked combinatorially against the face structure (monogon
for R1 removal, non-clasp bigon for R2 removal, over/over-under/under
triangle for R3), so every accepted rewrite is a genuine planar move on
honestly planar codes.

Compass bookkeeping: crossings are assembled from local strand
directions with the helper below, so all slot templates derive from the
single global sign convention in :mod:`sato4.diagram`.
"""

from __future__ import annotations

from .diagram import Crossing, LinkDiagram
from .errors import MoveError

__all__ = [
    "make_crossing",
    "add_kink",
    "remove_kink",
    "insert_r2",
    "remove_r2",
    "slide_r3",
    "find_bigons",
    "find_triangles",
    "kink_loop",
]

# compass points as quarter turns: 0=E, 1=N, 2=W, 3=S; +1 is a CCW turn
_OPP = 2


def make_crossing(
    cid: int,
    under_in_pos: int,
    under: tuple[int, int],
    over_in_pos: int,
    over: tuple[int, int],
):
    """Assemble a crossing from local geometry.

    ``under``/``over`` are (incoming arc, outgoing arc); the positions say
    from which compass direction each strand enters.  Returns the crossing
    and its orientation hints.
    """
    if (over_in_pos - under_in_pos) % 2 != 1:
        raise ValueError("strands must enter along perpendicular axes")
    arcs = [0, 0, 0, 0]
    flags = [False] * 4
    arcs[0], flags[0] = under[0], True
    arcs[2], flags[2] = under[1], False
    oi = (over_in_pos - under_in_pos) % 4
    arcs[oi], flags[oi] = over[0], True
    arcs[(oi + _OPP) % 4], flags[(oi + _OPP) % 4] = over[1], False
    crossing = Crossing(cid, tuple(arcs))
    hints = {(cid, slot): flags[slot] for slot in range(4)}
    return crossing, hints


# -- R1 ---------------------------------------------------------------------


def kink_loop(d: LinkDiagram, cid: int) -> int | None:
    """The loop arc of a monogon at the crossing, or None."""
    c = d.crossing(cid)
    for s in range(4):
        if c.arcs[s] == c.arcs[(s + 1) % 4]:
            return c.arcs[s]
    return None


def add_kink(d: LinkDiagram, arc: int, sign: int, over_first: bool = True) -> LinkDiagram:
    """R1: put a kink of the given sign into an arc or marker circle.

    ``over_first`` picks on which side the loop hangs: the strand makes
    its over-passage before its under-passage when true.
    """
    if sign not in (1, -1):
        raise MoveError("kink sign must be +1 or -1")
    cid = d.fresh_crossing_id()
    if arc in d.markers:
        loop, rest = d.fresh_arc_ids(2)
        head_fix = {}
        pieces = (rest, loop, rest)
        drop = (arc,)
    elif arc in d.arcs:
        loop, out_piece = d.fresh_arc_ids(2)
        head_fix = {d.head(arc): out_piece}
        pieces = (arc, loop, out_piece)
        drop = ()
    else:
        raise MoveError(f"no arc or marker {arc}")
    first, loop_arc, last = pieces
    # under strand heads north; a positive crossing has the over strand
    # entering from the west
    over_in_pos = 2 if sign > 0 else 0
    if over_first:
        crossing, hints = make_crossing(cid, 3, (loop_arc, last), over_in_pos, (first, loop_arc))
    else:
        crossing, hints = make_crossing(cid, 3, (first, loop_arc), over_in_pos, (loop_arc, last))
    return d.rebuild(
        replace=head_fix,
        drop_markers=drop,
        new_crossings=[crossing],
        new_hints=hints,
    )


def remove_kink(d: LinkDiagram, cid: int) -> LinkDiagram:
    """R1: delete a monogon crossing."""
    loop = kink_loop(d, cid)
    if loop is None:
        raise MoveError(f"crossing {cid} is not a kink")
    c = d.crossing(cid)
    slots = [s for s in range(4) if c.arcs[s] != loop]
    arcs = [c.arcs[s] for s in slots]
    if d.is_incoming(cid, slots[1]):
        arcs.reverse()
    incoming, outgoing = arcs
    return d.rebuild(remove=(cid,), glue=[(incoming, outgoing)])


# -- R2 ---------------------------------------------------------------------


def insert_r2(
    d: LinkDiagram,
    da_x: tuple[int, bool],
    da_y: tuple[int, bool],
    x_over: bool = True,
):
    """R2: slide arc x across a shared face over (or under) arc y.

    The directed arcs must be steps of one face walk.  Returns the new
    diagram and the pair of fresh crossing ids (west, east) in the local
    picture where the face walk runs x eastward below and y westward
    above.
    """
    if da_x[0] == da_y[0]:
        raise MoveError("cannot slide an arc across itself")
    if not any(da_x in f and da_y in f for f in d.faces):
        raise MoveError(f"arcs {da_x[0]} and {da_y[0]} do not cobound a face")
    return _slide_r2(d, da_x, da_y, x_over)


def add_r2(d: LinkDiagram, x: int, y: int, x_over: bool) -> LinkDiagram:
    """R2 between two arcs named without direction, across the first face they share."""
    if x == y:
        raise MoveError("r2_add needs two distinct arcs")
    for face in d.faces:
        da_x = next((da for da in face if da[0] == x), None)
        da_y = next((da for da in face if da[0] == y), None)
        if da_x and da_y:
            return _slide_r2(d, da_x, da_y, x_over)[0]
    raise MoveError(f"arcs {x} and {y} do not cobound a face")


def _slide_r2(d: LinkDiagram, da_x: tuple[int, bool], da_y: tuple[int, bool], x_over: bool):
    """The surgery of insert_r2 on two checked steps of one face."""
    x, dx = da_x
    y, dy = da_y
    x2, y2, m1, m2 = d.fresh_arc_ids(4)
    cw = d.fresh_crossing_id()
    ce = cw + 1
    x_west, x_east = (x, x2) if dx else (x2, x)
    y_east, y_west = (y, y2) if dy else (y2, y)
    # x strand: west piece, m1 above y, east piece; bulge ascends at cw
    if dx:
        x_at_cw = (3, (x_west, m1))   # enters from the south
        x_at_ce = (1, (m1, x_east))   # comes back down from the north
    else:
        x_at_cw = (1, (m1, x_west))
        x_at_ce = (3, (x_east, m1))
    if dy:
        y_at_ce = (0, (y_east, m2))   # enters from the east
        y_at_cw = (0, (m2, y_west))
    else:
        y_at_ce = (2, (m2, y_east))
        y_at_cw = (2, (y_west, m2))
    if x_over:
        c1, h1 = make_crossing(cw, y_at_cw[0], y_at_cw[1], x_at_cw[0], x_at_cw[1])
        c2, h2 = make_crossing(ce, y_at_ce[0], y_at_ce[1], x_at_ce[0], x_at_ce[1])
    else:
        c1, h1 = make_crossing(cw, x_at_cw[0], x_at_cw[1], y_at_cw[0], y_at_cw[1])
        c2, h2 = make_crossing(ce, x_at_ce[0], x_at_ce[1], y_at_ce[0], y_at_ce[1])
    new = d.rebuild(
        replace={d.head(x): x2, d.head(y): y2},
        new_crossings=[c1, c2],
        new_hints={**h1, **h2},
    )
    return new, (cw, ce)


def find_bigons(d: LinkDiagram) -> list[tuple[int, int]]:
    """Corner pairs of faces bounded by exactly two arcs."""
    return sorted(bigon_arcs(d))


def bigon_arcs(d: LinkDiagram) -> dict[tuple[int, int], tuple[int, int]]:
    """Corner pair -> the two arcs, for the first bigon face at each pair of crossings."""
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for f in d.faces:
        if len(f) == 2:
            c1, c2 = (d.corner(da)[0] for da in f)
            if c1 != c2:
                out.setdefault((min(c1, c2), max(c1, c2)), (f[0][0], f[1][0]))
    return out


def is_clasp(d: LinkDiagram, bigon: tuple[int, int]) -> bool:
    """Whether a bigon's arcs fail to run one over and one under at both corners."""

    def levels(arc: int) -> set[bool]:
        return {slot % 2 == 1 for _, slot in (d.head(arc), d.tail(arc))}

    lv1, lv2 = levels(bigon[0]), levels(bigon[1])
    return not (len(lv1) == 1 and len(lv2) == 1 and lv1 != lv2)


def remove_r2(d: LinkDiagram, cid1: int, cid2: int) -> LinkDiagram:
    """R2: delete a bigon whose strands pass cleanly over/under."""
    if cid1 == cid2:
        raise MoveError("need two distinct crossings")
    pair = (min(cid1, cid2), max(cid1, cid2))
    bigon = bigon_arcs(d).get(pair)
    if bigon is None:
        raise MoveError(f"crossings {cid1},{cid2} do not cobound a bigon")
    if is_clasp(d, bigon):
        raise MoveError("bigon is a clasp, not a reducible pair")
    glue = []
    for arc in bigon:
        hc, hs = d.head(arc)
        tc, ts = d.tail(arc)
        strand_in = d.crossing(tc).arcs[(ts + 2) % 4]
        strand_out = d.crossing(hc).arcs[(hs + 2) % 4]
        glue.append((strand_in, strand_out))
    return d.rebuild(remove=pair, glue=glue)


# -- R3 ---------------------------------------------------------------------


def find_triangles(d: LinkDiagram) -> list[tuple[int, int, int]]:
    """Corner triples of triangular faces admitting a slide."""
    return sorted(_slidable_triangles(d))


def _slidable_triangles(d: LinkDiagram) -> dict[tuple[int, int, int], tuple]:
    """Sorted corner triple -> the first face with those three corners admitting a slide."""
    out: dict[tuple[int, int, int], tuple] = {}
    for f in d.faces:
        if len(f) == 3 and len({arc for arc, _ in f}) == 3:
            corners = tuple(sorted(d.corner(da)[0] for da in f))
            if len(set(corners)) == 3 and _r3_pattern_ok(d, f):
                out.setdefault(corners, f)
    return out


def _passages(d: LinkDiagram, face):
    """For each face step i: the strand's slot pair at the two corners.

    Step i's arc connects corner i-1 (departure slot) to corner i
    (arrival slot).
    """
    return [(d.corner((arc, not fwd)), d.corner((arc, fwd))) for arc, fwd in face]


def _r3_pattern_ok(d: LinkDiagram, face) -> bool:
    kinds = []
    for (c1, s1), (c2, s2) in _passages(d, face):
        kinds.append((s1 % 2 == 1) + (s2 % 2 == 1))
    return sorted(kinds) == [0, 1, 2]


def slide_r3(d: LinkDiagram, cids: tuple[int, int, int]) -> LinkDiagram:
    """R3: slide the triangle bounded by the three given crossings."""
    want = tuple(sorted(cids))
    if len(set(want)) != 3:
        raise MoveError("need three distinct crossings")
    face = _slidable_triangles(d).get(want)
    if face is None:
        raise MoveError(f"no slidable triangle with corners {want}")
    return _apply_r3(d, face)


def _apply_r3(d: LinkDiagram, face) -> LinkDiagram:
    # Each of the three strands swaps the order of its two triangle
    # crossings: exchange the in-slot contents and the out-slot contents
    # between them.  Signs and over/under relations are untouched.
    contents: dict[tuple[int, int], int] = {}
    for (c1, s1), (c2, s2) in _passages(d, face):
        pos1 = [(c1, s1), (c1, (s1 + 2) % 4)]
        pos2 = [(c2, s2), (c2, (s2 + 2) % 4)]
        for p1 in pos1:
            for p2 in pos2:
                if d.is_incoming(*p1) == d.is_incoming(*p2):
                    contents[p1] = d.crossing(p2[0]).arcs[p2[1]]
                    contents[p2] = d.crossing(p1[0]).arcs[p1[1]]
    return d.rebuild(replace=contents)
