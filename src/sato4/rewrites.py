"""Local diagram rewrites: Reidemeister moves as PD-level surgery.

Validity is checked combinatorially against the face structure (monogon
for R1 removal, non-clasp bigon for R2 removal, over/over-under/under
triangle for R3), so every accepted rewrite is a genuine planar move on
honestly planar codes.

Both site rules read one level pattern (``_over_ends``): for each arc
of the site, how many of its two ends pass over.  A bigon reduces when
the pattern is [0, 2], a triangle slides when it is [0, 1, 2].

Every site is found in ``faces``: ``remove_r2`` and ``slide_r3`` look up
their corners in ``bigon_arcs`` and ``_slidable_triangles``, the listings
the search reads, which keep the first face at each set of corners.
``add_r2`` takes the first face that both its arcs bound.  R1 and R2
removals splice each strand they shorten with ``_bypass``.

Crossings are built by :func:`sato4.diagram.make_crossing`.  A slide keeps
every arc and its successor, so it is re-laid, as a crossing switch is.
"""

from __future__ import annotations

from .diagram import LinkDiagram, make_crossing
from .errors import MoveError

__all__ = [
    "add_kink",
    "remove_kink",
    "add_r2",
    "remove_r2",
    "slide_r3",
    "bigon_arcs",
    "find_triangles",
    "kink_loop",
]

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
    strands = ((loop_arc, last), (first, loop_arc))  # (under, over)
    under, over = strands if over_first else strands[::-1]
    return d.rebuild(
        replace=head_fix,
        drop_markers=drop,
        new_crossings=[make_crossing(cid, under, over, sign)],
    )


def remove_kink(d: LinkDiagram, cid: int) -> LinkDiagram:
    """R1: delete a monogon crossing."""
    loop = kink_loop(d, cid)
    if loop is None:
        raise MoveError(f"crossing {cid} is not a kink")
    return d.rebuild(remove=(cid,), glue=[_bypass(d, loop)])


def _bypass(d: LinkDiagram, arc: int) -> tuple[int, int]:
    """The arc entering ``arc``'s strand at its tail crossing and the arc leaving it at its head crossing."""
    into = next(i for i, o in d.strands(d.tail(arc)[0]) if o == arc)
    out_of = next(o for i, o in d.strands(d.head(arc)[0]) if i == arc)
    return into, out_of


# -- R2 ---------------------------------------------------------------------


def add_r2(d: LinkDiagram, x: int, y: int, x_over: bool) -> LinkDiagram:
    """R2: slide arc x over (or under) arc y across the first face they share.

    The fresh crossings cw and ce are west and east in the local picture
    where the face walk runs x eastward below and y westward above.
    """
    if x == y:
        raise MoveError("r2_add needs two distinct arcs")
    dx, dy = _r2_sides(d, x, y)
    x2, y2, m1, m2 = d.fresh_arc_ids(4)
    cw = d.fresh_crossing_id()
    ce = cw + 1
    # x runs x -> m1 -> x2 eastward when dx; y runs y -> m2 -> y2 westward when dy
    x_cw, x_ce = ((x, m1), (m1, x2)) if dx else ((m1, x2), (x, m1))
    y_ce, y_cw = ((y, m2), (m2, y2)) if dy else ((m2, y2), (y, m2))
    sign = (1 if dx == dy else -1) * (1 if x_over else -1)  # at cw; ce has the opposite
    if x_over:
        c1, c2 = make_crossing(cw, y_cw, x_cw, sign), make_crossing(ce, y_ce, x_ce, -sign)
    else:
        c1, c2 = make_crossing(cw, x_cw, y_cw, sign), make_crossing(ce, x_ce, y_ce, -sign)
    return d.rebuild(replace={d.head(x): x2, d.head(y): y2}, new_crossings=[c1, c2])


def _r2_sides(d: LinkDiagram, x: int, y: int) -> tuple[bool, bool]:
    """The directions in which the first face of ``faces`` that both arcs bound runs along x and y."""
    for face in d.faces:
        arcs = [arc for arc, _ in face]
        if x in arcs and y in arcs:
            return face[arcs.index(x)][1], face[arcs.index(y)][1]
    raise MoveError(f"arcs {x} and {y} do not cobound a face")


def bigon_arcs(d: LinkDiagram) -> dict[tuple[int, int], tuple[int, int]]:
    """Corner pair -> the two arcs, for the first bigon face at each pair of crossings."""
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for f in d.faces:
        if len(f) == 2:
            c1, c2 = (d.corner(da)[0] for da in f)
            if c1 != c2:
                out.setdefault((min(c1, c2), max(c1, c2)), (f[0][0], f[1][0]))
    return out


def _over_ends(d: LinkDiagram, arcs) -> list[int]:
    """For each arc of a site, how many of its two ends pass over (odd slots), sorted."""
    return sorted(d.head(arc)[1] % 2 + d.tail(arc)[1] % 2 for arc in arcs)


def is_clasp(d: LinkDiagram, bigon: tuple[int, int]) -> bool:
    """Whether a bigon's arcs fail to run one over and one under at both corners."""
    return _over_ends(d, bigon) != [0, 2]


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
    return d.rebuild(remove=pair, glue=[_bypass(d, arc) for arc in bigon])


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
            if len(set(corners)) == 3 and _over_ends(d, (arc for arc, _ in f)) == [0, 1, 2]:
                out.setdefault(corners, f)
    return out


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
    # Each strand swaps the order of its two triangle crossings: a side s
    # leaves its tail corner on strand first = (p, s) and enters its head
    # corner on strand second = (s, q), and it runs back from the second
    # corner to the first, so these become (s, q) and (p, s).  Signs stay.
    strands = {cid: list(d.strands(cid)) for cid, _ in map(d.corner, face)}
    for arc, _ in face:
        (t, ts), (h, hs) = d.tail(arc), d.head(arc)  # ts and hs are odd on the over strand
        first, second = strands[t][ts % 2], strands[h][hs % 2]
        strands[t][ts % 2], strands[h][hs % 2] = second, first
    return d._relaid(make_crossing(c, *s, d.sign(c)) for c, s in strands.items())
