"""Oriented link diagrams encoded as PD codes.

A diagram is a set of crossings, each listing its four incident arcs in
cyclic order (incoming under-strand first, then counterclockwise), plus
optional ``U[n]`` markers for crossingless unknot components, which pure
PD codes cannot express.

Sign convention (fixed globally, everything else calibrates against it):
with the under-strand entering at slot 0 and slots counterclockwise, a
crossing is positive when the over-strand enters at slot 3 and negative
when it enters at slot 1.  Equivalently: rotating the under direction
clockwise by a quarter turn gives the over direction at a positive
crossing.

Orientation is the ``sign`` field of each crossing: slot 0 is incoming
and slot 2 outgoing by convention, so the sign says which of slots 1 and
3 is the incoming over arc.  ``make_crossing`` writes this slot template
and the sign onto the crossing, ``LinkDiagram.strands`` reads it back,
and ``_lay`` writes the head and tail it gives each arc.  Unsigned code
(parsed text, braid closures) is signed before any crossing exists:
``_orient`` walks each strand forward from the slots whose role is known
and builds each crossing once, with its sign.  ``LinkDiagram`` takes
signed crossings only, and derived diagrams keep their crossings' signs.
Construction lays every crossing in one pass, then reads each arc's
successor at its head; a table of each arc's two ends is built only to
sign unsigned code and to name the arc in an error message.  A crossing
switch and an R3 slide keep every arc and its successor, so they skip
this: ``_relaid`` keeps the parent's components, shares every other
``Crossing``, and lays only the new crossings.  Pieces are counted over
components when first asked for: one union per crossing, of the
components of its two strands.

Diagrams are immutable values; every operation returns a new diagram.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import DiagramError, PDSyntaxError

__all__ = [
    "Crossing",
    "LinkDiagram",
    "make_crossing",
    "parse_pd",
    "tokenize_pd",
]


@dataclass(frozen=True)
class Crossing:
    """One crossing: an id, its four arc slots in PD order, and its sign, +1 or -1."""

    id: int
    arcs: tuple[int, int, int, int]
    sign: int


def make_crossing(cid: int, under: tuple[int, int], over: tuple[int, int], sign: int) -> Crossing:
    """The crossing of sign ``sign`` whose strands run (in, out) along ``under`` and ``over``."""
    (ui, uo), (oi, oo) = under, over
    return Crossing(cid, (ui, oo, uo, oi) if sign > 0 else (ui, oi, uo, oo), sign)


def _lay(c: Crossing, head: dict, tail: dict) -> None:
    """Write the ends of c's four arcs: slot 0 in, slot 2 out, and the sign picks the incoming over slot."""
    cid, (a, b, e, f) = c.id, c.arcs
    head[a], tail[e] = (cid, 0), (cid, 2)
    if c.sign > 0:
        head[f], tail[b] = (cid, 3), (cid, 1)
    else:
        head[b], tail[f] = (cid, 1), (cid, 3)


_X_TOKEN = re.compile(r"X\s*\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")
_U_TOKEN = re.compile(r"U\s*\[\s*(\d+)\s*\]")


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def tokenize_pd(text: str) -> tuple[list[tuple[int, int, int, int]], list[int]]:
    """The crossing quads and the unknot markers of PD text, as written.

    Accepts the bracketed form ``PD[X[a,b,c,d], ..., U[n]]`` (the ``PD[``
    wrapper and commas are optional, markers may also trail outside the
    brackets) and the line form with one ``X a b c d`` or ``U n`` per
    line.  ``#`` starts a comment in either form.  Two texts parse to
    equal diagrams exactly when their quads and sorted markers are equal.
    """
    body = _strip_comments(text)
    if "[" in body:
        return _tokens_bracketed(body)
    return _tokens_lines(body)


def _tokens_bracketed(body: str) -> tuple[list[tuple[int, int, int, int]], list[int]]:
    leftover = _U_TOKEN.sub("", _X_TOKEN.sub("", body))
    leftover = re.sub(r"PD\s*\[", "", leftover)
    if leftover.strip(" \t\n,[]"):
        raise PDSyntaxError(f"unrecognized PD syntax near {leftover.strip()[:30]!r}")
    crossings = [tuple(int(g) for g in m.groups()) for m in _X_TOKEN.finditer(body)]
    markers = [int(m.group(1)) for m in _U_TOKEN.finditer(body)]
    return crossings, markers


def _tokens_lines(body: str) -> tuple[list[tuple[int, int, int, int]], list[int]]:
    crossings = []
    markers = []
    for lineno, raw in enumerate(body.splitlines(), 1):
        fields = raw.split()
        if not fields:
            continue
        kind, args = fields[0].upper(), fields[1:]
        try:
            if kind == "X" and len(args) == 4:
                crossings.append(tuple(int(a) for a in args))
            elif kind == "U" and len(args) == 1:
                markers.append(int(args[0]))
            else:
                raise ValueError
        except ValueError:
            raise PDSyntaxError(f"bad line {lineno}: {raw.strip()!r}") from None
    return crossings, markers


def parse_pd(text: str) -> "LinkDiagram":
    """Parse PD text, in either form ``tokenize_pd`` reads, into a validated diagram."""
    quads, markers = tokenize_pd(text)
    d = LinkDiagram(_orient(quads), markers)
    # Euler: a piece with n crossings lies on a sphere iff it has n + 2 faces
    if len(d.faces) != len(d.crossings) + 2 * d.pieces():
        raise DiagramError("PD code is not planar: some piece does not lie on a sphere")
    return d


def _arc_positions(crossings: Iterable[tuple[int, tuple]]) -> dict[int, list[tuple[int, int]]]:
    """The (crossing, slot) ends of each arc; raises on a bad or miscounted arc or a crossing without four."""
    crossings = list(crossings)
    positions: dict[int, list[tuple[int, int]]] = {}
    for cid, arcs in crossings:
        try:
            slots = enumerate(arcs)
        except TypeError:  # not iterable
            raise DiagramError(f"crossing {cid} has arcs {arcs!r}, expected 4 arcs") from None
        for slot, arc in slots:
            if not isinstance(arc, int) or arc < 1:
                raise DiagramError(f"arc identifiers must be positive integers, got {arc!r}")
            positions.setdefault(arc, []).append((cid, slot))
    for arc, pos in positions.items():
        if len(pos) != 2:
            raise DiagramError(f"arc {arc} appears {len(pos)} times, expected 2")
    for cid, arcs in crossings:
        if len(arcs) != 4:
            raise DiagramError(f"crossing {cid} has {len(arcs)} arcs, expected 4")
    return positions


def _orient(quads: list[tuple[int, int, int, int]]) -> list[Crossing]:
    """The crossings 1..n of unsigned quads, each built once with the sign its code gives.

    A strand that enters by slot s leaves by s ^ 2; where it next enters over, the slot
    gives the sign: 3 gives +1 and 1 gives -1.  Walks start at every crossing's slot 2.
    A component that never passes under gets -1 if arcs[1] >= arcs[3] else +1 at its
    first crossing and is walked from there.  It lies above the rest of the link, so the
    link is split: with either direction its linking numbers are 0 and so is the Conway
    polynomial.
    """
    positions = _arc_positions(enumerate(quads, 1))
    sign: dict[int, int] = {}
    todo = [(cid, 2) for cid in range(1, len(quads) + 1)]

    def walk() -> None:
        while todo:
            cid, slot = todo.pop()
            p, q = positions[quads[cid - 1][slot]]
            far, far_slot = q if p == (cid, slot) else p
            if far_slot % 2 and far not in sign:
                sign[far] = 1 if far_slot == 3 else -1
                todo.append((far, far_slot ^ 2))

    walk()
    for cid, arcs in enumerate(quads, 1):
        if cid not in sign:
            sign[cid] = -1 if arcs[1] >= arcs[3] else 1
            todo.append((cid, 1 if sign[cid] == 1 else 3))
            walk()
    return [Crossing(cid, arcs, sign[cid]) for cid, arcs in enumerate(quads, 1)]


def orbits(succ: dict) -> list[tuple]:
    """The cycles of the permutation that maps each key of ``succ`` to its value.

    Each cycle starts at its least element and the cycles come in order
    of those elements.  A walk that revisits an element before closing
    raises DiagramError.
    """
    todo = dict(succ)  # each element is popped when its cycle reaches it
    cycles = []
    try:
        for start in sorted(succ):
            if start in todo:
                cyc = [start]
                x = todo.pop(start)
                while x != start:
                    cyc.append(x)
                    x = todo.pop(x)
                cycles.append(tuple(cyc))
    except KeyError:
        raise DiagramError("successor relation does not close into cycles") from None
    return cycles


def find(parent: dict[int, int], x: int) -> int:
    """The class of x in a union-find forest; each class is named by its least member."""
    while parent.setdefault(x, x) != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def union(parent: dict[int, int], x: int, y: int) -> bool:
    """Merge the classes of x and y; False when they were one class already."""
    a, b = find(parent, x), find(parent, y)
    parent[max(a, b)] = min(a, b)
    return a != b


class LinkDiagram:
    """An oriented link diagram (validated PD code plus unknot markers).

    Components are the cycles of the successor relation on arcs, indexed
    from 1 in order of their smallest arc (or marker) identifier.
    Every crossing carries its sign, +1 or -1; unsigned code is signed
    by ``_orient`` before it gets here.
    """

    def __init__(self, crossings: Iterable[Crossing], markers: Iterable[int] = ()):
        self.crossings: tuple[Crossing, ...] = tuple(sorted(crossings, key=lambda c: c.id))
        self.markers: tuple[int, ...] = tuple(sorted(markers))
        self._by_id = by_id = {c.id: c for c in self.crossings}
        if len(self._by_id) != len(self.crossings):
            raise DiagramError("duplicate crossing ids")
        head, tail = {}, {}
        try:
            for c in self.crossings:  # one pass
                if type(c.sign) is not int or c.sign not in (1, -1):  # True and 1.0 equal 1
                    raise DiagramError(f"crossing {c.id} has sign {c.sign!r}, expected +1 or -1")
                _lay(c, head, tail)
            # every arc has one incoming and one outgoing end, so exactly two ends
            oriented = len(head) == len(tail) == 2 * len(self.crossings) and head.keys() == tail.keys()
        except (TypeError, ValueError):  # an unhashable arc or not four arcs: the table names it
            oriented = False
        if not oriented or not all(isinstance(arc, int) and arc > 0 for arc in head):
            _arc_positions((c.id, c.arcs) for c in self.crossings)  # raises on a bad or miscounted arc
        if len(set(self.markers)) != len(self.markers):
            raise DiagramError("duplicate unknot markers")
        for m in self.markers:
            if not isinstance(m, int) or m < 1:
                raise DiagramError(f"marker identifiers must be positive integers, got {m!r}")
            if m in head or m in tail:
                raise DiagramError(f"marker {m} collides with an arc identifier")
        if not oriented:
            raise DiagramError("inconsistent orientation traversal")
        self._head, self._tail = head, tail
        # an arc's successor leaves the crossing at its head by the opposite slot
        succ = {arc: by_id[cid].arcs[slot ^ 2] for arc, (cid, slot) in head.items()}
        succ.update((m, m) for m in self.markers)  # a marker is a one-element cycle
        self.components: tuple[tuple[int, ...], ...] = tuple(orbits(succ))
        self._component_of = {arc: idx for idx, cyc in enumerate(self.components, 1) for arc in cyc}

    # -- basic accessors ---------------------------------------------------

    @property
    def component_count(self) -> int:
        return len(self.components)

    @property
    def arcs(self) -> frozenset[int]:
        return frozenset(self._head)

    def crossing(self, cid: int) -> Crossing:
        try:
            return self._by_id[cid]
        except KeyError:
            raise DiagramError(f"unknown crossing id {cid}") from None

    def sign(self, cid: int) -> int:
        """Right-hand-rule sign: +1 iff the over strand enters at slot 3."""
        return self.crossing(cid).sign

    def component_of(self, arc: int) -> int:
        try:
            return self._component_of[arc]
        except KeyError:
            raise DiagramError(f"unknown arc {arc}") from None

    def strand_components(self, cid: int) -> tuple[int, int]:
        """Component indices of the (under, over) strands at a crossing."""
        c = self.crossing(cid)
        return self._component_of[c.arcs[0]], self._component_of[c.arcs[1]]

    def is_self_crossing(self, cid: int) -> bool:
        under, over = self.strand_components(cid)
        return under == over

    def head(self, arc: int) -> tuple[int, int]:
        return self._head[arc]

    def tail(self, arc: int) -> tuple[int, int]:
        return self._tail[arc]

    def corner(self, da: tuple[int, bool]) -> tuple[int, int]:
        """The (crossing, slot) where the directed arc (arc, forward) ends."""
        arc, fwd = da
        return self._head[arc] if fwd else self._tail[arc]

    def fresh_arc_ids(self, n: int) -> list[int]:
        top = max(itertools.chain(self._head, self.markers, [0]))
        return [top + i for i in range(1, n + 1)]

    def fresh_crossing_id(self) -> int:
        return max((c.id for c in self.crossings), default=0) + 1

    # -- invariant-level queries --------------------------------------------

    def linking_number(self, i: int, j: int) -> int:
        """Half the signed count of crossings between components i and j."""
        if i == j:
            raise DiagramError("linking number needs two distinct components")
        for k in (i, j):
            if not 1 <= k <= self.component_count:
                raise DiagramError(f"no component {k}")
        total = sum(c.sign for c in self.crossings if set(self.strand_components(c.id)) == {i, j})
        if total % 2:
            raise DiagramError("odd inter-component crossing sum; diagram is not a closed-curve projection")
        return total // 2

    @cached_property
    def lk0_violation(self) -> str | None:
        """Why this is not a 2-component diagram of linking number 0, or None."""
        if self.component_count != 2:
            return f"need exactly 2 components, got {self.component_count}"
        if self.linking_number(1, 2) != 0:
            return "nonzero linking number"
        return None

    # -- local operations ----------------------------------------------------

    def strands(self, cid: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """The (in, out) arcs of the under and the over strand: make_crossing read back."""
        c = self.crossing(cid)
        ui, b, uo, d = c.arcs
        return ((ui, uo), (d, b)) if c.sign > 0 else ((ui, uo), (b, d))

    def switch(self, cid: int) -> "LinkDiagram":
        """Exchange over and under strands at one crossing.

        Arcs, orientations and all other crossings are untouched, and the
        sign of the crossing is negated.  The result is re-laid, not rebuilt.
        """
        under, over = self.strands(cid)
        return self._relaid([make_crossing(cid, over, under, -self._by_id[cid].sign)])

    def _relaid(self, new_crossings: Iterable[Crossing]) -> "LinkDiagram":
        """This diagram with the crossings of the same ids replaced by ``new_crossings``.

        Each must run over the strands of the one it replaces, so the
        components stand: only the ends of its arcs are laid again.
        """
        new = {c.id: c for c in new_crossings}
        out = LinkDiagram.__new__(LinkDiagram)
        out._by_id = by_id = {**self._by_id, **new}
        out.crossings = tuple(by_id.values())  # the same ids in the same order: sorted
        out.markers = self.markers
        out._head, out._tail = dict(self._head), dict(self._tail)
        for c in new.values():
            _lay(c, out._head, out._tail)
        out.components, out._component_of = self.components, self._component_of
        return out

    def smoothing_pairs(self, cid: int) -> list[tuple[int, int]]:
        """The oriented resolution at a crossing as (incoming, outgoing) arc gluings."""
        (ui, uo), (oi, oo) = self.strands(cid)
        return [(ui, oo), (oi, uo)]

    def rebuild(
        self,
        remove: Iterable[int] = (),
        glue: Iterable[tuple[int, int]] = (),
        drop_markers: Iterable[int] = (),
        new_crossings: Iterable[Crossing] = (),
        replace: dict[tuple[int, int], int] | None = None,
    ) -> "LinkDiagram":
        """Produce a new diagram by deleting crossings and regluing arcs.

        ``glue`` pairs (x, y) splice the head of arc x onto the tail of
        arc y.  Glue classes that retain no slot after the deletions close
        up into new unknot markers; unglued arcs that lose both slots
        (e.g. a removed kink loop) simply vanish.  ``replace`` overwrites
        individual (crossing, slot) positions with explicit arc ids; the
        in/out role of an overwritten position is unchanged.  Kept
        crossings keep their signs, and ``new_crossings`` carry their own.
        """
        removed = set(remove)
        parent: dict[int, int] = {}
        for x, y in glue:
            union(parent, x, y)
        classes: dict[int, list[int]] = {}
        for x in parent:
            classes.setdefault(find(parent, x), []).append(x)
        rename: dict[int, int] = {}
        markers = [m for m in self.markers if m not in set(drop_markers)]
        for rep, members in classes.items():
            remaining = sum(end[0] not in removed for a in members for end in (self._head[a], self._tail[a]))
            if remaining == 0:
                markers.append(rep)
                # such a class must chain head-to-tail into closed loops
            elif remaining == 2:
                for m in members:
                    rename[m] = rep
            else:
                raise DiagramError("glue classes must close into one arc or one loop")
        overrides = replace or {}
        # only the crossings at an overwritten slot or at an end of a renamed arc change
        touched = {cid for cid, _slot in overrides}
        touched.update(end[0] for a in rename for end in (self._head[a], self._tail[a]))
        kept = [
            Crossing(
                c.id,
                tuple(
                    overrides.get((c.id, slot), rename.get(a, a))
                    for slot, a in enumerate(c.arcs)
                ),
                c.sign,
            )
            if c.id in touched
            else c
            for c in self.crossings
            if c.id not in removed
        ]
        kept.extend(new_crossings)
        return LinkDiagram(kept, markers)

    # -- faces (combinatorial planar regions) --------------------------------

    @cached_property
    def faces(self) -> tuple[tuple[tuple[int, bool], ...], ...]:
        """Orbits of directed arcs under keep-the-face-on-the-left traversal.

        A directed arc is (arc, forward); forward arcs run tail to head.
        Arriving at a crossing through slot s, the face continues out of
        slot s-1 (mod 4).  Markers take part in no face.
        """
        step = dict(turn for c in self.crossings for turn in self._turns(c))
        return tuple(orbits(step))

    def _turns(self, c: Crossing) -> tuple:
        """(arriving, leaving) directed arcs at c's corners by slot: a face in through s leaves by s - 1."""
        a, b, e, f = c.arcs  # slots 0 and 3 are incoming at a positive crossing, 0 and 1 at a negative one
        if c.sign > 0:
            return (((a, True), (f, False)), ((b, False), (a, False)),
                    ((e, False), (b, True)), ((f, True), (e, True)))
        return (((a, True), (f, True)), ((b, True), (a, False)),
                ((e, False), (b, False)), ((f, False), (e, True)))

    @cached_property
    def _pieces(self) -> int:
        # each crossing joins the components of its two strands; a marker's component has none
        parent: dict[int, int] = {}
        comp = self._component_of
        merges = sum(union(parent, comp[c.arcs[0]], comp[c.arcs[1]]) for c in self.crossings)
        return len(self.components) - len(self.markers) - merges

    def pieces(self) -> int:
        """Connected pieces of the 4-valent graph of crossings (markers not counted)."""
        return self._pieces

    def connected(self) -> bool:
        """True when the diagram, markers included, has a single piece."""
        return self.pieces() + len(self.markers) == 1

    # -- encodings -------------------------------------------------------------

    def serialize(self) -> str:
        """Bracketed PD text: the quads in crossing-id order, then the markers.

        ``parse_pd`` reads back the same quads and markers, but it numbers
        the crossings 1..n and signs them again.  So it gives back d only
        when d's ids are 1..n and each component that never passes under
        runs the way the fixed rule of ``_orient`` orients it.
        """
        parts = [f"X[{a},{b},{c},{d}]" for (a, b, c, d) in (x.arcs for x in self.crossings)]
        parts.extend(f"U[{m}]" for m in self.markers)
        return "PD[" + ", ".join(parts) + "]"

    @cached_property
    def canonical_encoding(self) -> str:
        """A walk-order key: equal strings mean the same diagram up to relabeling.

        Arcs are renumbered 1..n along each component from its least arc,
        components in index order, markers left out; each crossing lists
        its renumbered slots and a 1 when it is negative, and the list is
        sorted.  The key is unchanged by renumbering the crossings, by any
        order-preserving renaming of the arcs and by any renaming of the
        markers, and the diagram can be read back from it.  It is not
        invariant under an arbitrary relabeling: moving a component's
        least arc may change it.  A visited set and a gluing guard need
        only that equal keys mean the same diagram.
        """
        marker_set = set(self.markers)
        walk = [arc for cyc in self.components if cyc[0] not in marker_set for arc in cyc]
        label = {arc: n for n, arc in enumerate(walk, 1)}
        quads = sorted(
            (*(label[a] for a in c.arcs), 1 if c.sign < 0 else 0) for c in self.crossings
        )
        body = ";".join(f"{a},{b},{c},{d}:{flag}" for a, b, c, d, flag in quads)
        return f"U{len(self.markers)}|{body}"

    # -- value semantics ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkDiagram):
            return NotImplemented
        return self.crossings == other.crossings and self.markers == other.markers

    def __hash__(self) -> int:
        return hash((self.crossings, self.markers))

    def __repr__(self) -> str:
        return f"LinkDiagram({self.serialize()!r})"
