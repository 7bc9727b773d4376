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

Diagrams are immutable values; every operation returns a new diagram.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import DiagramError, PDSyntaxError

__all__ = [
    "Crossing",
    "LinkDiagram",
    "parse_pd",
]


@dataclass(frozen=True, order=True)
class Crossing:
    """One crossing: an id and its four arc slots in PD order."""

    id: int
    arcs: tuple[int, int, int, int]


_IN = 1
_OUT = 2

_X_TOKEN = re.compile(r"X\s*\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")
_U_TOKEN = re.compile(r"U\s*\[\s*(\d+)\s*\]")


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def parse_pd(text: str) -> "LinkDiagram":
    """Parse PD text into a validated diagram.

    Accepts the bracketed form ``PD[X[a,b,c,d], ..., U[n]]`` (the ``PD[``
    wrapper and commas are optional, markers may also trail outside the
    brackets) and the line form with one ``X a b c d`` or ``U n`` per
    line.  ``#`` starts a comment in either form.
    """
    body = _strip_comments(text)
    if "[" in body:
        return _parse_bracketed(body)
    return _parse_lines(body)


def _parse_bracketed(body: str) -> "LinkDiagram":
    crossings = []
    markers = []
    events = []
    for m in _X_TOKEN.finditer(body):
        events.append((m.start(), "X", tuple(int(g) for g in m.groups())))
    for m in _U_TOKEN.finditer(body):
        events.append((m.start(), "U", int(m.group(1))))
    leftover = _U_TOKEN.sub("", _X_TOKEN.sub("", body))
    leftover = re.sub(r"PD\s*\[", "", leftover)
    if leftover.strip(" \t\n,[]"):
        raise PDSyntaxError(f"unrecognized PD syntax near {leftover.strip()[:30]!r}")
    for _, kind, payload in sorted(events):
        if kind == "X":
            crossings.append(payload)
        else:
            markers.append(payload)
    return _build(crossings, markers)


def _parse_lines(body: str) -> "LinkDiagram":
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
    return _build(crossings, markers)


def _build(quads: Sequence[tuple[int, int, int, int]], markers: Sequence[int]) -> "LinkDiagram":
    crossings = [Crossing(i, q) for i, q in enumerate(quads, 1)]
    return LinkDiagram(crossings, markers)


def orbits(step: Callable, elements: Iterable) -> list[tuple]:
    """The cycles of the permutation ``step`` of ``elements``.

    Each cycle starts at its least element and the cycles come in order
    of those elements.  A walk that revisits an element before closing
    raises DiagramError.
    """
    seen: set = set()
    cycles = []
    for start in sorted(elements):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        x = step(start)
        while x != start:
            if x in seen:
                raise DiagramError("successor relation does not close into cycles")
            cyc.append(x)
            seen.add(x)
            x = step(x)
        cycles.append(tuple(cyc))
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
    """

    def __init__(
        self,
        crossings: Iterable[Crossing],
        markers: Iterable[int] = (),
        incoming_hints: dict[tuple[int, int], bool] | None = None,
    ):
        self.crossings: tuple[Crossing, ...] = tuple(sorted(crossings, key=lambda c: c.id))
        self.markers: tuple[int, ...] = tuple(sorted(markers))
        self._by_id = {c.id: c for c in self.crossings}
        if len(self._by_id) != len(self.crossings):
            raise DiagramError("duplicate crossing ids")
        self._validate_arcs()
        self._orient(incoming_hints or {})
        self._trace_components()

    # -- construction-time validation ------------------------------------

    def _validate_arcs(self) -> None:
        positions: dict[int, list[tuple[int, int]]] = {}
        for c in self.crossings:
            for slot, arc in enumerate(c.arcs):
                if not isinstance(arc, int) or arc < 1:
                    raise DiagramError(f"arc identifiers must be positive integers, got {arc!r}")
                positions.setdefault(arc, []).append((c.id, slot))
        for arc, pos in positions.items():
            if len(pos) != 2:
                raise DiagramError(f"arc {arc} appears {len(pos)} times, expected 2")
        if len(set(self.markers)) != len(self.markers):
            raise DiagramError("duplicate unknot markers")
        for m in self.markers:
            if not isinstance(m, int) or m < 1:
                raise DiagramError(f"marker identifiers must be positive integers, got {m!r}")
            if m in positions:
                raise DiagramError(f"marker {m} collides with an arc identifier")
        self._positions = positions

    def _orient(self, hints: dict[tuple[int, int], bool]) -> None:
        """Derive the incoming/outgoing state of every (crossing, slot).

        Slot 0 is incoming and slot 2 outgoing by convention; the over
        strand's direction is propagated from these.  Operations thread
        the previous diagram's states through as ``hints`` so that
        components whose direction the bare code leaves open keep their
        orientation.  At parse time there are no hints and such components
        are resolved by the sequential-numbering rule (the outgoing over
        arc is the incoming one plus 1, with wraparound), falling back to
        a fixed deterministic choice.
        """
        state: dict[tuple[int, int], int] = {}
        queue: list[tuple[int, int]] = []

        def assign(pos: tuple[int, int], value: int) -> None:
            old = state.get(pos)
            if old is None:
                state[pos] = value
                queue.append(pos)
            elif old != value:
                raise DiagramError("inconsistent orientation traversal")

        for c in self.crossings:
            assign((c.id, 0), _IN)
            assign((c.id, 2), _OUT)
        for (cid, slot), is_in in sorted(hints.items()):
            if cid in self._by_id:
                assign((cid, slot), _IN if is_in else _OUT)

        def propagate() -> None:
            while queue:
                cid, slot = queue.pop()
                value = state[(cid, slot)]
                arc = self._by_id[cid].arcs[slot]
                p, q = self._positions[arc]
                other = q if p == (cid, slot) else p
                assign(other, _IN if value == _OUT else _OUT)
                if slot in (1, 3):
                    assign((cid, 4 - slot), _IN if value == _OUT else _OUT)

        propagate()
        for c in self.crossings:
            if (c.id, 1) in state:
                continue
            b, d = c.arcs[1], c.arcs[3]
            if d == b + 1:
                incoming_slot = 1
            elif b == d + 1:
                incoming_slot = 3
            else:
                incoming_slot = 1 if b >= d else 3
            assign((c.id, incoming_slot), _IN)
            propagate()
        self._state = state
        self._head: dict[int, tuple[int, int]] = {}
        self._tail: dict[int, tuple[int, int]] = {}
        for arc, (p, q) in self._positions.items():
            if state[p] == _IN:
                self._head[arc], self._tail[arc] = p, q
            else:
                self._head[arc], self._tail[arc] = q, p

    def _trace_components(self) -> None:
        succ = {m: m for m in self.markers}  # a marker is a one-element cycle
        for arc, (cid, slot) in self._head.items():
            succ[arc] = self._by_id[cid].arcs[(slot + 2) % 4]
        self.components: tuple[tuple[int, ...], ...] = tuple(orbits(succ.__getitem__, succ))
        self._component_of = {}
        for idx, cyc in enumerate(self.components, 1):
            for arc in cyc:
                self._component_of[arc] = idx

    # -- basic accessors ---------------------------------------------------

    @property
    def component_count(self) -> int:
        return len(self.components)

    @property
    def arcs(self) -> frozenset[int]:
        return frozenset(self._positions)

    def crossing(self, cid: int) -> Crossing:
        try:
            return self._by_id[cid]
        except KeyError:
            raise DiagramError(f"unknown crossing id {cid}") from None

    def is_incoming(self, cid: int, slot: int) -> bool:
        self.crossing(cid)
        return self._state[(cid, slot)] == _IN

    def sign(self, cid: int) -> int:
        """Right-hand-rule sign: +1 iff the over strand enters at slot 3."""
        return 1 if self.is_incoming(cid, 3) else -1

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
        top = max(itertools.chain(self._positions, self.markers, [0]))
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
        total = 0
        for c in self.crossings:
            under, over = self.strand_components(c.id)
            if {under, over} == {i, j}:
                total += self.sign(c.id)
        if total % 2:
            raise DiagramError("odd inter-component crossing sum; diagram is not a closed-curve projection")
        return total // 2

    # -- local operations ----------------------------------------------------

    def _carried_hints(self, slot_perms: dict[int, tuple[int, int, int, int]] | None = None):
        """Per-position orientation states for reuse by a derived diagram."""
        perms = slot_perms or {}
        hints: dict[tuple[int, int], bool] = {}
        for c in self.crossings:
            perm = perms.get(c.id, (0, 1, 2, 3))
            for new_slot, old_slot in enumerate(perm):
                hints[(c.id, new_slot)] = self._state[(c.id, old_slot)] == _IN
        return hints

    @staticmethod
    def _switched(arcs: tuple[int, int, int, int], sign: int):
        """Slot tuple and slot permutation after an over/under exchange."""
        a, b, c, d = arcs
        if sign > 0:
            return (d, a, b, c), (3, 0, 1, 2)
        return (b, c, d, a), (1, 2, 3, 0)

    def switch(self, cid: int) -> "LinkDiagram":
        """Exchange over and under strands at one crossing.

        The slot tuple rotates so the new incoming under-strand sits at
        slot 0; arcs, orientations and all other crossings are untouched,
        and the sign of the crossing is negated.
        """
        c = self.crossing(cid)
        new_arcs, perm = self._switched(c.arcs, self.sign(cid))
        replaced = [Crossing(cid, new_arcs) if x.id == cid else x for x in self.crossings]
        return LinkDiagram(replaced, self.markers, self._carried_hints({cid: perm}))

    def mirror(self) -> "LinkDiagram":
        """Switch every crossing (the mirror-image diagram)."""
        out = []
        perms = {}
        for c in self.crossings:
            new_arcs, perm = self._switched(c.arcs, self.sign(c.id))
            out.append(Crossing(c.id, new_arcs))
            perms[c.id] = perm
        return LinkDiagram(out, self.markers, self._carried_hints(perms))

    def smoothing_pairs(self, cid: int) -> list[tuple[int, int]]:
        """The oriented resolution at a crossing as (incoming, outgoing) arc gluings."""
        a, b, cc, d = self.crossing(cid).arcs
        if self.sign(cid) > 0:
            return [(a, b), (d, cc)]
        return [(a, d), (b, cc)]

    def smooth(self, cid: int) -> "LinkDiagram":
        """Oriented smoothing at a crossing; component count changes by one."""
        return self.rebuild(remove=(cid,), glue=self.smoothing_pairs(cid))

    def rebuild(
        self,
        remove: Iterable[int] = (),
        glue: Iterable[tuple[int, int]] = (),
        drop_markers: Iterable[int] = (),
        new_crossings: Iterable[Crossing] = (),
        new_hints: dict[tuple[int, int], bool] | None = None,
        replace: dict[tuple[int, int], int] | None = None,
    ) -> "LinkDiagram":
        """Produce a new diagram by deleting crossings and regluing arcs.

        ``glue`` pairs (x, y) splice the head of arc x onto the tail of
        arc y.  Glue classes that retain no slot after the deletions close
        up into new unknot markers; unglued arcs that lose both slots
        (e.g. a removed kink loop) simply vanish.  ``replace`` overwrites
        individual (crossing, slot) positions with explicit arc ids; the
        in/out role of an overwritten position is unchanged.
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
            remaining = sum(
                1
                for arc in members
                for (cid, _slot) in self._positions[arc]
                if cid not in removed
            )
            if remaining == 0:
                markers.append(rep)
                # such a class must chain head-to-tail into closed loops
            elif remaining == 2:
                for m in members:
                    rename[m] = rep
            else:
                raise DiagramError("glue classes must close into one arc or one loop")
        overrides = replace or {}
        kept = [
            Crossing(
                c.id,
                tuple(
                    overrides.get((c.id, slot), rename.get(a, a))
                    for slot, a in enumerate(c.arcs)
                ),
            )
            for c in self.crossings
            if c.id not in removed
        ]
        kept.extend(new_crossings)
        hints = {
            pos: is_in
            for pos, is_in in self._carried_hints().items()
            if pos[0] not in removed
        }
        hints.update(new_hints or {})
        return LinkDiagram(kept, markers, hints)

    # -- faces (combinatorial planar regions) --------------------------------

    @cached_property
    def faces(self) -> tuple[tuple[tuple[int, bool], ...], ...]:
        """Orbits of directed arcs under keep-the-face-on-the-left traversal.

        A directed arc is (arc, forward); forward arcs run tail to head.
        Arriving at a crossing through slot s, the face continues out of
        slot s-1 (mod 4).  Markers take part in no face.
        """
        def next_da(da: tuple[int, bool]) -> tuple[int, bool]:
            cid, slot = self.corner(da)
            out_slot = (slot - 1) % 4
            nxt = self._by_id[cid].arcs[out_slot]
            return (nxt, self._tail[nxt] == (cid, out_slot))

        directed = [(arc, fwd) for arc in self._positions for fwd in (True, False)]
        return tuple(orbits(next_da, directed))

    def connected(self) -> bool:
        """True when the underlying 4-valent graph has a single piece."""
        if not self.crossings:
            return len(self.markers) == 1
        if self.markers:
            return False
        parent: dict[int, int] = {}
        merges = sum(union(parent, c1, c2) for (c1, _), (c2, _) in self._positions.values())
        return merges == len(self.crossings) - 1

    # -- encodings -------------------------------------------------------------

    def serialize(self) -> str:
        """Bracketed PD text; parse_pd(serialize(d)) reconstructs d."""
        parts = [f"X[{a},{b},{c},{d}]" for (a, b, c, d) in (x.arcs for x in self.crossings)]
        parts.extend(f"U[{m}]" for m in self.markers)
        return "PD[" + ", ".join(parts) + "]"

    @cached_property
    def canonical_encoding(self) -> str:
        """A string invariant under arc relabeling.

        Arcs are renumbered 1..n along each component from every candidate
        basepoint and component order; the lexicographically least
        relabeled crossing list wins.  Candidates are pruned by
        relabeling-invariant restrictions only: components are grouped by
        length, and basepoints are limited to arcs entering a crossing on
        the under-strand whenever the component has any.  Crossing ids
        never enter the encoding.
        """
        marker_set = set(self.markers)
        cycles = [c for c in self.components if c[0] not in marker_set]
        quads = [
            (c.arcs, 1 if self.is_incoming(c.id, 1) else 0) for c in self.crossings
        ]
        starts: list[list[int]] = []
        for cyc in cycles:
            under = [i for i, arc in enumerate(cyc) if self._head[arc][1] == 0]
            starts.append(under if under else list(range(len(cyc))))
        groups: dict[int, list[int]] = {}
        for idx, cyc in enumerate(cycles):
            groups.setdefault(len(cyc), []).append(idx)
        group_orders = [
            itertools.permutations(groups[size]) for size in sorted(groups)
        ]
        best: tuple | None = None
        for parts in itertools.product(*group_orders):
            order = [idx for part in parts for idx in part]
            for rots in itertools.product(*(starts[i] for i in order)):
                label: dict[int, int] = {}
                n = 0
                for idx, rot in zip(order, rots):
                    cyc = cycles[idx]
                    ln = len(cyc)
                    for k in range(ln):
                        n += 1
                        label[cyc[(rot + k) % ln]] = n
                enc = tuple(
                    sorted(((label[a], label[b], label[c], label[d]), flag) for (a, b, c, d), flag in quads)
                )
                if best is None or enc < best:
                    best = enc
        body = ";".join(f"{a},{b},{c},{d}:{flag}" for (a, b, c, d), flag in (best or ()))
        return f"U{len(self.markers)}|{body}"

    # -- value semantics ---------------------------------------------------------

    def _orientation_key(self) -> tuple:
        return tuple((c.id, self._state[(c.id, 1)] == _IN) for c in self.crossings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkDiagram):
            return NotImplemented
        return (
            self.crossings == other.crossings
            and self.markers == other.markers
            and self._orientation_key() == other._orientation_key()
        )

    def __hash__(self) -> int:
        return hash((self.crossings, self.markers, self._orientation_key()))

    def __repr__(self) -> str:
        return f"LinkDiagram({self.serialize()!r})"
