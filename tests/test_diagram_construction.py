"""Diagram construction: signing unsigned code, the one-pass orientation, its errors, R2/R3 sites.

Unsigned code (parsed text, braid closures) is signed by ``_orient``,
which builds each crossing once; ``LinkDiagram`` takes signed crossings
only.  A test-local reference rebuilds what construction computes in the
slow, obvious way (a table of each arc's two ends, the in/out role of
every end read from the crossing's sign, the face walk one directed arc
at a time, the pieces by a union over each arc's two crossings) and is
compared with every diagram the pipeline builds or re-lays (switches and
R3 slides).
"""

import itertools
import random
from dataclasses import replace

import pytest

from sato4.braids import braid_closure
from sato4.corpus import load_entry
from sato4.diagram import Crossing, LinkDiagram, _orient, make_crossing, parse_pd, union
from sato4.errors import DiagramError, MoveError
from sato4.movies import Move, run_script, smoothing_loop_linking
from sato4.rewrites import (
    _apply_r3, _bypass, _r2_sides, _slidable_triangles, add_kink, add_r2, bigon_arcs, find_triangles, remove_r2, slide_r3,
)
from sato4.search import apply_move, auto_script, enumerate_moves

from reference_skein import skein_conway, smooth

HOPF = "PD[X[4,1,3,2],X[2,3,1,4]]"
UNLINK_R2 = "PD[X[2,3,4,1], X[4,3,2,1]]"  # braid_closure([1, -1], 2): strand 1 passes over twice


def _cycles(step, elements):
    out, seen = [], set()
    for start in sorted(elements):
        if start not in seen:
            cyc = [start]
            x = step(start)
            while x != start:
                cyc.append(x)
                x = step(x)
            seen.update(cyc)
            out.append(tuple(cyc))
    return tuple(out)


def _reference(d: LinkDiagram):
    """(arcs, head, tail, components, faces, pieces) recomputed end by end from the crossings and signs."""
    positions = {}
    for c in d.crossings:
        for slot, arc in enumerate(c.arcs):
            positions.setdefault(arc, []).append((c.id, slot))

    def incoming(cid, slot):
        if slot % 2 == 0:
            return slot == 0
        return (slot == 3) == (d.sign(cid) > 0)

    head, tail = {}, {}
    for arc, (p, q) in positions.items():
        assert incoming(*p) != incoming(*q)
        head[arc], tail[arc] = (p, q) if incoming(*p) else (q, p)
    succ = {m: m for m in d.markers}
    for arc, (cid, slot) in head.items():
        succ[arc] = d.crossing(cid).arcs[(slot + 2) % 4]

    def next_da(da):
        arc, fwd = da
        cid, slot = head[arc] if fwd else tail[arc]
        out = (slot - 1) % 4
        nxt = d.crossing(cid).arcs[out]
        return nxt, tail[nxt] == (cid, out)

    directed = [(arc, fwd) for arc in positions for fwd in (True, False)]
    parent = {}  # pieces: a union of the two crossings at the ends of every arc
    merges = sum(union(parent, p[0], q[0]) for p, q in positions.values())
    pieces = len(d.crossings) - merges
    components, faces = _cycles(succ.__getitem__, succ), _cycles(next_da, directed)
    return set(positions), head, tail, components, faces, pieces


def _scrambled(rng: random.Random, lk0_closure) -> LinkDiagram:
    d = lk0_closure(rng)
    for _ in range(4):
        d = apply_move(d, rng.choice(enumerate_moves(d, include_sc=False, include_adds=True)))
    return d


def test_one_pass_matches_the_reference_on_every_built_diagram(built, lk0_closure, corpus_dir, corpus):
    rng = random.Random(1122)
    for _ in range(4):
        d = _scrambled(rng, lk0_closure)
        script = auto_script(d)
        run_script(script, d)
        skein_conway(d)
    for entry in corpus:
        d = parse_pd(entry.diagram.serialize())
        skein_conway(d)
        for script in load_entry(corpus_dir / entry.name).scripts:
            run_script(script, d)
    diagrams = list(built)
    assert len(diagrams) > 400
    assert any(d.markers for d in diagrams) and any(d.component_count == 1 for d in diagrams)
    for d in diagrams:
        arcs, head, tail, components, faces, pieces = _reference(d)
        assert d.arcs == arcs, d.serialize()
        assert {arc: d.head(arc) for arc in arcs} == head
        assert {arc: d.tail(arc) for arc in arcs} == tail
        assert d.components == components
        assert d.faces == faces
        assert d.pieces() == pieces


def test_every_built_crossing_is_signed(built, lk0_closure):
    # braid closures, parsed codes, switches and every rewrite all hand over signed crossings
    rng = random.Random(2203)
    kinds = set()
    for _ in range(3):
        d = add_kink(parse_pd(_scrambled(rng, lk0_closure).serialize()), 1, -1)
        face = next(f for f in d.faces if len({arc for arc, _ in f}) > 1)
        d = add_r2(d, face[0][0], next(arc for arc, _ in face if arc != face[0][0]), True)
        for move in enumerate_moves(d, include_adds=True):
            apply_move(d, move)
            kinds.add(move.kind)
    assert kinds == {"r1_add", "r1_remove", "r2_add", "r2_remove", "r3", "sc"}
    for d in built:
        for c in d.crossings:
            assert c.sign in (1, -1) and c.sign == d.sign(c.id), d.serialize()
    for s in (1, -1):
        assert make_crossing(5, (1, 2), (3, 4), s).sign == s


def test_derived_diagrams_share_untouched_crossings():
    d = parse_pd("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]")
    switched = d.switch(2)
    assert switched.crossings[0] is d.crossings[0] and switched.crossings[2] is d.crossings[2]
    assert all(a is b for a, b in zip(d.rebuild().crossings, d.crossings))


# each construction error keeps its type and its message; a case is (id, arcs) pairs, markers, message
_CONSTRUCTION_ERRORS = [
    ([(1, (1, 1, 2, 2)), (1, (3, 3, 4, 4))], (), "duplicate crossing ids"),
    ([(1, (1, 1, 0, 0))], (), "arc identifiers must be positive integers, got 0"),
    ([(1, (1, 1, -2, -2))], (), "arc identifiers must be positive integers, got -2"),
    ([(1, (1, 1, "a", "a"))], (), "arc identifiers must be positive integers, got 'a'"),
    ([(1, (1, 1, 2.0, 2.0))], (), "arc identifiers must be positive integers, got 2.0"),
    ([(1, (1, 1, [2], [2]))], (), "arc identifiers must be positive integers, got [2]"),
    ([(1, (1, 1, 2, 3))], (), "arc 2 appears 1 times, expected 2"),
    ([(1, (1, 1, 2))], (), "arc 2 appears 1 times, expected 2"),
    ([(1, (1, 1, 1, 2)), (2, (2, 3, 3, 4))], (), "arc 1 appears 3 times, expected 2"),
    ([(1, (1, 1, 2, 2))], (3, 3), "duplicate unknot markers"),
    ([(1, (1, 1, 2, 2))], (0,), "marker identifiers must be positive integers, got 0"),
    ([(1, (1, 1, 2, 2))], (2,), "marker 2 collides with an arc identifier"),
    # arc 1 enters both crossings at slot 0
    ([(1, (1, 2, 3, 4)), (2, (1, 4, 3, 2))], (), "inconsistent orientation traversal"),
    # every arc appears twice, but the crossing has other than four slots
    ([(1, (1, 1))], (), "crossing 1 has 2 arcs, expected 4"),
    ([(1, (1, 1, 2, 2, 3, 3))], (), "crossing 1 has 6 arcs, expected 4"),
    # arcs that are not a sequence at all
    ([(1, None)], (), "crossing 1 has arcs None, expected 4 arcs"),
    ([(1, 5)], (), "crossing 1 has arcs 5, expected 4 arcs"),
]


@pytest.mark.parametrize(
    "crossings, markers, message, signed",
    [
        pytest.param(*case, signed, id=f"{signed}-crossings{i}-markers{i}-{case[2]}")
        for signed in (False, True)
        for i, case in enumerate(_CONSTRUCTION_ERRORS)
        if signed or case[2] != "duplicate crossing ids"  # unsigned code numbers its crossings 1..n
    ],
)
def test_construction_errors_keep_their_messages(crossings, markers, message, signed):
    # unsigned code is signed by _orient first; signed crossings go to the one-pass loop alone
    with pytest.raises(DiagramError) as err:
        if signed:
            LinkDiagram([Crossing(cid, arcs, 1) for cid, arcs in crossings], markers)
        else:
            LinkDiagram(_orient([arcs for _, arcs in crossings]), markers)
    assert str(err.value) == message


def test_one_flipped_sign_is_an_orientation_error(lk0_closure):
    rng = random.Random(7)
    for d in [_scrambled(rng, lk0_closure) for _ in range(3)] + [parse_pd(HOPF)]:
        for i, c in enumerate(d.crossings):
            flipped = [*d.crossings[:i], replace(c, sign=-c.sign), *d.crossings[i + 1:]]
            with pytest.raises(DiagramError) as err:
                LinkDiagram(flipped, d.markers)
            assert str(err.value) == "inconsistent orientation traversal"


def test_signs_other_than_plus_or_minus_one_are_rejected():
    d = parse_pd(HOPF)
    doubled = [replace(c, sign=2 * c.sign) for c in d.crossings]
    with pytest.raises(DiagramError) as err:
        LinkDiagram(doubled, d.markers)
    assert str(err.value) == f"crossing 1 has sign {doubled[0].sign}, expected +1 or -1"
    c1, c2 = d.crossings
    with pytest.raises(DiagramError, match="has sign 0"):
        LinkDiagram([replace(c1, sign=0), c2], d.markers)


def test_signs_that_are_not_integers_are_rejected():
    d = parse_pd(HOPF).switch(1).switch(2)  # the positive Hopf diagram
    assert (d.sign(1), d.sign(2)) == (1, 1)
    for signs, shown in (((True, True), "True"), ((1.0, 1), "1.0")):
        with pytest.raises(DiagramError) as err:
            LinkDiagram([replace(c, sign=s) for c, s in zip(d.crossings, signs)], d.markers)
        assert str(err.value) == f"crossing 1 has sign {shown}, expected +1 or -1"


def test_parsing_builds_each_crossing_once(monkeypatch, lk0_closure):
    import sato4.diagram as diagram

    trefoil = "PD[X[1,5,2,4],X[3,1,4,6],X[5,3,6,2]]"
    codes = [trefoil, _scrambled(random.Random(4), lk0_closure).serialize()]
    made = []
    monkeypatch.setattr(diagram, "Crossing", lambda *a: made.append(a[0]) or Crossing(*a))
    for code in codes:
        made.clear()
        d = parse_pd(code)
        assert sorted(made) == [c.id for c in d.crossings] == list(range(1, len(d.crossings) + 1))
    made.clear()
    d = braid_closure([1, -2, 1, 2, -1], 3)  # make_crossing builds each once, and _orient once more
    assert sorted(made) == sorted(2 * [c.id for c in d.crossings])


def test_pieces_are_counted_once(monkeypatch, by_name):
    import sato4.diagram as diagram

    d = parse_pd(by_name["trefoils_split"].diagram.serialize())
    calls = []
    union = diagram.union
    monkeypatch.setattr(diagram, "union", lambda *a: calls.append(a) or union(*a))
    assert d.pieces() == 2 and not d.connected() and not d.connected()
    assert calls == []  # parse_pd's planarity check counted them already
    switched = d.switch(1)
    fresh = _built_afresh(switched)
    assert switched.pieces() == fresh.pieces() == 2
    assert switched.pieces() == 2 and fresh.pieces() == 2
    # each diagram counted once, one union per crossing of its strands' components
    assert len(calls) == len(switched.crossings) + len(fresh.crossings)


def _built_afresh(d: LinkDiagram) -> LinkDiagram:
    return LinkDiagram(d.crossings, d.markers)


def test_switch_derives_what_construction_builds(lk0_closure, corpus):
    # switches and R3 slides are re-laid: each equals what __init__ builds from its crossings and markers
    rng = random.Random(8642)
    slides = 0
    for d in _local_check_diagrams(lk0_closure, corpus) + [_scrambled(rng, lk0_closure) for _ in range(60)]:
        triangles = find_triangles(d)
        slides += len(triangles)
        for derived in [d.switch(c.id) for c in d.crossings] + [slide_r3(d, tri) for tri in triangles]:
            assert "_pieces" not in vars(derived)  # counted when asked, not carried
            assert derived.components is d.components and "faces" not in vars(derived)
            fresh = _built_afresh(derived)
            assert derived.pieces() == fresh.pieces()
            assert vars(derived) == vars(fresh), derived.serialize()
    assert slides >= 100


def test_a_slide_or_a_switch_makes_no_init_call(lk0_closure, corpus, monkeypatch):
    diagrams = [d for d in _local_check_diagrams(lk0_closure, corpus) if find_triangles(d)]
    calls = []
    init = LinkDiagram.__init__

    def counting(self, *args, **kwargs):
        calls.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LinkDiagram, "__init__", counting)
    derived = [slide_r3(d, tri) for d in diagrams for tri in find_triangles(d)]
    derived += [d.switch(c.id) for d in diagrams for c in d.crossings]
    assert len(derived) > 20 and calls == []


def test_walked_loop_linking_matches_the_smoothing(built, lk0_closure, corpus_dir, corpus):
    rng = random.Random(5151)
    for _ in range(3):
        d = _scrambled(rng, lk0_closure)
        run_script(auto_script(d), d)
        skein_conway(d)
    for entry in corpus:
        for script in load_entry(corpus_dir / entry.name).scripts:
            run_script(script, entry.diagram)
    checked = 0
    for d in [d for d in built if not d.lk0_violation]:
        for c in d.crossings:
            s, _ = d.strand_components(c.id)
            if d.is_self_crossing(c.id):
                smoothed = smooth(d, c.id)
                t = smoothed.component_of(d.components[2 - s][0])  # the other component, by one of its arcs
                loops = [k for k in range(1, smoothed.component_count + 1) if k != t]
                pair = smoothing_loop_linking(d, c.id)
                assert pair == tuple(smoothed.linking_number(k, t) for k in loops)
                assert sum(pair) == 0  # the loops sum to lk(1, 2)
                checked += 1
    assert checked > 1000


def _local_check_diagrams(lk0_closure, corpus):
    rng = random.Random(2468)
    diagrams = [parse_pd(HOPF), parse_pd(UNLINK_R2)] + [e.diagram for e in corpus]
    for _ in range(12):
        d = _scrambled(rng, lk0_closure)
        diagrams.append(d)
        face = next(f for f in d.faces if len({arc for arc, _ in f}) > 1)
        diagrams.append(add_r2(d, face[0][0], next(arc for arc, _ in face if arc != face[0][0]), True))
    return diagrams


def _r2_sides_from_every_face(d, x, y):
    for face in d.faces:
        da_x = next((da for da in face if da[0] == x), None)
        da_y = next((da for da in face if da[0] == y), None)
        if da_x and da_y:
            return da_x[1], da_y[1]
    return None


def test_r2_add_walks_the_face_the_full_list_picks_first(lk0_closure):
    rng = random.Random(1357)
    diagrams = [parse_pd(HOPF + " U[5]")] + [_scrambled(rng, lk0_closure) for _ in range(5)]
    pairs = 0
    for d in diagrams:
        ids = sorted(d.arcs | set(d.markers)) + [d.fresh_arc_ids(1)[0]]
        for x in ids:
            for y in ids:
                if x != y:
                    want = _r2_sides_from_every_face(d, x, y)
                    if want is None:
                        with pytest.raises(MoveError, match=f"^arcs {x} and {y} do not cobound a face$"):
                            _r2_sides(d, x, y)
                    else:
                        assert _r2_sides(d, x, y) == want
                        pairs += 1
    assert pairs > 500


def _first_face(d, corners, fits):
    """The first face of ``faces`` with exactly these sorted corners that fits, by a walk of the whole list."""
    return next(
        f for f in d.faces
        if len(f) == len(corners) and tuple(sorted(d.corner(da)[0] for da in f)) == corners and fits(f)
    )


def _slidable(d, face):
    return len({arc for arc, _ in face}) == 3 and sorted(
        d.head(arc)[1] % 2 + d.tail(arc)[1] % 2 for arc, _ in face
    ) == [0, 1, 2]


def test_every_listed_r2_and_r3_site_applies_with_its_crossings_in_any_order(lk0_closure, corpus):
    sites = {"r2_remove": 0, "r3": 0}
    for d in _local_check_diagrams(lk0_closure, corpus):
        for m in enumerate_moves(d, include_sc=False):
            if m.kind not in sites:
                continue
            want = apply_move(d, m)
            for cids in itertools.permutations(m.crossings):
                assert apply_move(d, Move(m.kind, crossings=cids)) == want
            if m.kind == "r2_remove":  # the site is the first bigon at its corners in faces order
                f = _first_face(d, m.crossings, lambda f: True)
                assert bigon_arcs(d)[m.crossings] == (f[0][0], f[1][0])
            else:
                assert want == _apply_r3(d, _first_face(d, m.crossings, lambda f: _slidable(d, f)))
            sites[m.kind] += 1
    assert sites["r2_remove"] > 20 and sites["r3"] > 5


def test_an_r3_slide_takes_the_first_slidable_face_at_its_corners():
    d = braid_closure([1, 1, -1], 2)
    assert d.serialize() == "PD[X[2,3,4,1], X[3,5,6,4], X[6,5,2,1]]"
    first, last = [f for f in d.faces if len(f) == 3]  # both have corners 1, 2 and 3, and both slide
    assert _slidable(d, first) and _slidable(d, last)
    assert _apply_r3(d, first) != _apply_r3(d, last)
    for cids in itertools.permutations((1, 2, 3)):
        assert slide_r3(d, cids) == _apply_r3(d, first)


def test_bypass_gives_the_arc_into_the_strand_then_the_arc_out_of_it(lk0_closure, corpus):
    # rebuild unions each glue pair, so no removal shows the order of the pair: this pins it
    arcs = 0
    for d in _local_check_diagrams(lk0_closure, corpus) + [parse_pd("PD[X[1,1,2,2]]")]:
        for arc in sorted(d.arcs):
            (tc, ts), (hc, hs) = d.tail(arc), d.head(arc)  # a strand leaves by the slot opposite its entry
            assert _bypass(d, arc) == (d.crossing(tc).arcs[(ts + 2) % 4], d.crossing(hc).arcs[(hs + 2) % 4])
            arcs += 1
    assert arcs > 500


def test_an_r3_slide_is_an_involution(lk0_closure, corpus):
    # each side of the triangle runs back between its two corners, and nothing else changes
    rng = random.Random(9753)
    diagrams = _local_check_diagrams(lk0_closure, corpus) + [_scrambled(rng, lk0_closure) for _ in range(60)]
    slides = 0
    for d in diagrams:
        for tri in find_triangles(d):
            slid = slide_r3(d, tri)
            assert slid != d and slide_r3(slid, tri) == d
            for arc, _ in _slidable_triangles(d)[tri]:
                assert (slid.tail(arc)[0], slid.head(arc)[0]) == (d.head(arc)[0], d.tail(arc)[0])
            assert [slid.sign(c.id) for c in d.crossings] == [c.sign for c in d.crossings]
            assert slid.components == d.components and slid.markers == d.markers
            pairs = list(itertools.combinations(range(1, d.component_count + 1), 2))
            assert [slid.linking_number(*p) for p in pairs] == [d.linking_number(*p) for p in pairs]
            slides += 1
    assert slides >= 100


def test_bigons_sharing_both_corners():
    # every face of these 2-crossing diagrams is a bigon at crossings 1 and 2
    hopf = parse_pd(HOPF)
    with pytest.raises(Exception, match="bigon is a clasp"):
        remove_r2(hopf, 2, 1)
    unlink = parse_pd(UNLINK_R2)
    assert [len(f) for f in hopf.faces + unlink.faces] == [2] * 8
    assert bigon_arcs(unlink) == {(1, 2): (1, 4)}
    assert remove_r2(unlink, 2, 1).serialize() == "PD[U[2], U[3]]"
