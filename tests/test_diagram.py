"""PD parsing, signs, linking numbers, smoothing, switching, encodings."""

import random
from dataclasses import replace
from functools import reduce

import pytest

from sato4.braids import braid_closure
from sato4.cli import main
from sato4.conway import ConwayPoly, conway
from sato4.diagram import LinkDiagram, make_crossing, parse_pd
from sato4.errors import DiagramError, PDSyntaxError
from sato4.rewrites import add_kink, add_r2
from sato4.search import apply_move, auto_script, enumerate_moves

from reference_skein import skein_conway, smooth

HOPF = "PD[X[4,1,3,2],X[2,3,1,4]]"
KINK_POS = "PD[X[1,1,2,2]]"
KINK_NEG = "PD[X[1,2,2,1]]"
TREFOIL = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
ALL_OVER = "PD[X[2,3,4,1], X[4,3,2,1]]"  # braid_closure([1, -1], 2)


def test_parse_empty_with_markers():
    d = parse_pd("PD[] U[1] U[2]")
    assert d.component_count == 2
    assert not d.crossings


def test_parse_hopf_partitions_two_cycles():
    d = parse_pd(HOPF)
    assert d.component_count == 2
    assert d.components == ((1, 2), (3, 4))


def test_parse_kink_single_component():
    d = parse_pd(KINK_POS)
    assert d.component_count == 1
    assert len(d.crossings) == 1


def test_parse_line_format_and_comments():
    text = "# a trefoil\nX 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3\n"
    assert parse_pd(text) == parse_pd(TREFOIL)


def test_parse_rejects_bad_multiplicity():
    with pytest.raises(DiagramError):
        parse_pd("PD[X[1,1,2,3]]")


def test_parse_rejects_junk():
    with pytest.raises(PDSyntaxError):
        parse_pd("PD[X[1,2,3]]")
    with pytest.raises(PDSyntaxError):
        parse_pd("X 1 2\nX 3")


def test_parse_rejects_marker_collision():
    with pytest.raises(DiagramError):
        parse_pd("PD[X[1,1,2,2], U[1]]")


def test_hopf_crossings_same_sign():
    d = parse_pd(HOPF)
    s1, s2 = (d.sign(c.id) for c in d.crossings)
    assert s1 == s2


def test_kink_signs_mirror_antisymmetric():
    assert parse_pd(KINK_POS).sign(1) == -parse_pd(KINK_NEG).sign(1)


def test_mirror_flips_every_sign(corpus):
    for entry in corpus:
        d = entry.diagram
        m = reduce(LinkDiagram.switch, [c.id for c in d.crossings], d)  # the mirror image
        for c in d.crossings:
            assert m.sign(c.id) == -d.sign(c.id)


def test_unknown_crossing_id():
    with pytest.raises(DiagramError):
        parse_pd(HOPF).sign(99)


def test_linking_number_crossingless_zero():
    assert parse_pd("PD[] U[1] U[2]").linking_number(1, 2) == 0


def test_linking_number_hopf_unit():
    assert parse_pd(HOPF).linking_number(1, 2) in (1, -1)


def test_linking_number_whitehead_zero(by_name):
    assert by_name["whitehead"].diagram.linking_number(1, 2) == 0


def test_linking_number_errors():
    d = parse_pd(HOPF)
    with pytest.raises(DiagramError):
        d.linking_number(1, 1)
    with pytest.raises(DiagramError):
        d.linking_number(1, 3)


def test_smooth_self_crossing_splits():
    d = parse_pd(TREFOIL)
    for c in d.crossings:
        assert smooth(d, c.id).component_count == 2


def test_smooth_hopf_merges():
    d = parse_pd(HOPF)
    assert smooth(d, 1).component_count == 1
    assert smooth(d, 2).component_count == 1


def test_smooth_kink_gives_two_circles():
    s = smooth(parse_pd(KINK_POS), 1)
    assert not s.crossings
    assert s.component_count == 2


def test_smooth_changes_component_count_by_one(corpus):
    for entry in corpus:
        d = entry.diagram
        for c in d.crossings:
            assert abs(smooth(d, c.id).component_count - d.component_count) == 1


def test_switch_is_involution(corpus):
    for entry in corpus:
        d = entry.diagram
        for c in d.crossings:
            assert d.switch(c.id).switch(c.id) == d


def test_switch_negates_sign_only_there():
    d = parse_pd(TREFOIL)
    s = d.switch(2)
    assert s.sign(2) == -d.sign(2)
    for cid in (1, 3):
        assert s.sign(cid) == d.sign(cid)


def test_switch_one_hopf_crossing_unlinks():
    # switching a single crossing of the Hopf diagram produces the unlink
    d = parse_pd(HOPF)
    assert d.switch(1).linking_number(1, 2) == 0


def test_mirror_hopf_flips_linking_number():
    d = parse_pd(HOPF)
    assert d.switch(1).switch(2).linking_number(1, 2) == -d.linking_number(1, 2)


def test_switch_self_crossing_preserves_linking(corpus):
    for entry in corpus:
        d = entry.diagram
        if d.component_count != 2:
            continue
        lk = d.linking_number(1, 2)
        for c in d.crossings:
            if d.is_self_crossing(c.id):
                assert d.switch(c.id).linking_number(1, 2) == lk


def test_smoothing_loops_have_opposite_linking(corpus):
    # the two loops of an oriented resolution at a self-crossing link the
    # other component oppositely whenever the diagram's linking number is 0
    for entry in corpus:
        d = entry.diagram
        if d.component_count != 2 or d.linking_number(1, 2) != 0:
            continue
        for c in d.crossings:
            if not d.is_self_crossing(c.id):
                continue
            other = 2 if d.strand_components(c.id)[0] == 1 else 1
            anchor = d.components[other - 1][0]
            sm = smooth(d, c.id)
            t = sm.component_of(anchor)
            pieces = [k for k in range(1, 4) if k != t]
            values = [sm.linking_number(p, t) for p in pieces]
            assert values[0] == -values[1]
            assert values[0] % 2 == values[1] % 2


def test_serialize_roundtrip(corpus):
    for entry in corpus:
        d = entry.diagram
        assert parse_pd(d.serialize()) == d


def test_serialize_roundtrip_after_operations():
    # operation results keep their original crossing ids, which PD text
    # cannot express; the roundtrip is the same diagram up to renumbering
    d = smooth(parse_pd(TREFOIL), 1)
    r = parse_pd(d.serialize())
    assert r.canonical_encoding == d.canonical_encoding
    assert r.component_count == d.component_count


def test_canonical_encoding_distinguishes():
    assert parse_pd(HOPF).canonical_encoding != parse_pd(KINK_POS).canonical_encoding
    assert parse_pd(KINK_POS).canonical_encoding != parse_pd(KINK_NEG).canonical_encoding


def test_canonical_encoding_marker_count():
    one = parse_pd("PD[] U[1]")
    two = parse_pd("PD[] U[1] U[2]")
    assert one.canonical_encoding != two.canonical_encoding
    assert parse_pd("PD[] U[7]").canonical_encoding == one.canonical_encoding


def test_faces_euler_formula(corpus):
    # V - E + F = 2 on each piece; markers take part in no face
    for entry in corpus:
        d = entry.diagram
        v = len(d.crossings)
        e = len(d.arcs)
        assert len(d.faces) == e - v + 2 * d.pieces()
    assert {e.diagram.pieces() for e in corpus} == {0, 1, 2}


def test_braid_closure_conventions():
    hopf = braid_closure([1, 1], 2)
    assert hopf.component_count == 2
    assert hopf.linking_number(1, 2) == 1
    assert all(hopf.sign(c.id) == 1 for c in hopf.crossings)
    unknot = braid_closure([1], 2)
    assert unknot.component_count == 1
    free = braid_closure([1], 3)
    assert free.component_count == 2
    assert len(free.markers) == 1


def test_orientation_all_over_component_is_deterministic():
    # the first component of this code never passes under; the fixed rule
    # orients it (arcs[1] = 3 >= arcs[3] = 1, so arc 3 enters crossing 1
    # at slot 1), and parsing twice agrees
    d1, d2 = parse_pd(ALL_OVER), parse_pd(ALL_OVER)
    assert d1 == d2
    assert d1.components == ((1, 3), (2, 4))
    assert [d1.sign(c.id) for c in d1.crossings] == [-1, 1]
    assert d1.linking_number(1, 2) == 0


def test_all_over_component_takes_the_fixed_rule_over_sequential_numbering():
    # arcs 1 and 2 run over both crossings; though 2 = 1 + 1, the fixed rule says
    # 2 >= 1, so arc 2 enters crossing 1 at slot 1
    d = parse_pd("PD[X[3,2,4,1], X[4,2,3,1]]")
    assert [d.sign(c.id) for c in d.crossings] == [-1, 1]
    # the component lies above the other, so its direction decides no answer
    reverse = LinkDiagram([replace(c, sign=s) for c, s in zip(d.crossings, (1, -1))])
    for e in (d, reverse):
        assert e.linking_number(1, 2) == 0
        assert conway(e) == ConwayPoly()


def test_an_unsigned_crossing_is_rejected():
    # parsing signs the code before any crossing exists; a diagram takes signed crossings only
    c1, c2 = parse_pd(ALL_OVER).crossings
    with pytest.raises(DiagramError) as err:
        LinkDiagram([c1, replace(c2, sign=None)])
    assert str(err.value) == "crossing 2 has sign None, expected +1 or -1"


def test_operations_keep_the_direction_of_an_all_over_component():
    # the reverse of what parsing picks, so only the stored signs say it
    d = LinkDiagram([replace(c, sign=s) for c, s in zip(parse_pd(ALL_OVER).crossings, (1, -1))])
    assert d != parse_pd(ALL_OVER)
    for derived in (d.rebuild(), d.switch(1).switch(1), reduce(LinkDiagram.switch, [1, 2, 1, 2], d)):
        assert derived == d
    kinked = add_kink(d, 2, 1)
    assert [kinked.sign(cid) for cid in (1, 2, 3)] == [1, -1, 1]


@pytest.mark.parametrize(
    "pd",
    # both have V - E + F = 0: they lie on a torus, not on a sphere
    ["PD[X[1,2,3,4],X[3,4,1,2]]", "PD[X[1,4,2,5],X[5,2,6,3],X[3,1,4,6]]"],
)
def test_non_planar_codes_rejected(pd, capsys):
    with pytest.raises(DiagramError, match="not planar"):
        parse_pd(pd)
    assert main(["conway", pd]) == 1
    assert capsys.readouterr().err.startswith("error: PD code is not planar")


def test_derived_diagrams_carry_parsed_signs(built, lk0_closure):
    # switch, smooth and every rewrite build diagrams from signs; where
    # the code alone fixes a crossing's sign, parsing must agree.  Random
    # kinks, R2 insertions and R3 slides first put new crossings in.
    rng = random.Random(19850)
    for _ in range(6):
        d = lk0_closure(rng)
        for _ in range(3):
            d = apply_move(d, rng.choice(enumerate_moves(d, include_sc=False, include_adds=True)))
        skein_conway(d)
        auto_script(d, max_nodes=300)
    diagrams = list(built)
    checked = skipped = 0
    for d in diagrams:
        parsed = parse_pd(d.serialize())  # renumbers crossings 1..n in id order
        passes_under = {d.component_of(c.arcs[0]) for c in d.crossings}
        for new_id, c in enumerate(d.crossings, 1):
            if d.component_of(c.arcs[1]) in passes_under:
                assert d.sign(c.id) == parsed.sign(new_id), d.serialize()
                checked += 1
            else:
                skipped += 1
    assert checked > 1000 and skipped > 0


def test_one_wrong_sign_is_rejected(built, lk0_closure):
    for pd in (KINK_POS, KINK_NEG, HOPF, TREFOIL, ALL_OVER):
        parse_pd(pd)
    rng = random.Random(2017)
    for _ in range(3):
        skein_conway(lk0_closure(rng))
    for d in list(built):
        assert LinkDiagram(d.crossings, d.markers) == d
        for i, c in enumerate(d.crossings):
            flipped = [*d.crossings[:i], replace(c, sign=-c.sign), *d.crossings[i + 1:]]
            with pytest.raises(DiagramError, match="inconsistent orientation"):
                LinkDiagram(flipped, d.markers)


def test_component_indexing_by_smallest_arc():
    d = parse_pd("PD[X[7,10,8,11],X[9,12,10,7],X[11,8,12,9]] U[1]")
    assert d.components[0] == (1,)
    assert d.component_of(7) == 2


@pytest.mark.parametrize(
    "word, strands, pd",
    [
        ([1, -2, 1, -2], 3, "PD[X[2,4,5,1], X[4,3,6,7], X[7,8,1,5], X[8,6,3,2]]"),
        ([1, 1], 3, "PD[X[2,4,5,1], X[4,2,1,5], U[3]]"),
        ([2, -1, 2, 3, -3], 4, "PD[X[3,5,6,2], X[1,6,7,1], X[5,9,2,7], X[4,11,12,9], X[12,11,4,3]]"),
        ([-1, -1, -1], 2, "PD[X[1,2,3,4], X[4,3,5,6], X[6,5,2,1]]"),
        ([], 2, "PD[U[1], U[2]]"),
    ],
)
def test_braid_closure_arc_numbering_is_pinned(word, strands, pd):
    # each closed-up arc is named by the least id among the arcs it joins;
    # an untouched strand becomes a U[..] marker
    assert braid_closure(word, strands).serialize() == pd


# -- the crossing template: make_crossing writes it, strands reads it ----------


@pytest.mark.parametrize("sign, arcs", [(1, (1, 4, 2, 3)), (-1, (1, 3, 2, 4))])
def test_strands_inverts_make_crossing(sign, arcs):
    # under strand 1 -> 2, over strand 3 -> 4
    c = make_crossing(7, (1, 2), (3, 4), sign)
    assert (c.id, c.arcs) == (7, arcs)
    d = LinkDiagram([c, make_crossing(8, (4, 3), (2, 1), sign)])
    assert d.strands(7) == ((1, 2), (3, 4))
    assert d.strands(8) == ((4, 3), (2, 1))


def test_strands_agree_with_orientation(corpus):
    rng = random.Random(1709)
    diagrams = [entry.diagram for entry in corpus]
    for _ in range(40):
        strands = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, 11))]
        diagrams.append(braid_closure(word, strands))
    checked = 0
    for d in diagrams:
        for c in d.crossings:
            (ui, uo), (oi, oo) = d.strands(c.id)
            in_slot = 3 if d.sign(c.id) > 0 else 1
            assert d.head(ui) == (c.id, 0) and d.tail(uo) == (c.id, 2)
            assert d.head(oi) == (c.id, in_slot) and d.tail(oo) == (c.id, 4 - in_slot)
            checked += 1
    assert checked > 200


@pytest.mark.parametrize(
    "sign, over_first, arcs",
    [
        (1, True, (5, 5, 6, 1)),
        (1, False, (1, 6, 5, 5)),
        (-1, True, (5, 1, 6, 5)),
        (-1, False, (1, 5, 5, 6)),
    ],
)
def test_add_kink_slots_are_pinned(sign, over_first, arcs):
    d = add_kink(parse_pd(HOPF), 1, sign, over_first)
    assert d.crossings[-1].arcs == arcs
    assert d.sign(3) == sign


@pytest.mark.parametrize(
    "x, y, x_over, pd, signs",
    # (1, 3), (1, 4), (4, 1) and (2, 4) first share a face with the directions
    # (backward, backward), (forward, backward), (backward, forward), (forward, forward)
    [
        (1, 3, True, "PD[X[4,5,3,2], X[2,6,1,4], X[3,5,8,7], X[8,1,6,7]]", [1, -1]),
        (1, 3, False, "PD[X[4,5,3,2], X[2,6,1,4], X[7,3,5,8], X[1,6,7,8]]", [-1, 1]),
        (1, 4, True, "PD[X[6,5,3,2], X[2,3,1,4], X[4,1,8,7], X[8,5,6,7]]", [-1, 1]),
        (1, 4, False, "PD[X[6,5,3,2], X[2,3,1,4], X[1,8,7,4], X[7,8,5,6]]", [1, -1]),
        (4, 1, True, "PD[X[5,6,3,2], X[2,3,1,4], X[8,7,6,5], X[1,7,8,4]]", [-1, 1]),
        (4, 1, False, "PD[X[5,6,3,2], X[2,3,1,4], X[7,6,5,8], X[4,1,7,8]]", [1, -1]),
        (2, 4, True, "PD[X[6,1,3,2], X[5,3,1,4], X[8,7,6,2], X[4,7,8,5]]", [1, -1]),
        (2, 4, False, "PD[X[6,1,3,2], X[5,3,1,4], X[2,8,7,6], X[7,8,5,4]]", [-1, 1]),
    ],
)
def test_add_r2_slots_are_pinned(x, y, x_over, pd, signs):
    d = add_r2(parse_pd(HOPF), x, y, x_over)
    assert d.serialize() == pd
    assert [d.sign(cid) for cid in (3, 4)] == signs


@pytest.mark.parametrize("letter, pd", [(1, "PD[X[2,2,1,1]]"), (-1, "PD[X[1,2,2,1]]")])
def test_braid_letter_slots_are_pinned(letter, pd):
    d = braid_closure([letter], 2)
    assert d.serialize() == pd
    assert d.sign(1) == letter
