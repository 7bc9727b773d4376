"""PD parsing, signs, linking numbers, smoothing, switching, encodings."""

import random

import pytest

from sato4.braids import braid_closure
from sato4.diagram import parse_pd
from sato4.errors import DiagramError, PDSyntaxError

HOPF = "PD[X[4,1,3,2],X[2,3,1,4]]"
KINK_POS = "PD[X[1,1,2,2]]"
KINK_NEG = "PD[X[1,2,2,1]]"
TREFOIL = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"


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
        m = entry.diagram.mirror()
        for c in entry.diagram.crossings:
            assert m.sign(c.id) == -entry.diagram.sign(c.id)


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
        assert d.smooth(c.id).component_count == 2


def test_smooth_hopf_merges():
    d = parse_pd(HOPF)
    assert d.smooth(1).component_count == 1
    assert d.smooth(2).component_count == 1


def test_smooth_kink_gives_two_circles():
    s = parse_pd(KINK_POS).smooth(1)
    assert not s.crossings
    assert s.component_count == 2


def test_smooth_changes_component_count_by_one(corpus):
    for entry in corpus:
        d = entry.diagram
        for c in d.crossings:
            assert abs(d.smooth(c.id).component_count - d.component_count) == 1


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
    assert d.mirror().linking_number(1, 2) == -d.linking_number(1, 2)


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
            sm = d.smooth(c.id)
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
    d = parse_pd(TREFOIL).smooth(1)
    r = parse_pd(d.serialize())
    assert r.canonical_encoding == d.canonical_encoding
    assert r.component_count == d.component_count


def test_canonical_encoding_relabeling_invariance():
    rng = random.Random(5)
    for pd in (HOPF, TREFOIL, KINK_POS):
        d = parse_pd(pd)
        arcs = sorted(d.arcs)
        for _ in range(8):
            perm = arcs[:]
            rng.shuffle(perm)
            mapping = dict(zip(arcs, perm))
            text = "PD[" + ",".join(
                "X[%d,%d,%d,%d]" % tuple(mapping[a] for a in c.arcs) for c in d.crossings
            ) + "]"
            assert parse_pd(text).canonical_encoding == d.canonical_encoding


def test_canonical_encoding_distinguishes():
    assert parse_pd(HOPF).canonical_encoding != parse_pd(KINK_POS).canonical_encoding
    assert parse_pd(KINK_POS).canonical_encoding != parse_pd(KINK_NEG).canonical_encoding


def test_canonical_encoding_marker_count():
    one = parse_pd("PD[] U[1]")
    two = parse_pd("PD[] U[1] U[2]")
    assert one.canonical_encoding != two.canonical_encoding
    assert parse_pd("PD[] U[7]").canonical_encoding == one.canonical_encoding


def test_faces_euler_formula(corpus):
    for entry in corpus:
        d = entry.diagram
        if not d.connected() or not d.crossings:
            continue
        v = len(d.crossings)
        e = len(d.arcs)
        assert len(d.faces) == e - v + 2


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
    # one component of this code never passes under; parsing twice and
    # relabeling agree on the resolved orientation
    pd = "PD[X[1,2,3,4],X[3,4,1,2]]"
    d1, d2 = parse_pd(pd), parse_pd(pd)
    assert d1 == d2
    assert d1.linking_number(1, 2) in (1, -1)


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
