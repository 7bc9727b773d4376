"""The Conway polynomial, its single coefficients, and the integer oracle.

The full polynomial comes from the Seifert route; the test-local
reference skein (``reference_skein``) is the independent check on it
and on the smoothing sum.
"""

import random
import time
from functools import reduce

import pytest

from sato4.braids import braid_closure
from sato4.cli import main
from sato4.conway import ConwayPoly, conway, conway_coefficients, sato_levine_oracle
from sato4.diagram import LinkDiagram, parse_pd
from sato4.errors import DiagramError
from sato4.movies import apply_move
from sato4.search import auto_script, enumerate_moves
from sato4.seifert import conway_from_seifert, seifert_matrix

from reference_skein import skein_conway, smooth, sub, times_z

TREFOIL = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
HOPF = "PD[X[4,1,3,2],X[2,3,1,4]]"


def test_crossingless_unknot_is_one():
    assert conway(parse_pd("PD[] U[1]")) == ConwayPoly.of([1])


def test_split_diagrams_vanish(by_name):
    assert conway(parse_pd("PD[] U[1] U[2]")) == ConwayPoly.zero()
    assert conway(by_name["trefoils_split"].diagram) == ConwayPoly.zero()
    assert conway(by_name["kinked_split"].diagram) == ConwayPoly.zero()


def test_hopf_is_plus_or_minus_z():
    assert conway(parse_pd(HOPF)).as_list() in ([0, 1], [0, -1])
    # and the braid-closure positive Hopf link has coefficient +1
    assert conway(braid_closure([1, 1], 2)) == ConwayPoly.of([0, 1])


def test_trefoil_value():
    assert conway(parse_pd(TREFOIL)) == ConwayPoly.of([1, 0, 1])


def test_figure8_value(by_name):
    assert conway(by_name["figure8"].diagram) == ConwayPoly.of([1, 0, -1])


def test_kinked_unknot_normalizes():
    assert conway(parse_pd("PD[X[1,1,2,2]]")) == ConwayPoly.of([1])


def test_coefficient_access():
    p = ConwayPoly.of([1, 0, 1])
    assert p.coefficient(0) == 1
    assert p.coefficient(2) == 1
    assert p.coefficient(3) == 0
    assert ConwayPoly.of([0, -1]).coefficient(1) == -1
    with pytest.raises(ValueError):
        p.coefficient(-1)
    assert str(ConwayPoly.of([0, -2, 3, 0])) == "[0, -2, 3]"


def test_skein_relation_at_every_crossing(corpus):
    for entry in corpus:
        d = entry.diagram
        if len(d.crossings) > 8:
            continue
        for c in d.crossings:
            plus = d if d.sign(c.id) > 0 else d.switch(c.id)
            minus = plus.switch(c.id)
            zero = smooth(plus, c.id)
            assert sub(conway(plus).coeffs, conway(minus).coeffs) == times_z(conway(zero).coeffs), (
                entry.name,
                c.id,
            )


def test_linking_number_is_z1_coefficient(corpus):
    for entry in corpus:
        d = entry.diagram
        if d.component_count != 2:
            continue
        assert conway(d).coefficient(1) == d.linking_number(1, 2), entry.name


def test_coefficients_below_component_count_vanish(corpus):
    # for a k-component link everything below z^(k-1) is zero; checked,
    # never assumed by the implementation
    for entry in corpus:
        p = conway(entry.diagram)
        for k in range(entry.diagram.component_count - 1):
            assert p.coefficient(k) == 0, entry.name


def test_odd_in_z_when_linking_number_zero(corpus):
    for entry in corpus:
        d = entry.diagram
        if d.component_count != 2 or d.linking_number(1, 2) != 0:
            continue
        for k in range(0, len(conway(d).coeffs), 2):
            assert conway(d).coefficient(k) == 0, entry.name


def test_reidemeister_invariance_randomized(corpus):
    rng = random.Random(2024)
    for entry in corpus:
        d0 = entry.diagram
        base = conway(d0)
        cap = len(d0.crossings) + 3
        for _ in range(100):
            d = d0
            for _ in range(rng.randrange(1, 5)):
                allow_adds = len(d.crossings) < cap
                moves = enumerate_moves(d, include_sc=False, include_adds=allow_adds)
                if not moves:
                    break
                d = apply_move(d, moves[rng.randrange(len(moves))])
            assert conway(d) == base, (entry.name, d.serialize())


def test_oracle_rejects_bad_input():
    with pytest.raises(DiagramError):
        sato_levine_oracle(parse_pd(TREFOIL))
    with pytest.raises(DiagramError):
        sato_levine_oracle(parse_pd(HOPF))


def test_oracle_trivial_values(by_name):
    assert sato_levine_oracle(parse_pd("PD[] U[1] U[2]")) == 0
    assert sato_levine_oracle(by_name["trefoils_split"].diagram) == 0


def test_oracle_whitehead_frozen(by_name):
    # regression: computed with the skein and frozen
    assert conway(by_name["whitehead"].diagram) == ConwayPoly.of([0, 0, 0, -1])
    assert sato_levine_oracle(by_name["whitehead"].diagram, 1) == -1
    assert sato_levine_oracle(by_name["whitehead_mirror"].diagram, 1) == 1


def test_oracle_double_clasp_frozen(by_name):
    d = by_name["double_clasp"].diagram
    assert conway(d) == ConwayPoly.of([0, 0, 0, -2, 0, -1])
    assert sato_levine_oracle(d, 1) == -2


def test_mirror_negates_oracle(by_name):
    for name in ("whitehead", "whitehead_mirror"):
        d = by_name[name].diagram
        mirror = reduce(LinkDiagram.switch, [c.id for c in d.crossings], d)
        assert sato_levine_oracle(mirror) == -sato_levine_oracle(d)


def test_borromean_conway_frozen():
    # all pairwise linking numbers vanish, so z^2 drops and the z^4
    # coefficient is the square of the triple linking; frozen from the
    # skein and cross-checked against the Seifert route
    b = braid_closure([1, -2, 1, -2, 1, -2], 3)
    assert b.component_count == 3
    assert conway(b) == ConwayPoly.of([0, 0, 0, 0, 1])
    assert skein_conway(b) == conway(b)


@pytest.mark.parametrize(
    "text, value",
    [
        (TREFOIL + " U[7]", []),  # split
        ("PD[] U[1]", [1]),  # crossingless
        ("PD[] U[1] U[2]", []),
        ("PD[X[2,1,1,2]]", [1]),  # descending
        ("PD[X[2,3,4,1],X[4,3,2,1]]", []),
        # two pieces, no marker
        ("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3],X[7,10,8,11],X[9,12,10,7],X[11,8,12,9]]", []),
    ],
)
def test_leaves_build_no_memo_key(text, value):
    # the skein's leaves (split, crossingless, descending) need no key;
    # conway() keys nothing at all
    d = parse_pd(text)
    assert conway(d).as_list() == value
    assert skein_conway(d).as_list() == value
    assert "canonical_encoding" not in d.__dict__


# -- the z^k coefficient as a sum over smoothing sets ---------------------------


def _assert_sum_matches_skein(d, memo=None):
    p = skein_conway(d, memo)
    want = [p.coefficient(k) for k in range(len(p.coeffs) + 2)]
    assert conway_coefficients(d, len(p.coeffs) + 1) == want, d.serialize()


def test_smoothing_sum_matches_skein_on_corpus(corpus):
    for entry in corpus:
        _assert_sum_matches_skein(entry.diagram)


@pytest.mark.parametrize(
    "text, k, value",
    [
        ("PD[] U[1]", 0, 1),
        ("PD[] U[1]", 1, 0),
        ("PD[] U[1] U[2]", 0, 0),
        (TREFOIL + " U[7]", 0, 0),
        ("PD[X[1,1,2,2]]", 0, 1),
        (HOPF, 1, -1),
    ],
)
def test_smoothing_sum_small_cases(text, k, value):
    assert conway_coefficients(parse_pd(text), k)[k] == value


def test_smoothing_sum_rejects_negative_power():
    with pytest.raises(ValueError):
        conway_coefficients(parse_pd(TREFOIL), -1)


def test_smoothing_sum_matches_skein_on_built_diagrams(built, lk0_closure):
    # every diagram the skein and the search build from scrambled closures:
    # kinks, split pieces, markers, and one to four components
    rng = random.Random(3172)
    for _ in range(6):
        d = lk0_closure(rng)
        for _ in range(3):
            d = apply_move(d, rng.choice(enumerate_moves(d, include_sc=False, include_adds=True)))
        skein_conway(d)
        auto_script(d, max_nodes=300)
    diagrams = list(built)
    assert len(diagrams) > 500
    assert {d.component_count for d in diagrams} >= {1, 2, 3}
    assert any(d.markers for d in diagrams)
    memo = {}
    for d in diagrams:
        _assert_sum_matches_skein(d, memo)


def test_smoothing_sum_matches_skein_on_closures():
    rng = random.Random(4711)
    for components in range(1, 6):
        found = 0
        while found < 8:
            strands = rng.randint(max(2, components), 5)
            word, length = [], rng.randint(3, 12)
            while len(word) < length:
                letter = rng.choice((1, -1)) * rng.randint(1, strands - 1)
                word += [letter] * rng.randint(1, 2)
            d = braid_closure(word, strands)
            if d.component_count == components:
                _assert_sum_matches_skein(d)
                found += 1


def test_one_walk_gives_every_lower_coefficient(corpus):
    # a walk cut at k completes every smoothing set of fewer than k too
    rng = random.Random(2909)
    diagrams = [e.diagram for e in corpus]
    while len(diagrams) < len(corpus) + 15:
        word = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randint(3, 12))]
        diagrams.append(braid_closure(word, 4))
    for d in diagrams:
        full = conway_coefficients(d, 7)
        assert full == [skein_conway(d).coefficient(j) for j in range(8)], d.serialize()
        for j in range(7):
            assert conway_coefficients(d, j) == full[: j + 1], (j, d.serialize())


def _relabel_cyclically(d, shift):
    ids = sorted(d.arcs)
    new = {a: ids[(i + shift) % len(ids)] for i, a in enumerate(ids)}
    body = ", ".join(f"X[{a},{b},{c},{e}]" for a, b, c, e in (
        tuple(new[x] for x in cr.arcs) for cr in d.crossings
    ))
    return parse_pd(f"PD[{body}]")


def test_smoothing_sum_does_not_depend_on_the_basepoint(corpus, lk0_closure):
    rng = random.Random(808)
    diagrams = [e.diagram for e in corpus if e.diagram.crossings and not e.diagram.markers]
    diagrams += [lk0_closure(rng) for _ in range(4)]
    for d in diagrams:
        want = conway_coefficients(d, 5)
        basepoints = set()
        for shift in range(len(d.arcs)):
            moved = _relabel_cyclically(d, shift)
            # the same oriented diagram, the least arc elsewhere
            assert [moved.sign(c.id) for c in moved.crossings] == [d.sign(c.id) for c in d.crossings]
            basepoints.add(sorted(d.arcs)[-shift % len(d.arcs)])
            assert conway_coefficients(moved, 5) == want, (d.serialize(), shift)
        assert basepoints == set(d.arcs)


def test_cli_beta_60_crossings_matches_seifert_in_under_a_second(capsys):
    rng = random.Random(60)
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(60)]
        d = braid_closure(word, 4)
        if d.lk0_violation is None:
            break
    text = d.serialize()
    start = time.perf_counter()
    assert main(["beta", text]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    z3 = conway_from_seifert(seifert_matrix(parse_pd(text))).coefficient(3)
    assert int(capsys.readouterr().out) == z3


# a 6-strand closure of linking number 0, far past the reference skein
WORD_40 = [
    3, 1, 2, -3, -5, 2, -3, -2, 3, -5, 5, -2, 5, -1, 5, -1, 1, -5, 4, 2,
    4, -1, 4, -3, 4, 5, 1, -5, 5, 3, 4, -4, -3, 1, -2, -4, 2, -3, 1, 3,
]


def test_cli_conway_40_crossings_matches_the_smoothing_sum(capsys):
    d = braid_closure(WORD_40, 6)
    assert len(d.crossings) == 40 and d.lk0_violation is None
    assert main(["conway", d.serialize()]) == 0
    assert capsys.readouterr().out == "[0, 0, 0, -1, 0, -1]\n"
    assert conway_coefficients(d, 6) == [0, 0, 0, -1, 0, -1, 0]
