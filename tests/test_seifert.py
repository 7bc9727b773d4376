"""Seifert matrices, the determinant route, and dual-oracle agreement."""

import random
import time
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sato4.braids import braid_closure
from sato4.conway import ConwayPoly, conway_coefficients
from sato4.diagram import parse_pd
from sato4.errors import SeifertError
from sato4.rewrites import add_kink, add_r2
from sato4.search import apply_move, enumerate_moves
from sato4.seifert import (
    SeifertMatrix,
    conway_from_seifert,
    seifert_circles,
    seifert_matrix,
)

from reference_skein import skein_conway

TREFOIL = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
HOPF = "PD[X[4,1,3,2],X[2,3,1,4]]"


def test_empty_matrix_from_unknot_marker():
    assert seifert_matrix(parse_pd("PD[] U[1]")).size == 0


def test_conway_from_empty_matrix():
    assert conway_from_seifert(SeifertMatrix(())) == ConwayPoly.of([1])


def test_conway_from_one_by_one():
    for n in (-3, -1, 0, 1, 2, 5):
        assert conway_from_seifert(SeifertMatrix(((n,),))) == ConwayPoly.of([0, n])


def test_trefoil_matrix_shape_and_value():
    V = seifert_matrix(parse_pd(TREFOIL))
    assert V.size == 2
    det = V.rows[0][0] * V.rows[1][1] - V.rows[0][1] * V.rows[1][0]
    assert det == 1
    assert V.rows[0][0] + V.rows[1][1] == -2
    assert conway_from_seifert(V) == ConwayPoly.of([1, 0, 1])


def test_hopf_matrix_one_by_one():
    V = seifert_matrix(parse_pd(HOPF))
    assert V.size == 1
    assert conway_from_seifert(V).as_list() in ([0, 1], [0, -1])


def test_disconnected_rejected(by_name):
    with pytest.raises(SeifertError):
        seifert_matrix(by_name["trefoils_split"].diagram)
    with pytest.raises(SeifertError):
        seifert_matrix(parse_pd("PD[] U[1] U[2]"))


def test_substitution_is_total_on_integer_matrices():
    # det(xV - x^{-1}V^T) is symmetric under x -> -x^{-1}, so every square
    # integer matrix converts; spot-check an arbitrary non-Seifert matrix
    assert conway_from_seifert(SeifertMatrix(((0, 2), (1, 0)))).as_list() == [1, 0, -2]


def test_seifert_circles_counts():
    assert len(seifert_circles(parse_pd(TREFOIL))) == 2
    assert len(seifert_circles(parse_pd("PD[X[1,1,2,2]]"))) == 2


def _surface_agrees(d):
    """The matrix has the surface's rank c - s + 1 and gives the skein's polynomial."""
    V = seifert_matrix(d)
    assert V.size == len(d.crossings) - len(seifert_circles(d)) + 1
    assert conway_from_seifert(V) == skein_conway(d), d.serialize()


def test_dual_oracle_on_connected_corpus(corpus):
    for entry in corpus:
        if entry.diagram.connected():
            _surface_agrees(entry.diagram)


def test_dual_oracle_on_random_braids():
    rng = random.Random(31)
    tested = 0
    while tested < 40:
        strands = rng.choice([2, 3, 4])
        word = [rng.choice([1, -1]) * rng.randrange(1, strands) for _ in range(rng.randrange(1, 9))]
        d = braid_closure(word, strands)
        if not d.connected():
            continue
        _surface_agrees(d)
        tested += 1


def test_dual_oracle_on_mutated_diagrams():
    # kinks and face slides take the circles out of braid position
    rng = random.Random(77)
    tested = 0
    while tested < 25:
        strands = rng.choice([2, 3])
        word = [rng.choice([1, -1]) * rng.randrange(1, strands) for _ in range(rng.randrange(1, 6))]
        d = braid_closure(word, strands)
        if not d.connected():
            continue
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.5:
                d = add_kink(d, rng.choice(sorted(d.arcs)), rng.choice([1, -1]), rng.random() < 0.5)
            else:
                face = rng.choice([f for f in d.faces if len({a for a, _ in f}) >= 2])
                das = sorted(face)
                da1 = das[rng.randrange(len(das))]
                da2 = next((x for x in das if x[0] != da1[0]), None)
                if da2 is None:
                    continue
                d = add_r2(d, da1[0], da2[0], rng.random() < 0.5)
        _surface_agrees(d)
        tested += 1


def _scrambled_closure(rng, strands, crossings, moves, components=None):
    """A connected braid closure changed by random enlarging and sliding moves."""
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(crossings)]
        if len({abs(x) for x in word}) != strands - 1:
            continue
        d = braid_closure(word, strands)
        if components in (None, d.component_count):
            break
    for _ in range(moves):
        options = [
            m for m in enumerate_moves(d, include_sc=False, include_adds=True)
            if m.kind in ("r1_add", "r2_add", "r3")
        ]
        d = apply_move(d, rng.choice(options))
    return d


def _in_braid_position(d) -> bool:
    """Whether the Seifert graph, multiple bands counted once, is a path."""
    circles = seifert_circles(d)
    circle_of = {arc: i for i, cyc in enumerate(circles) for arc in cyc}
    pairs = {
        frozenset((circle_of[c.arcs[0]], circle_of[c.arcs[3 if d.sign(c.id) > 0 else 1]]))
        for c in d.crossings
    }
    degree = Counter(circle for pair in pairs for circle in pair)
    return len(pairs) == len(circles) - 1 and max(degree.values(), default=0) <= 2


def test_small_scrambles_out_of_braid_position_match_the_skein():
    rng = random.Random(2024)
    out_of_position = 0
    for _ in range(30):
        d = _scrambled_closure(rng, rng.choice([2, 3]), rng.randrange(3, 7), rng.randrange(2, 6))
        out_of_position += not _in_braid_position(d)
        _surface_agrees(d)
    assert out_of_position >= 20


def test_large_scrambles_match_the_smoothing_sum():
    rng = random.Random(4051)
    for _ in range(10):
        d = _scrambled_closure(rng, rng.choice([3, 4, 5]), rng.randrange(10, 20), rng.randrange(8, 25))
        assert 20 <= len(d.crossings) <= 70 and not _in_braid_position(d)
        V = seifert_matrix(d)
        assert V.size == len(d.crossings) - len(seifert_circles(d)) + 1
        P = conway_from_seifert(V)
        assert [P.coefficient(k) for k in range(4)] == conway_coefficients(d, 3), d.serialize()


# 49 crossings on 23 Seifert circles; isotoping it to braid form took 113
# type-II slides, to 275 crossings
OUT_OF_POSITION_49 = (
    "PD[X[1,69,5,6], X[79,7,8,3], X[52,9,10,70], X[9,51,11,12], X[60,59,13,14], "
    "X[66,14,15,16], X[16,15,17,18], X[17,13,19,20], X[20,19,21,22], X[95,22,23,24], "
    "X[31,25,26,21], X[76,27,28,88], X[25,4,3,27], X[55,28,2,1], X[29,29,30,36], "
    "X[12,11,34,33], X[80,31,32,33], X[39,35,38,87], X[38,30,36,37], X[35,39,42,41], "
    "X[42,23,40,41], X[43,56,44,43], X[45,45,46,75], X[10,32,50,49], X[50,47,48,49], "
    "X[8,7,54,53], X[54,51,52,53], X[58,57,56,44], X[84,83,58,55], X[65,47,62,61], "
    "X[62,59,60,61], X[63,57,64,63], X[6,92,68,67], X[68,65,66,67], X[91,69,72,71], "
    "X[72,2,70,71], X[73,40,74,73], X[78,77,76,26], X[46,77,78,75], X[34,79,82,81], "
    "X[82,4,80,81], X[96,64,86,85], X[86,83,84,85], X[90,89,88,87], X[74,89,90,37], "
    "X[94,93,92,5], X[48,93,94,91], X[98,97,96,18], X[24,97,98,95]]"
)


def test_z3_of_a_49_crossing_scramble_in_under_a_second():
    d = parse_pd(OUT_OF_POSITION_49)
    assert (len(d.crossings), len(seifert_circles(d))) == (49, 23)
    start = time.perf_counter()
    V = seifert_matrix(d)
    z3 = conway_from_seifert(V).coefficient(3)
    elapsed = time.perf_counter() - start
    assert V.size == 27
    assert z3 == conway_coefficients(d, 3)[3] == 1
    assert elapsed < 1.0


def _antisymmetric_det(V: SeifertMatrix) -> int:
    n = V.size
    return _int_det([[V.rows[i][j] - V.rows[j][i] for j in range(n)] for i in range(n)])


def test_v_minus_vt_unimodular_for_knots(corpus):
    for entry in corpus:
        d = entry.diagram
        if d.component_count != 1 or not d.connected():
            continue
        assert abs(_antisymmetric_det(seifert_matrix(d))) == 1, entry.name


def test_v_minus_vt_unimodular_for_scrambled_knots():
    rng = random.Random(909)
    for _ in range(12):
        strands = rng.choice([2, 3, 4])
        # a knot closure has strands - 1 crossings mod 2
        crossings = strands - 1 + 2 * rng.randrange(1, 5)
        d = _scrambled_closure(rng, strands, crossings, rng.randrange(2, 10), components=1)
        assert d.component_count == 1
        assert abs(_antisymmetric_det(seifert_matrix(d))) == 1, d.serialize()


def _int_det(rows):
    from fractions import Fraction

    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            for c in range(k, n):
                m[r][c] -= f * m[k][c]
    assert det.denominator == 1
    return int(det)


def test_matrix_must_be_square():
    with pytest.raises(SeifertError):
        SeifertMatrix(((1, 2),))


def _laurent_to_z(laurent: dict[int, int]) -> ConwayPoly:
    """Rewrite an integer Laurent polynomial in x as a polynomial in z = x - x^{-1}.

    The general remainder loop, kept as the reference for the Lucas fold
    of ``conway_from_seifert``: it peels off c z^m for the top term c x^m
    and subtracts its binomial expansion, and asserts that no negative
    power is left over.
    """
    laurent = {e: c for e, c in laurent.items() if c}
    coeffs: dict[int, int] = {}
    while laurent:
        m = max(laurent)
        c = laurent[m]
        assert m >= 0, "non-polynomial remainder"
        coeffs[m] = coeffs.get(m, 0) + c
        for j in range(m + 1):
            term = c * ((-1) ** j) * comb(m, j)
            e = m - 2 * j
            val = laurent.get(e, 0) - term
            if val:
                laurent[e] = val
            else:
                laurent.pop(e, None)
    top = max(coeffs, default=-1)
    return ConwayPoly.of(coeffs.get(i, 0) for i in range(top + 1))


def _interpolated_p(rows) -> list[int]:
    """The coefficients of det(uV - V^T), lowest first: values at u = 0..n by Fractions, interpolated exactly."""
    from fractions import Fraction

    n = len(rows)
    points = range(n + 1)
    values = [_int_det([[u * rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]) for u in points]
    coeffs = [Fraction(0)] * (n + 1)
    for k in points:
        basis = [Fraction(1)]  # prod over m != k of (u - m) / (k - m), lowest power first
        for m in points:
            if m != k:
                basis = [(a - m * b) / (k - m) for a, b in zip([Fraction(0)] + basis, basis + [Fraction(0)])]
        for e, b in enumerate(basis):
            coeffs[e] += values[k] * b
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def _reference_conway(rows) -> ConwayPoly:
    """The interpolated det(uV - V^T), rewritten in z by the remainder loop."""
    n = len(rows)
    return _laurent_to_z({2 * e - n: c for e, c in enumerate(_interpolated_p(rows))})


@st.composite
def square_integer_matrices(draw):
    n = draw(st.integers(0, 7))
    rows = [[draw(st.integers(-50, 50)) for _ in range(n)] for _ in range(n)]
    if n:
        for _ in range(draw(st.integers(0, 3))):
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(-10**6, 10**6))
        if draw(st.booleans()):
            rows[draw(st.integers(0, n - 1))] = [0] * n
        if n > 1 and draw(st.booleans()):
            i, j = draw(st.permutations(range(n)))[:2]
            rows[j] = [draw(st.integers(-3, 3)) * x for x in rows[i]]  # singular
    return rows


@settings(max_examples=300, deadline=None)
@given(square_integer_matrices())
def test_determinant_route_matches_interpolation(rows):
    V = SeifertMatrix(tuple(map(tuple, rows)))
    assert conway_from_seifert(V) == _reference_conway(rows)


@settings(max_examples=300, deadline=None)
@given(square_integer_matrices())
def test_determinant_polynomial_is_palindromic_up_to_sign(rows):
    # P(u) = (-u)^n P(1/u) by transposing; the Lucas fold reads only this pairing
    n = len(rows)
    p = _interpolated_p(rows)
    assert p == [(-1) ** n * c for c in reversed(p)]


@pytest.mark.parametrize("n", [1, 2, 5, 8, 13])
@pytest.mark.parametrize("a", [1, -1, 3, -1000])
def test_scalar_matrix_needs_the_central_binomial(n, a):
    # P(u) = det(u aI - aI) = a^n (u - 1)^n, whose middle coefficient
    # a^n C(n, n // 2) is the largest; the digits must hold it exactly
    V = SeifertMatrix(tuple(tuple(a * (i == j) for j in range(n)) for i in range(n)))
    P = {2 * e - n: a**n * comb(n, e) * (-1) ** (n - e) for e in range(n + 1)}
    assert conway_from_seifert(V) == _laurent_to_z(P)


def test_digits_beyond_the_matrix_size_are_rejected(monkeypatch):
    monkeypatch.setattr("sato4.seifert._det_int", lambda M: 10**400)
    with pytest.raises(SeifertError, match="degree above"):
        conway_from_seifert(SeifertMatrix(((1,),)))


def test_seifert_route_on_a_104_crossing_closure():
    rng = random.Random(1122)
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(104)]
        d = braid_closure(word, 4)
        if d.connected() and d.component_count == 2 and d.linking_number(1, 2) == 0:
            break
    V = seifert_matrix(d)
    assert V.size == 101
    P = conway_from_seifert(V)
    assert [P.coefficient(k) for k in range(4)] == conway_coefficients(d, 3) == [0, 0, 0, 18]
