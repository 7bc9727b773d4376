"""Seifert matrices, the determinant route, and dual-oracle agreement."""

import random

import pytest

from sato4.braids import braid_closure
from sato4.conway import ConwayPoly, conway
from sato4.diagram import parse_pd
from sato4.errors import SeifertError
from sato4.rewrites import add_kink, insert_r2
from sato4.seifert import (
    SeifertMatrix,
    conway_from_seifert,
    seifert_circles,
    seifert_matrix,
    to_braid_form,
)

TREFOIL = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
HOPF = "PD[X[4,1,3,2],X[2,3,1,4]]"


def test_empty_matrix_from_unknot_marker():
    assert seifert_matrix(parse_pd("PD[] U[1]")).size == 0


def test_conway_from_empty_matrix():
    assert conway_from_seifert(SeifertMatrix(())) == ConwayPoly.one()


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


def test_non_symmetric_laurent_rejected():
    from sato4.seifert import laurent_to_z

    with pytest.raises(SeifertError):
        laurent_to_z({-1: 1})
    with pytest.raises(SeifertError):
        laurent_to_z({1: 1, -1: 2})
    assert laurent_to_z({1: 1, -1: -1}).as_list() == [0, 1]


def test_seifert_circles_counts():
    assert len(seifert_circles(parse_pd(TREFOIL))) == 2
    assert len(seifert_circles(parse_pd("PD[X[1,1,2,2]]"))) == 2


def test_braid_form_idempotent_on_closures():
    d = braid_closure([1, -2, 1, -2, 1], 3)
    assert to_braid_form(d) == d


def test_dual_oracle_on_connected_corpus(corpus):
    for entry in corpus:
        d = entry.diagram
        if not d.connected():
            continue
        assert conway_from_seifert(seifert_matrix(d)) == conway(d), entry.name


def test_dual_oracle_on_random_braids():
    rng = random.Random(31)
    tested = 0
    while tested < 40:
        strands = rng.choice([2, 3, 4])
        word = [rng.choice([1, -1]) * rng.randrange(1, strands) for _ in range(rng.randrange(1, 9))]
        d = braid_closure(word, strands)
        if not d.connected():
            continue
        assert conway_from_seifert(seifert_matrix(d)) == conway(d), word
        tested += 1


def test_dual_oracle_on_mutated_diagrams():
    # kinks and face slides force the braiding step to do real work
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
                d = insert_r2(d, da1, da2, rng.random() < 0.5)
        assert conway_from_seifert(seifert_matrix(d)) == conway(d), d.serialize()
        tested += 1


def test_v_minus_vt_unimodular_for_knots(corpus):
    for entry in corpus:
        d = entry.diagram
        if entry.components != 1 or not d.connected():
            continue
        V = seifert_matrix(d)
        n = V.size
        A = [[V.rows[i][j] - V.rows[j][i] for j in range(n)] for i in range(n)]
        assert abs(_int_det(A)) == 1, entry.name


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


def test_braiding_cap_names_itself(monkeypatch):
    # this kinked trefoil needs exactly one type-II slide
    kinked = add_kink(parse_pd(TREFOIL), 1, 1, True)
    monkeypatch.setattr("sato4.seifert._BRAIDING_CAP", 0)
    with pytest.raises(SeifertError, match=r"^no braid form after 0 type-II slides$"):
        to_braid_form(kinked)
    assert to_braid_form(parse_pd(TREFOIL)) == parse_pd(TREFOIL)  # no slide needed
    monkeypatch.setattr("sato4.seifert._BRAIDING_CAP", 1)
    assert len(to_braid_form(kinked).crossings) == 6
