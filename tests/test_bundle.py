"""Klein four-group, torus lemma, glued models, Pontryagin squares, gluing."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sato4.bundle
from sato4.bundle import (
    GluingReport,
    XLambdaModel,
    glue_movies,
    pontryagin_square,
    verify_gluing,
)
from sato4.diagram import parse_pd
from sato4.errors import GluingError
from sato4.movies import MovieResult, SelfIntersectionRecord, phi, run_script

from reference_torus import V4, TorusClass, TorusRep, V4Element, torus_w2_cup, torus_w2_surjectivity

UNLINK = parse_pd("PD[] U[1] U[2]")


def _movie(records, encoding="enc"):
    return MovieResult(
        final=UNLINK,
        records=tuple(records),
        move_count=0,
        initial_encoding=encoding,
    )


def _rec(eps, lam, component=1):
    return SelfIntersectionRecord(component=component, eps=eps, lam=lam)


# -- V4 ------------------------------------------------------------------------


def test_v4_involutions():
    for g in V4.ALL:
        assert g * g == V4.E


def test_v4_product_of_nontrivial_pair():
    assert V4.X1 * V4.X2 == V4.X3
    assert V4.X2 * V4.X3 == V4.X1
    assert V4.X3 * V4.X1 == V4.X2


def test_v4_identity():
    for g in V4.ALL:
        assert V4.E * g == g


def test_v4_closed_and_abelian():
    for g in V4.ALL:
        for h in V4.ALL:
            assert g * h in V4.ALL
            assert g * h == h * g


def test_v4_rejects_non_special_diagonal():
    with pytest.raises(ValueError):
        V4Element((1, 1, -1))


# -- torus lemma -----------------------------------------------------------------


def test_torus_w2_lemma_instance():
    assert torus_w2_cup(TorusRep(V4.X1, V4.X2)) == 1


def test_torus_w2_non_surjective():
    assert torus_w2_cup(TorusRep(V4.X1, V4.X1)) == 0
    assert torus_w2_surjectivity(TorusRep(V4.X2, V4.X2)) == 0


def test_torus_w2_circle_pullback():
    assert torus_w2_cup(TorusRep(V4.E, V4.X3)) == 0
    assert torus_w2_surjectivity(TorusRep(V4.E, V4.E)) == 0


def test_torus_w2_exhaustive():
    hits = 0
    for a, b in itertools.product(V4.ALL, repeat=2):
        rep = TorusRep(a, b)
        assert torus_w2_cup(rep) == torus_w2_surjectivity(rep)
        hits += torus_w2_cup(rep)
    assert hits == 6


def _w2_by_cup_products(rep):
    # w1 of the i-th line bundle, then the top term of sum_{i<j} w1_i w1_j
    w1 = [
        TorusClass.degree_one(int(rep.a.diag[i] == -1), int(rep.b.diag[i] == -1))
        for i in range(3)
    ]
    total = TorusClass((0, 0, 0, 0))
    for i, j in itertools.combinations(range(3), 2):
        total = total + w1[i].cup(w1[j])
    return total.top()


def test_torus_w2_closed_form_is_the_cup_product():
    for a, b in itertools.product(V4.ALL, repeat=2):
        rep = TorusRep(a, b)
        assert torus_w2_cup(rep) == _w2_by_cup_products(rep), rep


def test_torus_cohomology_ring():
    a = TorusClass.degree_one(1, 0)
    b = TorusClass.degree_one(0, 1)
    assert a.cup(a).bits == (0, 0, 0, 0)
    assert b.cup(b).bits == (0, 0, 0, 0)
    assert a.cup(b).top() == 1
    assert b.cup(a).top() == 1
    assert TorusClass.one().cup(a) == a


@pytest.mark.parametrize(
    "name", ["V4Element", "V4", "TorusRep", "TorusClass", "torus_w2_cup", "torus_w2_surjectivity"]
)
def test_torus_lemma_is_not_in_the_package(name):
    # gluing reads w = lambda mod 2 from each record; the lemma lives in reference_torus
    assert not hasattr(sato4.bundle, name)
    assert name not in sato4.bundle.__all__


# -- Pontryagin squares ------------------------------------------------------------


def test_pontryagin_examples():
    assert pontryagin_square([1], [1]) == 1
    assert pontryagin_square([1, 1], [1, -1]) == 0
    assert pontryagin_square([1, 1, 1], [-1, -1, -1]) == 1


def test_pontryagin_length_mismatch():
    with pytest.raises(ValueError):
        pontryagin_square([1], [1, 1])


def test_pontryagin_exhaustive_reduction_and_additivity_small_rank():
    for rank in range(0, 5):
        for form in itertools.product((1, -1), repeat=rank):
            for u in itertools.product((0, 1), repeat=rank):
                pu = pontryagin_square(u, form)
                assert pu % 2 == sum(u) % 2  # mod-2 cup square
                for v in itertools.product((0, 1), repeat=rank):
                    s = tuple((x + y) % 2 for x, y in zip(u, v))
                    pairing = sum(x * y * d for x, y, d in zip(u, v, form))
                    assert pontryagin_square(s, form) == (
                        pu + pontryagin_square(v, form) + 2 * pairing
                    ) % 4


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.sampled_from((1, -1))), max_size=14))
def test_pontryagin_laws_randomized(rows):
    u = [r[0] for r in rows]
    v = [r[1] for r in rows]
    form = [r[2] for r in rows]
    s = [(x + y) % 2 for x, y in zip(u, v)]
    pairing = sum(x * y * d for x, y, d in zip(u, v, form))
    assert pontryagin_square(u, form) % 2 == sum(u) % 2
    assert pontryagin_square(s, form) == (
        pontryagin_square(u, form) + pontryagin_square(v, form) + 2 * pairing
    ) % 4


def test_dold_whitney_examples():
    # with p1 = 0, a bundle with w2 = v exists exactly when the Pontryagin square of v vanishes
    def report(records):
        model = XLambdaModel(tuple(records))
        return GluingReport(pontryagin_square(model.w2_vector, model.form), model)

    assert report([(1, 1), (1, -1)]).passed
    assert not report([(1, 1)]).passed


# -- glued models --------------------------------------------------------------------


def test_glue_requires_same_link():
    with pytest.raises(GluingError):
        glue_movies(_movie([], "a"), _movie([], "b"))


def test_glue_two_empty_movies():
    model = glue_movies(_movie([]), _movie([]))
    assert len(model.records) == 0
    assert model.n_plus == model.n_minus == 0


def test_self_glue_is_symmetric():
    m = _movie([_rec(1, 1), _rec(-1, 2), _rec(1, 0)])
    model = glue_movies(m, m)
    assert model.n_plus == model.n_minus
    assert len(model.records) == 6


def test_glue_shipped_whitehead_scripts(by_name, shipped_calibration):
    entry = by_name["whitehead"]
    movies = [run_script(s) for s in entry.scripts]
    model = glue_movies(movies[0], movies[1], shipped_calibration.e_cal)
    assert len(model.records) == 4
    json_model = model.to_json()
    assert json_model["p1"] == 0
    assert len(json_model["records"]) == 4


def test_verify_gluing_identical_movies():
    m = _movie([_rec(1, 1), _rec(-1, 3)])
    report = verify_gluing(m, m)
    assert isinstance(report, GluingReport)
    assert report.pontryagin == 0
    assert report.passed


def test_verify_gluing_on_shipped_pairs(corpus, shipped_calibration):
    # only two different scripts make a pair whose gluing can fail; a self-pair's square is 0
    glued = []
    for entry in corpus:
        movies = [run_script(s) for s in entry.scripts]
        for m1, m2 in itertools.combinations(movies, 2):
            report = verify_gluing(m1, m2, shipped_calibration.e_cal)
            assert report.passed, (entry.name, m1.name, m2.name)
            glued.append((entry.name, m1.name, m2.name))
    assert glued == [("double_clasp", "a", "b"), ("whitehead", "a", "b")]


def test_corrupted_weight_detected(by_name, shipped_calibration):
    entry = by_name["whitehead"]
    good, other = (run_script(s) for s in entry.scripts[:2])
    bad_rec = _rec(good.records[0].eps, 0, good.records[0].component)
    corrupted = MovieResult(
        final=good.final,
        records=(bad_rec,) + good.records[1:],
        move_count=good.move_count,
        initial_encoding=good.initial_encoding,
    )
    report = verify_gluing(corrupted, other, shipped_calibration.e_cal)
    assert not report.passed


def test_corrupted_sign_detected(by_name, shipped_calibration):
    entry = by_name["whitehead"]
    good, other = (run_script(s) for s in entry.scripts[:2])
    flipped = _rec(-good.records[0].eps, good.records[0].lam, good.records[0].component)
    corrupted = MovieResult(
        final=good.final,
        records=(flipped,) + good.records[1:],
        move_count=good.move_count,
        initial_encoding=good.initial_encoding,
    )
    report = verify_gluing(corrupted, other, shipped_calibration.e_cal)
    assert not report.passed


def test_phi_delta_matches_pontryagin_generically():
    m1 = _movie([_rec(1, 1), _rec(1, 3), _rec(-1, 0)])
    m2 = _movie([_rec(-1, 1)])
    for e in (1, -1):
        report = verify_gluing(m1, m2, e)
        assert report.pontryagin == (phi(m1, e) - phi(m2, e)) % 4


_RECORDS = st.lists(
    st.builds(SelfIntersectionRecord, st.just(1), st.sampled_from((1, -1)), st.integers(-5, 5)),
    max_size=6,
)


@settings(max_examples=300)
@given(_RECORDS, _RECORDS, st.sampled_from((1, -1)))
def test_pontryagin_square_is_the_phi_difference(r1, r2, e):
    # glue_movies negates the second movie's signs, so the square is phi1 - phi2 mod 4
    m1, m2 = _movie(r1), _movie(r2)
    report = verify_gluing(m1, m2, e)
    assert report.pontryagin == (phi(m1, e) - phi(m2, e)) % 4
    assert report.passed == (phi(m1, e) == phi(m2, e))


def test_report_stores_the_square_and_the_model_only():
    assert [f.name for f in dataclasses.fields(GluingReport)] == ["pontryagin", "model"]
    assert set(verify_gluing(_movie([]), _movie([])).to_json()) == {"pontryagin_square", "model", "passed"}


def test_model_rejects_bad_records():
    with pytest.raises(GluingError):
        XLambdaModel(((2, 1),))
    with pytest.raises(GluingError):
        XLambdaModel(((0, 0),))
