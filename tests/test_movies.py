"""Move application, self-intersection records, script runs, phi and beta."""

import itertools
import random

import pytest

from sato4.braids import braid_closure
from sato4.conway import sato_levine_oracle
from sato4.diagram import parse_pd
from sato4.errors import MoveError, ScriptError
from sato4.movies import (
    HomotopyScript,
    Move,
    MovieResult,
    SelfIntersectionRecord,
    apply_move,
    beta_engine,
    phi,
    record_self_crossing_change,
    run_script,
    smoothing_loop_linking,
)

HOPF = "PD[X[4,1,3,2],X[2,3,1,4]]"
WHITEHEAD_WORD = [1, -2, 1, -2, 1]


def whitehead():
    return braid_closure(WHITEHEAD_WORD, 3)


def test_r1_remove_kink():
    d = apply_move(parse_pd("PD[X[1,1,2,2]]"), Move("r1_remove", crossing=1))
    assert not d.crossings
    assert d.component_count == 1


def test_r2_remove_drops_two_crossings():
    d = braid_closure([1, -1, 1, 1], 2)
    out = apply_move(d, Move("r2_remove", crossings=(1, 2)))
    assert len(out.crossings) == len(d.crossings) - 2


def test_sc_rejected_on_inter_component_crossing():
    d = parse_pd(HOPF)
    with pytest.raises(MoveError, match="disjointness"):
        apply_move(d, Move("sc", crossing=1))
    with pytest.raises(MoveError, match="disjointness"):
        record_self_crossing_change(d.switch(1), 2)  # lk 0 variant, still inter
    with pytest.raises(ScriptError):
        run_script(HomotopyScript(link=HOPF, moves=(Move("sc", crossing=1),)))


def test_sc_on_three_components_names_the_count():
    d = apply_move(braid_closure([1, 1], 3), Move("r1_add", arc=1, sign=1))  # Hopf link with a kink, and U[3]
    assert d.component_count == 3
    with pytest.raises(MoveError, match="^crossing change refused: need exactly 2 components, got 3$"):
        apply_move(d, Move("sc", crossing=3))
    with pytest.raises(MoveError, match="disjointness"):
        smoothing_loop_linking(d, 1)


def test_moves_preserve_linking_number():
    d = whitehead()
    moves = [
        Move("r1_add", arc=1, sign=-1),
        Move("sc", crossing=3),
        Move("r1_add", arc=2, sign=1, over_first=False),
    ]
    for m in moves:
        d = apply_move(d, m)
        assert d.linking_number(1, 2) == 0


def test_inapplicable_moves_error():
    d = whitehead()
    with pytest.raises(MoveError):
        apply_move(d, Move("r1_remove", crossing=1))
    with pytest.raises(MoveError):
        apply_move(d, Move("r2_remove", crossings=(1, 2)))
    with pytest.raises(MoveError):
        apply_move(d, Move("r1_add", arc=999, sign=1))
    with pytest.raises(MoveError):
        Move("teleport")


def test_record_at_whitehead_clasp():
    d = whitehead()
    assert smoothing_loop_linking(d, 3) in ((1, -1), (-1, 1))
    switched, rec = record_self_crossing_change(d, 3)
    assert rec.w == 1
    assert abs(rec.lam) == 1
    assert rec.eps == d.sign(3)
    assert switched == d.switch(3)


def test_record_at_fresh_kink_has_zero_weight():
    d = apply_move(whitehead(), Move("r1_add", arc=1, sign=1))
    kink = max(c.id for c in d.crossings)
    _, rec = record_self_crossing_change(d, kink)
    assert rec.lam == 0
    assert rec.w == 0


def test_change_and_revert_cancel():
    d = whitehead()
    d1, r1 = record_self_crossing_change(d, 3)
    d2, r2 = record_self_crossing_change(d1, 3)
    assert d2 == d
    assert r1.eps == -r2.eps
    assert r1.w == r2.w
    fake = MovieResult(
        final=parse_pd("PD[] U[1] U[2]"),
        records=(r1, r2),
        move_count=2,
        initial_encoding=d.canonical_encoding,
    )
    assert phi(fake) == 0
    assert beta_engine(fake) == 0


def test_lambda_well_defined_from_either_loop(corpus):
    # checked in the diagram current at each change of every shipped
    # movie, not just at the initial diagrams
    checked = 0
    for entry in corpus:
        if entry.diagram.lk0_violation:
            continue
        for c in entry.diagram.crossings:
            if entry.diagram.is_self_crossing(c.id):
                a, b = smoothing_loop_linking(entry.diagram, c.id)
                assert a == -b and a % 2 == b % 2
        for script in entry.scripts:
            d = script.initial_diagram()
            for m in script.moves:
                if m.kind == "sc":
                    a, b = smoothing_loop_linking(d, m.crossing)
                    assert a == -b and a % 2 == b % 2
                    checked += 1
                d = apply_move(d, m)
    assert checked >= 4


def test_empty_script_on_unlink():
    res = run_script(HomotopyScript(link="PD[] U[1] U[2]", moves=()))
    assert res.records == ()
    assert res.move_count == 0
    assert phi(res) == 0
    assert beta_engine(res) == 0


def test_script_must_terminate_crossingless():
    with pytest.raises(ScriptError):
        run_script(HomotopyScript(link=whitehead().serialize(), moves=(Move("sc", crossing=3),)))


def test_script_error_carries_move_index():
    script = HomotopyScript(
        link=whitehead().serialize(),
        moves=(Move("sc", crossing=3), Move("r1_remove", crossing=1)),
    )
    with pytest.raises(ScriptError, match=r"^move 1 \(r1_remove\) failed: "):
        run_script(script)


def test_shipped_whitehead_scripts(by_name, shipped_calibration):
    entry = by_name["whitehead"]
    e = shipped_calibration.e_cal
    s = shipped_calibration.s_cal
    oracle = sato_levine_oracle(entry.diagram, s)
    phis = set()
    for script in entry.scripts:
        res = run_script(script)
        assert res.final.component_count == 2
        assert phi(res, e) in (1, 3)
        assert phi(res, e) == oracle % 4
        assert beta_engine(res, e) == oracle
        phis.add(phi(res, e))
    assert len(entry.scripts) >= 2
    assert len(phis) == 1


def test_stray_kink_pair_leaves_records_unchanged(by_name):
    entry = by_name["whitehead"]
    base = entry.scripts[0]
    padded = HomotopyScript(
        link=base.link,
        moves=(Move("r1_add", arc=4, sign=-1), Move("r1_remove", crossing=6)) + base.moves,
    )
    assert run_script(padded).records == run_script(base).records


def test_phi_depends_only_on_record_multiset():
    recs = (
        SelfIntersectionRecord(1, 1, 3),
        SelfIntersectionRecord(2, -1, 0),
        SelfIntersectionRecord(1, -1, -1),
        SelfIntersectionRecord(2, 1, 2),
    )
    results = set()
    for perm in itertools.permutations(recs):
        m = MovieResult(
            final=parse_pd("PD[] U[1] U[2]"),
            records=perm,
            move_count=0,
            initial_encoding="x",
        )
        results.add((phi(m, 1), phi(m, -1), beta_engine(m, 1)))
    assert len(results) == 1


def test_beta_congruent_phi_mod_4():
    rng = random.Random(99)
    for _ in range(200):
        recs = tuple(
            SelfIntersectionRecord(
                component=rng.choice([1, 2]),
                eps=rng.choice([1, -1]),
                lam=rng.randrange(-5, 6),
            )
            for _ in range(rng.randrange(0, 7))
        )
        m = MovieResult(
            final=parse_pd("PD[] U[1] U[2]"),
            records=recs,
            move_count=0,
            initial_encoding="x",
        )
        for e in (1, -1):
            assert beta_engine(m, e) % 4 == phi(m, e)


def test_linking_preserved_along_shipped_scripts(corpus):
    for entry in corpus:
        for script in entry.scripts:
            d = script.initial_diagram()
            for m in script.moves:
                d = apply_move(d, m)
                assert d.linking_number(1, 2) == 0, (entry.name, script.name)


def test_record_invariants_enforced():
    with pytest.raises(MoveError):
        SelfIntersectionRecord(1, 0, 1)
    # the weight is the loop linking mod 2, derived rather than stored
    assert [SelfIntersectionRecord(1, 1, lam).w for lam in (-3, -2, 0, 1, 2)] == [1, 0, 0, 1, 0]
    assert SelfIntersectionRecord(2, -1, -3).to_json() == {"component": 2, "eps": -1, "lambda": -3, "w": 1}


def test_r3_rejects_cyclically_braided_triangle():
    # every triangle of this diagram has the over/over-under/under pattern
    # broken cyclically; sliding any of them is not a move
    from sato4.rewrites import find_triangles

    b = braid_closure([1, -2, 1, -2, 1, -2], 3)
    assert find_triangles(b) == []
    with pytest.raises(MoveError):
        apply_move(b, Move("r3", crossings=(1, 5, 6)))


def test_move_json_roundtrip():
    moves = [
        Move("sc", crossing=3),
        Move("r1_remove", crossing=1),
        Move("r1_add", arc=2, sign=-1, over_first=False),
        Move("r2_add", arcs=(1, 5), over=False),
        Move("r2_remove", crossings=(1, 2)),
        Move("r3", crossings=(1, 2, 3)),
    ]
    for m in moves:
        assert Move.from_json(m.to_json()) == m


def test_script_json_roundtrip(by_name):
    script = by_name["whitehead"].scripts[0]
    again = HomotopyScript.from_json(script.to_json(), name=script.name)
    assert again == script
