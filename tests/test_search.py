"""Best-effort unlinking search."""

import heapq
import json
import random

import pytest

import sato4.search
from sato4.braids import braid_closure
from sato4.diagram import parse_pd
from sato4.errors import MoveError, ScriptError
from sato4.conway import conway_coefficients
from sato4.movies import Move, apply_move, beta_engine, run_script
from sato4.search import _child_score, _score, auto_script, enumerate_moves

WHITEHEAD_SCRIPT = {
    "link": "PD[X[2,4,5,1], X[4,3,6,7], X[7,8,9,5], X[8,6,3,11], X[11,2,1,9]]",
    "moves": [
        {"kind": "sc", "crossing": 3},
        {"kind": "r3", "crossings": [1, 2, 3]},
        {"kind": "r2_remove", "crossings": [1, 4]},
        {"kind": "r2_remove", "crossings": [2, 5]},
        {"kind": "r1_remove", "crossing": 3},
    ],
}


def _scrambled(lk0_closure, rng: random.Random, moves: int):
    """A 2-component lk-0 closure changed by random moves, adds included."""
    d = lk0_closure(rng)
    for _ in range(moves):
        d = apply_move(d, rng.choice(enumerate_moves(d, include_sc=False, include_adds=True)))
    return d


def _counting(monkeypatch) -> dict:
    """Count the search's enumerate_moves and apply_move calls."""
    counts = {"enumerate_moves": 0, "apply_move": 0}
    for name in counts:
        original = getattr(sato4.search, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(sato4.search, name, counted)
    return counts


def test_crossingless_input_gives_empty_script():
    script = auto_script(parse_pd("PD[] U[1] U[2]"))
    assert script is not None
    assert script.moves == ()


def test_split_kinked_unknot_needs_no_crossing_change():
    d = parse_pd("PD[X[1,1,2,2], U[3]]")
    script = auto_script(d)
    assert script is not None
    assert all(m.kind != "sc" for m in script.moves)
    assert run_script(script).records == ()


def test_whitehead_script_contains_a_change():
    d = braid_closure([1, -2, 1, -2, 1], 3)
    script = auto_script(d, max_nodes=5000)
    assert script is not None
    assert any(m.kind == "sc" for m in script.moves)
    res = run_script(script)
    assert sum(r.w for r in res.records) % 2 == 1


def test_budget_exhaustion_returns_none():
    d = braid_closure([1, -2, 1, -2, 1], 3)
    assert auto_script(d, max_nodes=2) is None


def test_rejects_wrong_component_count():
    with pytest.raises(ScriptError):
        auto_script(parse_pd("PD[] U[1]"))
    with pytest.raises(ScriptError):
        auto_script(parse_pd("PD[X[4,1,3,2],X[2,3,1,4]]"))


def test_a_listed_move_that_does_not_apply_raises(monkeypatch):
    # every listed site applies, so a failing one is a broken contract, not a pruned branch
    d = parse_pd(WHITEHEAD_SCRIPT["link"])
    monkeypatch.setattr(sato4.search, "enumerate_moves", lambda cur: [Move("r3", crossings=(1, 2, 4))])
    with pytest.raises(MoveError, match="no slidable triangle with corners"):
        auto_script(d)


def test_enumerate_moves_sites_apply():
    from sato4.movies import apply_move

    d = braid_closure([1, -2, 1, -2, 1], 3)
    moves = enumerate_moves(d, include_adds=True)
    assert moves
    for m in moves[:40]:
        apply_move(d, m)


def test_enumerate_lists_exactly_the_removable_bigons():
    import random

    from sato4.errors import MoveError
    from sato4.rewrites import bigon_arcs, remove_r2

    rng = random.Random(3)
    seen = {True: 0, False: 0}
    for _ in range(40):
        d = braid_closure([rng.choice((1, -1)) * rng.randint(1, 2) for _ in range(8)], 3)
        listed = {m.crossings for m in enumerate_moves(d) if m.kind == "r2_remove"}
        for pair in bigon_arcs(d):
            try:
                remove_r2(d, *pair)
                removable = True
            except MoveError:
                removable = False
            assert (pair in listed) == removable
            seen[removable] += 1
    assert seen[True] and seen[False]  # both reducible bigons and clasps occurred


def test_child_score_is_the_score_of_the_built_child(built, lk0_closure):
    rng = random.Random(6110)
    for _ in range(6):
        auto_script(_scrambled(lk0_closure, rng, 4), max_nodes=300)
    diagrams = list(built) + [_scrambled(lk0_closure, rng, 6) for _ in range(10)]
    kinds, self_bigon = set(), set()
    for d in diagrams:
        score = _score(d)
        for m in enumerate_moves(d):
            assert _child_score(d, score, m) == _score(apply_move(d, m)), (d.serialize(), m)
            kinds.add(m.kind)
            if m.kind == "r2_remove":
                self_bigon.add(d.is_self_crossing(m.crossings[0]))
    assert kinds == {"r1_remove", "r2_remove", "r3", "sc"}
    assert self_bigon == {True, False}


def test_search_builds_only_the_children_it_pops(monkeypatch, lk0_closure):
    rng = random.Random(2034)
    scrambles = [_scrambled(lk0_closure, rng, 5) for _ in range(12)]
    counts = _counting(monkeypatch)
    for d in scrambles:
        counts.update(enumerate_moves=0, apply_move=0)
        script = auto_script(d)
        assert script is not None
        assert counts["apply_move"] <= 2 * counts["enumerate_moves"], (d.serialize(), counts)
        # the search does not replay what it returns; the movie must still reach the unlink
        final = run_script(script, d).final
        assert not final.crossings and final.component_count == 2


def test_max_nodes_counts_distinct_diagrams_expanded(monkeypatch):
    d = braid_closure([1, -2, 1, -2, 1], 3)
    counts = _counting(monkeypatch)
    script = auto_script(d)
    assert json.dumps(script.to_json()) == json.dumps(WHITEHEAD_SCRIPT)
    expanded = counts["enumerate_moves"]
    assert auto_script(d, max_nodes=expanded + 1) == script
    assert auto_script(d, max_nodes=expanded) is None


# a 6-strand closure of 60 crossings whose movie is longer than 60 moves
DEEP_WORD = [
    4, -3, 3, 2, -4, 5, -3, 2, 5, -4, 1, 4, 3, -3, 3, 4, -3, 1, 5, 1,
    -3, -3, -5, -2, -5, -2, 4, 5, -5, -3, -2, -2, -1, -1, -5, -2, 3, -3, -2, 1,
    4, 4, 2, 2, -3, 3, 2, -4, 3, -4, -3, 5, 1, -3, -4, -4, -4, -4, -3, 2,
]


def test_long_movie_is_found_under_the_beam(monkeypatch, shipped_calibration):
    d = braid_closure(DEEP_WORD, 6)
    trims = 0
    nsmallest = heapq.nsmallest

    def counted(*args, **kwargs):
        nonlocal trims
        trims += 1
        return nsmallest(*args, **kwargs)

    monkeypatch.setattr(sato4.search.heapq, "nsmallest", counted)
    script = auto_script(d)
    assert script is not None and len(script.moves) > 60
    assert trims >= 1  # the frontier was cut to the beam
    movie = run_script(script, d)
    assert not movie.final.crossings and movie.final.component_count == 2
    assert beta_engine(movie, shipped_calibration.e_cal) == conway_coefficients(d, 3)[3] == 4
