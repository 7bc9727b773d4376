"""Best-effort unlinking search."""

import pytest

from sato4.braids import braid_closure
from sato4.diagram import parse_pd
from sato4.errors import ScriptError
from sato4.movies import run_script
from sato4.search import SearchBudget, auto_script, enumerate_moves


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
    script = auto_script(d, SearchBudget(max_nodes=5000, max_depth=30, beam_width=256))
    assert script is not None
    assert any(m.kind == "sc" for m in script.moves)
    res = run_script(script)
    assert sum(r.w for r in res.records) % 2 == 1


def test_budget_exhaustion_returns_none():
    d = braid_closure([1, -2, 1, -2, 1], 3)
    assert auto_script(d, SearchBudget(max_nodes=2, max_depth=1, beam_width=2)) is None


def test_rejects_wrong_component_count():
    with pytest.raises(ScriptError):
        auto_script(parse_pd("PD[] U[1]"))
    with pytest.raises(ScriptError):
        auto_script(parse_pd("PD[X[4,1,3,2],X[2,3,1,4]]"))


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
