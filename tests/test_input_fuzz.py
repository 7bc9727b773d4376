"""Outside input: random PD codes of at most 3 crossings, and random movie scripts.

Every call returns a value or raises a typed Sato4Error, every CLI run
exits 0, 1 or 2, every accepted code is planar, and every accepted
connected code has the same Conway polynomial by both routes.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from sato4.cli import main
from sato4.conway import conway
from sato4.diagram import parse_pd
from sato4.errors import Sato4Error
from sato4.movies import _FIELDS, HomotopyScript, phi, run_script

from reference_skein import skein_conway


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@st.composite
def pd_codes(draw) -> str:
    n = draw(st.integers(0, 3))
    if draw(st.integers(0, 3)):
        # each arc id twice: passes the multiplicity check, planar or not
        arcs = draw(st.permutations([a for a in range(1, 2 * n + 1) for _ in range(2)]))
    else:
        arcs = draw(st.lists(st.integers(0, 2 * n + 1), min_size=4 * n, max_size=4 * n))
    parts = [f"X[{','.join(map(str, arcs[i:i + 4]))}]" for i in range(0, 4 * n, 4)]
    # fresh, repeated, colliding and (for n = 0) non-positive marker ids
    markers = draw(st.lists(st.integers(2 * n, 2 * n + 2), max_size=2))
    parts += [f"U[{m}]" for m in markers]
    return "PD[" + ", ".join(parts) + "]"


@settings(max_examples=300, deadline=None)
@given(pd_codes())
def test_random_codes_give_a_value_or_a_typed_error(text):
    try:
        d = parse_pd(text)
    except Sato4Error:
        d = None
    if d is not None:
        assert len(d.faces) == len(d.crossings) + 2 * d.pieces()
        if d.connected():
            assert conway(d) == skein_conway(d)
    for command in ("conway", "lk", "beta"):
        code = _quiet_main([command, text])
        assert code in (0, 1, 2)
        if d is None:
            assert code != 0


WHITEHEAD = "PD[X[2,4,5,1], X[4,3,6,7], X[7,8,9,5], X[8,6,3,11], X[11,2,1,9]]"
# well-typed values most of the time, so that many moves reach their site checks
_FIELD = {
    "arc": st.integers(0, 12),
    "arcs": st.lists(st.integers(0, 12), min_size=2, max_size=2),
    "crossing": st.integers(0, 7),
    "crossings": st.lists(st.integers(0, 7), min_size=2, max_size=3),
    "sign": st.sampled_from([1, -1, 0, 2]),
    "over_first": st.booleans(),
    "over": st.booleans(),
}
_JUNK = st.one_of(st.none(), st.text(max_size=2), st.floats(allow_nan=False), st.lists(st.booleans(), max_size=2))


def _rarely(draw) -> bool:
    # a middle value: hypothesis draws the ends of a range more often
    return draw(st.integers(0, 39)) == 20


@st.composite
def move_objects(draw):
    kinds = ["r1_add", "r1_remove", "r2_add", "r2_remove", "r3", "sc"]
    kind = draw(st.sampled_from(["r4", 7]) if _rarely(draw) else st.sampled_from(kinds))
    own = [name for name, _, _ in _FIELDS.get(kind, ())]
    obj = {"kind": kind}
    for name, values in _FIELD.items():
        # a kind's own field is rarely left out, another kind's field rarely put in
        if (name in own) != _rarely(draw):
            obj[name] = draw(_JUNK if _rarely(draw) else values)
    return obj


@st.composite
def script_objects(draw):
    link = draw(st.one_of(st.sampled_from([WHITEHEAD, "PD[] U[1] U[2]", "PD[X[4,1,3,2],X[2,3,1,4]]"]), pd_codes()))
    obj = {"link": link, "moves": draw(st.lists(move_objects(), max_size=6))}
    if _rarely(draw):
        obj = draw(st.sampled_from([[obj], {"link": 3, "moves": []}, {"link": link, "moves": {}}, {}]))
    return obj


@settings(max_examples=300, deadline=None)
@given(script_objects())
def test_random_scripts_give_a_value_or_a_typed_error(tmp_path_factory, obj):
    try:
        phi(run_script(HomotopyScript.from_json(obj)))
        codes = (0,)
    except Sato4Error:
        codes = (1, 2)
    path = tmp_path_factory.mktemp("script") / "s.json"
    path.write_text(json.dumps(obj))
    assert _quiet_main(["phi", "--script", str(path)]) in codes
