"""Outside input: random PD codes of at most 3 crossings.

Every call returns a value or raises a typed Sato4Error, every CLI run
exits 0, 1 or 2, and every accepted code is planar.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from sato4.cli import main
from sato4.diagram import parse_pd
from sato4.errors import Sato4Error


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
    for command in ("conway", "lk", "beta"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, text])
        assert code in (0, 1, 2)
        if d is None:
            assert code != 0
