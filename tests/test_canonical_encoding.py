"""The walk-order key on every diagram the skein and the search build.

``LinkDiagram.canonical_encoding`` must survive what keeps the walk order
(renumbering the crossings, order-preserving renaming of the arcs), and
it must name one diagram: the diagram read back from the key has the
same key and the same link.
"""

import random

from sato4.conway import conway
from sato4.diagram import Crossing, LinkDiagram
from sato4.search import auto_script

from reference_skein import skein_conway


def _built_diagrams(built, lk0_closure) -> list[LinkDiagram]:
    rng = random.Random(20170)
    for _ in range(12):
        skein_conway(lk0_closure(rng))
    for _ in range(3):
        assert auto_script(lk0_closure(rng), max_nodes=300) is not None
    diagrams = list(built)

    def no_under_entry(d):
        return any(
            all(d.head(arc)[1] != 0 for arc in cyc)
            for cyc in d.components
            if cyc[0] not in d.markers
        )

    assert {d.component_count for d in diagrams} >= {1, 2, 3}
    assert any(d.markers and d.crossings for d in diagrams)
    assert any(no_under_entry(d) for d in diagrams)
    return diagrams


def _renamed(d: LinkDiagram, rng: random.Random) -> LinkDiagram:
    """d with its arcs and markers renamed in order and its crossings renumbered."""
    old = sorted(d.arcs | set(d.markers))
    rename = dict(zip(old, sorted(rng.sample(range(1, 4 * len(old) + 1), len(old)))))
    ids = rng.sample(range(1, 4 * len(d.crossings) + 1), len(d.crossings))
    new_id = {c.id: i for c, i in zip(d.crossings, ids)}
    return LinkDiagram(
        [Crossing(new_id[c.id], tuple(rename[a] for a in c.arcs), c.sign) for c in d.crossings],
        [rename[m] for m in d.markers],
    )


def _read_back(key: str) -> LinkDiagram:
    """The diagram a key names: its quads as crossings, its flags as signs."""
    head, body = key.split("|")
    quads = [entry.split(":") for entry in body.split(";")] if body else []
    crossings = [
        Crossing(i, tuple(int(a) for a in q.split(",")), -1 if flag == "1" else 1)
        for i, (q, flag) in enumerate(quads, 1)
    ]
    n = 2 * len(crossings)
    return LinkDiagram(crossings, range(n + 1, n + 1 + int(head[1:])))


def test_key_survives_order_preserving_renaming(built, lk0_closure):
    rng = random.Random(4)
    for d in _built_diagrams(built, lk0_closure):
        assert _renamed(d, rng).canonical_encoding == d.canonical_encoding, d.serialize()


def test_key_reads_back_the_diagram(built, lk0_closure):
    compared = 0
    for d in _built_diagrams(built, lk0_closure):
        key = d.canonical_encoding
        back = _read_back(key)
        assert back.canonical_encoding == key, d.serialize()
        if len(d.crossings) <= 8:
            assert conway(back) == conway(d), d.serialize()
            compared += 1
    assert compared
