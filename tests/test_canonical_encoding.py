"""The canonical encoding against the product-and-sort algorithm it replaced.

``reference_encoding`` relabels every crossing for every candidate
component order and basepoint, sorts the relabeled list and keeps the
least.  ``LinkDiagram.canonical_encoding`` emits the same list in walk
order and drops a candidate at its first larger crossing; the strings
must be byte-identical on every diagram the skein and the search build.
"""

import itertools
import random

from sato4.braids import braid_closure
from sato4.conway import clear_memo, conway
from sato4.diagram import LinkDiagram
from sato4.search import SearchBudget, auto_script


def reference_encoding(d: LinkDiagram) -> str:
    marker_set = set(d.markers)
    cycles = [c for c in d.components if c[0] not in marker_set]
    quads = [(c.arcs, 1 if d.is_incoming(c.id, 1) else 0) for c in d.crossings]
    starts = []
    for cyc in cycles:
        under = [i for i, arc in enumerate(cyc) if d.head(arc)[1] == 0]
        starts.append(under if under else list(range(len(cyc))))
    groups = {}
    for idx, cyc in enumerate(cycles):
        groups.setdefault(len(cyc), []).append(idx)
    group_orders = [itertools.permutations(groups[size]) for size in sorted(groups)]
    best = None
    for parts in itertools.product(*group_orders):
        order = [idx for part in parts for idx in part]
        for rots in itertools.product(*(starts[i] for i in order)):
            label = {}
            n = 0
            for idx, rot in zip(order, rots):
                cyc = cycles[idx]
                for k in range(len(cyc)):
                    n += 1
                    label[cyc[(rot + k) % len(cyc)]] = n
            enc = tuple(
                sorted(((label[a], label[b], label[c], label[d]), flag) for (a, b, c, d), flag in quads)
            )
            if best is None or enc < best:
                best = enc
    body = ";".join(f"{a},{b},{c},{d}:{flag}" for (a, b, c, d), flag in (best or ()))
    return f"U{len(d.markers)}|{body}"


def _seeded_closure(rng: random.Random, components: int):
    """A braid closure with the given number of components, 3 to 8 crossings."""
    while True:
        strands = rng.randint(max(2, components), components + 2)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(3, 8))]
        d = braid_closure(word, strands)
        if d.component_count == components:
            return d


def test_encoding_matches_reference_on_built_diagrams(built, lk0_closure):
    rng = random.Random(20170)
    for components in range(1, 6):
        for _ in range(6):
            clear_memo()
            conway(_seeded_closure(rng, components))
    for _ in range(3):
        assert auto_script(lk0_closure(rng), SearchBudget(max_nodes=300)) is not None
    clear_memo()

    def no_under_entry(d):
        return any(
            all(d.head(arc)[1] != 0 for arc in cyc)
            for cyc in d.components
            if cyc[0] not in d.markers
        )

    assert {d.component_count for d in built} >= {1, 2, 3, 4, 5}
    assert any(d.markers and d.crossings for d in built)
    assert any(no_under_entry(d) for d in built)
    for d in built:
        assert d.canonical_encoding == reference_encoding(d), d.serialize()
