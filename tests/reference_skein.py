"""A test-local reference Conway polynomial: the descending skein.

The recursion walks components in index order from the least arc of
each; at the first crossing whose first passage goes under, it applies
nabla(L+) - nabla(L-) = z nabla(L0).  Switch moves strictly toward a
descending diagram and smoothing drops a crossing, so the recursion
terminates; descending diagrams are split unlinks.

It shares nothing with the Seifert route or the smoothing sum: it
smooths through ``LinkDiagram.rebuild``, adds coefficient tuples, and
memoizes recursive nodes on their canonical encoding in a dict that
the caller owns (a fresh one per call by default).  Its cost grows
exponentially with the crossings, so it refuses diagrams of more than
``MAX_CROSSINGS``.
"""

from itertools import zip_longest

from sato4.conway import ConwayPoly

MAX_CROSSINGS = 16


def smooth(d, cid):
    """The oriented smoothing of d at one crossing."""
    return d.rebuild(remove=(cid,), glue=d.smoothing_pairs(cid))


def trim(p) -> tuple:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def add(p, q) -> tuple:
    return trim(a + b for a, b in zip_longest(p, q, fillvalue=0))


def sub(p, q) -> tuple:
    return trim(a - b for a, b in zip_longest(p, q, fillvalue=0))


def times_z(p) -> tuple:
    return (0,) + p if p else p


def skein_conway(d, memo: dict | None = None) -> ConwayPoly:
    """The Conway polynomial of d by the descending skein.

    ``memo`` maps canonical encodings to coefficient tuples; pass one
    dict to share it across calls, or none for a fresh one.
    """
    if len(d.crossings) > MAX_CROSSINGS:
        raise ValueError(f"{len(d.crossings)} crossings is too many for the reference skein")
    return ConwayPoly(_skein(d, {} if memo is None else memo))


def _skein(d, memo: dict) -> tuple:
    if not d.connected():
        return ()  # a split link, or no link at all
    cid = _first_violation(d) if d.crossings else None
    if cid is None:
        # crossingless or descending diagram: an unknot, or a split unlink
        return (1,) if d.component_count == 1 else ()
    key = d.canonical_encoding
    if key not in memo:
        switched = _skein(d.switch(cid), memo)
        smoothed = times_z(_skein(smooth(d, cid), memo))
        memo[key] = add(switched, smoothed) if d.sign(cid) > 0 else sub(switched, smoothed)
    return memo[key]


def _first_violation(d):
    """First crossing (in walk order) whose first passage goes under."""
    seen = set()
    for comp in d.components:
        for arc in comp:
            cid, slot = d.head(arc)
            if cid in seen:
                continue
            seen.add(cid)
            if slot == 0:
                return cid
    return None
