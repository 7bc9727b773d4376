"""The Conway polynomial by the Seifert determinant, and its low
coefficients by a sum over smoothing sets.

``conway`` answers every connected diagram through the determinant
route of ``sato4.seifert`` in polynomial time; a split diagram gives 0.

``conway_coefficients`` unrolls the descending skein
nabla(L+) - nabla(L-) = z nabla(L0) with one basepoint held fixed into
a signed sum over sets of at most k smoothings, in the shape of the
Gauss-diagram formulas of Chmutov, Khoury and Rossi ("Polyak-Viro
formulas for coefficients of the Conway polynomial", JKTR 2009).  One
walk gives z^0 ... z^k in polynomial time for fixed k, so the
Sato-Levine oracle reads z^3 from it, and ``sato4 verify`` checks the
determinant route against it in one comparison.

All coefficients are exact integers.
"""

from __future__ import annotations

from .diagram import LinkDiagram
from .errors import DiagramError
from .seifert import ConwayPoly, conway_from_seifert, seifert_matrix

__all__ = ["ConwayPoly", "conway", "conway_coefficients", "sato_levine_oracle"]


def clear_memo() -> None:
    """Does nothing: ``conway`` keeps no memo.

    Kept only because the benchmark harness still calls it; it goes
    when the harness stops calling it.
    """


def conway(d: LinkDiagram) -> ConwayPoly:
    """The Conway polynomial of the oriented link presented by d.

    A connected diagram is answered by the Seifert determinant; a
    crossingless one has the 0 x 0 matrix, whose polynomial is 1.
    """
    if not d.connected():
        return ConwayPoly.zero()  # a split link, or no link at all
    return conway_from_seifert(seifert_matrix(d))


def conway_coefficients(d: LinkDiagram, k: int) -> list[int]:
    """The Conway coefficients of z^0 ... z^k, as signed counts of smoothing sets.

    This is the descending skein with one basepoint, the least arc of
    component 1, held fixed through every smoothing.  The walk from the
    basepoint branches at each crossing it first reaches on the incoming
    under arc: smooth it (a factor of its sign and of z) or pass it
    (switched to over-first, a factor of 1).  A walk that closes before
    covering every arc leaves its component split off over the rest, so
    it counts 0; one that covers every arc ends in a descending knot,
    which counts 1.  A covering branch with j smoothings counts toward
    z^j, so the walk is cut at k: O(c^k) walks, shared depth first, and
    the recursion is k + 1 deep.
    """
    if k < 0:
        raise ValueError("powers of z are nonnegative")
    if not d.connected():
        return [0] * (k + 1)  # a split link, or no link at all
    if not d.crossings:
        return [1] + [0] * k  # one unknot marker
    # arc -> (crossing it enters, its sign if entered under else 0, next arc straight on, smoothed)
    step = {}
    for c in d.crossings:
        (ui, uo), (oi, oo) = d.strands(c.id)
        step[ui] = (c.id, c.sign, uo, oo)
        step[oi] = (c.id, 0, oo, uo)
    base = d.components[0][0]
    n_arcs = len(step)
    reached: set[int] = set()
    smoothed: set[int] = set()
    coeffs = [0] * (k + 1)

    def walk(arc: int, covered: int, used: int, weight: int) -> None:
        mine = []
        while arc != base or not covered:
            cid, sign, straight, glued = step[arc]
            covered += 1
            if cid in reached:
                arc = glued if cid in smoothed else straight
                continue
            reached.add(cid)
            mine.append(cid)
            if sign and used < k:
                smoothed.add(cid)
                walk(glued, covered, used + 1, weight * sign)
                smoothed.discard(cid)
            arc = straight
        reached.difference_update(mine)
        if covered == n_arcs:
            coeffs[used] += weight

    walk(base, 0, 0, 1)
    return coeffs


def sato_levine_oracle(d: LinkDiagram, s_cal: int = 1) -> int:
    """The integer invariant read off the z^3 Conway coefficient.

    ``s_cal`` is the global calibration sign; see the corpus module for
    how it is fixed.  Requires a 2-component diagram of linking number 0.
    """
    if s_cal not in (1, -1):
        raise ValueError("s_cal must be +1 or -1")
    if d.lk0_violation:
        raise DiagramError(d.lk0_violation)
    return s_cal * conway_coefficients(d, 3)[3]
