"""The Conway polynomial by the Seifert determinant, and single
coefficients by a sum over smoothing sets.

``conway`` answers every connected diagram through the determinant
route of ``sato4.seifert`` in polynomial time; a split diagram gives 0.

``conway_coefficient`` unrolls the descending skein
nabla(L+) - nabla(L-) = z nabla(L0) with one basepoint held fixed into
a signed sum over sets of k smoothings, in the shape of the
Gauss-diagram formulas of Chmutov, Khoury and Rossi ("Polyak-Viro
formulas for coefficients of the Conway polynomial", JKTR 2009).  It
runs in polynomial time for fixed k, so the Sato-Levine oracle uses it
for z^3, and ``sato4 verify`` checks every coefficient of the
determinant route against it.

All coefficients are exact integers.
"""

from __future__ import annotations

from .diagram import LinkDiagram
from .errors import DiagramError
from .seifert import ConwayPoly, conway_from_seifert, seifert_matrix

__all__ = ["ConwayPoly", "conway", "conway_coefficient", "sato_levine_oracle"]


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


def conway_coefficient(d: LinkDiagram, k: int) -> int:
    """The z^k Conway coefficient, as a signed count of smoothing sets.

    This is the descending skein with one basepoint, the least arc of
    component 1, held fixed through every smoothing.  The walk from the
    basepoint branches at each crossing it first reaches on the incoming
    under arc: smooth it (a factor of its sign and of z) or pass it
    (switched to over-first, a factor of 1).  A walk that closes before
    covering every arc leaves its component split off over the rest, so
    it counts 0; one that covers every arc ends in a descending knot,
    which counts 1.  Only branches with exactly k smoothings reach z^k,
    so the walk is cut at k: O(c^k) walks, shared depth first, and the
    recursion is k + 1 deep.
    """
    if k < 0:
        raise ValueError("powers of z are nonnegative")
    if not d.connected():
        return 0  # a split link, or no link at all
    if not d.crossings:
        return int(k == 0)  # one unknot marker
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

    def walk(arc: int, covered: int, used: int, weight: int) -> int:
        total = 0
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
                total += walk(glued, covered, used + 1, weight * sign)
                smoothed.discard(cid)
            arc = straight
        reached.difference_update(mine)
        return total + weight if covered == n_arcs and used == k else total

    return walk(base, 0, 0, 1)


def sato_levine_oracle(d: LinkDiagram, s_cal: int = 1) -> int:
    """The integer invariant read off the z^3 Conway coefficient.

    ``s_cal`` is the global calibration sign; see the corpus module for
    how it is fixed.  Requires a 2-component diagram of linking number 0.
    """
    if s_cal not in (1, -1):
        raise ValueError("s_cal must be +1 or -1")
    if d.lk0_violation:
        raise DiagramError(d.lk0_violation)
    return s_cal * conway_coefficient(d, 3)
