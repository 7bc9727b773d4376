"""Seifert matrices and the determinant route to the Conway polynomial.

The diagram is first isotoped to a closed-braid form: while some face
contains strands of two different Seifert circles running coherently
with its boundary, slide one across the other (a type II move).  When no
such face remains the circles are nested and coherently oriented, the
circle/band adjacency is a path, and the bands between consecutive
circles carry the usual consecutive-band homology basis, whose Seifert
pairing is given by a fixed local rule table.

The Conway polynomial is then det(x V - x^{-1} V^T) rewritten in
z = x - x^{-1}, computed exactly over the integers (Bareiss elimination
on polynomials in u = x^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .conway import ConwayPoly, poly_mul, poly_sub, poly_trim
from .diagram import LinkDiagram, orbits
from .errors import SeifertError
from .rewrites import insert_r2

__all__ = [
    "SeifertMatrix",
    "seifert_circles",
    "seifert_matrix",
    "conway_from_seifert",
    "to_braid_form",
]

_BRAIDING_CAP = 512


@dataclass(frozen=True)
class SeifertMatrix:
    """Square integer matrix of the Seifert pairing on a cycle basis."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise SeifertError("Seifert matrix must be square")

    @property
    def size(self) -> int:
        return len(self.rows)


# -- Seifert circles ----------------------------------------------------------


def _smoothed_next(d: LinkDiagram, arc: int) -> int:
    """Successor of an arc after orienting-smoothing every crossing."""
    cid, slot = d.head(arc)
    crossing = d.crossing(cid)
    if slot == 0:
        out = 1 if d.sign(cid) > 0 else 3
    else:
        out = 2
    return crossing.arcs[out]


def seifert_circles(d: LinkDiagram) -> list[tuple[int, ...]]:
    """The cycles of arcs obtained by smoothing every crossing."""
    return orbits(lambda arc: _smoothed_next(d, arc), d.arcs)


# -- Vogel moves to braid form -------------------------------------------------


def _reducing_pair(d: LinkDiagram, circle_of: dict[int, int]):
    """Two same-direction face steps on different Seifert circles, if any."""
    for face in d.faces:
        for flag in (True, False):
            members = [(arc, f) for arc, f in face if f == flag]
            seen: dict[int, tuple[int, bool]] = {}
            for arc, f in members:
                c = circle_of[arc]
                for c0, da0 in seen.items():
                    if c0 != c:
                        return da0, (arc, f)
                seen.setdefault(c, (arc, f))
    return None


def to_braid_form(d: LinkDiagram) -> LinkDiagram:
    """Apply type II slides until the Seifert circles are coherently nested."""
    for _ in range(_BRAIDING_CAP):
        circle_of = {}
        for idx, cyc in enumerate(seifert_circles(d)):
            for arc in cyc:
                circle_of[arc] = idx
        pair = _reducing_pair(d, circle_of)
        if pair is None:
            return d
        d, _ = insert_r2(d, pair[0], pair[1], True)
    raise SeifertError("braiding did not terminate")


# -- braid structure -----------------------------------------------------------


def _braid_structure(d: LinkDiagram):
    """Strand-ordered circles and per-annulus band positions of a braid-form diagram.

    Returns (num_strands, bands) where bands maps each annulus k (between
    strands k and k+1, 1-based) to its crossings in braid-word order,
    and each crossing's sign.
    """
    circles = seifert_circles(d)
    passages: dict[int, list[int]] = {i: [] for i in range(len(circles))}
    joins: dict[int, list[int]] = {}
    for idx, cyc in enumerate(circles):
        for arc in cyc:
            cid = d.head(arc)[0]
            passages[idx].append(cid)
            joins.setdefault(cid, []).append(idx)
    neighbors: dict[int, set[int]] = {i: set() for i in range(len(circles))}
    for cid, pair in joins.items():
        if len(pair) != 2 or pair[0] == pair[1]:
            raise SeifertError("band does not join two distinct circles")
        neighbors[pair[0]].add(pair[1])
        neighbors[pair[1]].add(pair[0])
    # The circle adjacency must be a path; its order is the strand order.
    ends = [i for i, ns in neighbors.items() if len(ns) == 1]
    if len(circles) == 1:
        order = [0] if not d.crossings else None
    elif len(ends) == 2 and all(len(ns) <= 2 for ns in neighbors.values()):
        order = [min(ends)]
        while True:
            nxt = [n for n in neighbors[order[-1]] if len(order) < 2 or n != order[-2]]
            if not nxt:
                break
            order.append(nxt[0])
    else:
        order = None
    if order is None or len(order) != len(circles):
        raise SeifertError("Seifert circles are not in braid position")
    strand = {c: k for k, c in enumerate(order)}

    def annulus(cid: int) -> int:
        a, b = (strand[j] for j in joins[cid])
        if abs(a - b) != 1:
            raise SeifertError("band joins non-adjacent strands")
        return min(a, b) + 1

    # Linearize: cut strand 1 anywhere, then cut each next circle so that
    # the already-placed bands keep their order.
    word: list[int] = []

    def position(cid: int) -> int:
        return word.index(cid)

    first = list(passages[order[0]])
    if first:
        rot = first.index(min(first))
        word.extend(first[rot:] + first[:rot])
    for k in range(1, len(order) - 1):
        lst = list(passages[order[k]])
        old = [c for c in lst if c in word]
        if not old:
            raise SeifertError("adjacent strands share no band")
        anchor = min(old, key=position)
        i = lst.index(anchor)
        lst = lst[i:] + lst[:i]
        seq = [c for c in lst if c in word]
        if seq != sorted(seq, key=position):
            raise SeifertError("band orders around adjacent circles disagree")
        cursor = position(lst[0])
        for cid in lst[1:]:
            if cid in word:
                cursor = position(cid)
            else:
                cursor += 1
                word.insert(cursor, cid)
    bands: dict[int, list[int]] = {}
    for cid in word:
        bands.setdefault(annulus(cid), []).append(cid)
    return len(order), bands, {cid: d.sign(cid) for cid in word}, word


# -- the pairing rule table ------------------------------------------------------
#
# Pinned against the skein oracle on braid closures (see tests): the two
# consecutive-band cycles through a shared positive band pair as
# V[earlier, later] = -1, through a negative one as V[later, earlier] = +1;
# a cycle whose two bands share a sign pairs with itself by that sign; and
# for cycles on adjacent annuli interleaving as u1 < t1 < u2 < t2 (the
# outer-annulus cycle starting first), V[outer, inner] = +1, while
# t1 < u1 < t2 < u2 gives V[outer, inner] = -1.

_DIAG = {(1, 1): 1, (-1, -1): -1, (1, -1): 0, (-1, 1): 0}


def seifert_matrix(d: LinkDiagram) -> SeifertMatrix:
    """Seifert matrix of a connected diagram via braid form.

    The basis: for each pair of braid-word-consecutive bands between the
    same two strands, the cycle through both.  Validated through
    conway_from_seifert agreeing with the skein recursion.
    """
    if not d.connected():
        raise SeifertError("diagram is not connected; present a connected diagram of the link")
    if not d.crossings:
        return SeifertMatrix(())
    b = to_braid_form(d)
    _, bands, sign, word = _braid_structure(b)
    pos = {cid: i for i, cid in enumerate(word)}
    gens: list[tuple[int, int, int]] = []  # (annulus, first band, second band)
    for k in sorted(bands):
        run = bands[k]
        gens.extend((k, run[i], run[i + 1]) for i in range(len(run) - 1))
    n = len(gens)
    V = [[0] * n for _ in range(n)]
    for i, (k, b1, b2) in enumerate(gens):
        V[i][i] = _DIAG[(sign[b1], sign[b2])]
        for j, (k2, c1, c2) in enumerate(gens):
            if j <= i:
                continue
            if k2 == k and c1 == b2:
                # consecutive cycles sharing the band b2 (i earlier)
                if sign[b2] > 0:
                    V[i][j] = -1
                else:
                    V[j][i] = 1
            elif k2 == k + 1 or k == k2 + 1:
                lo, hi = (i, j) if k < k2 else (j, i)
                t1, t2 = sorted((pos[gens[lo][1]], pos[gens[lo][2]]))
                u1, u2 = sorted((pos[gens[hi][1]], pos[gens[hi][2]]))
                if u1 < t1 < u2 < t2:
                    V[hi][lo] = 1
                elif t1 < u1 < t2 < u2:
                    V[hi][lo] = -1
    return SeifertMatrix(tuple(tuple(row) for row in V))


# -- exact determinant route -------------------------------------------------------


def _p_div_exact(p, q):
    """Exact division in Z[u]; raises if the quotient is not integral."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    if not p:
        return ()
    rem = list(p)
    out = [0] * (len(p) - len(q) + 1)
    for k in range(len(p) - len(q), -1, -1):
        c = rem[k + len(q) - 1]
        if c % q[-1]:
            raise SeifertError("non-exact polynomial division")
        f = c // q[-1]
        out[k] = f
        if f:
            for j, b in enumerate(q):
                rem[k + j] -= f * b
    if any(rem):
        raise SeifertError("non-exact polynomial division")
    return poly_trim(out)


def _det_poly(M: list[list[tuple[int, ...]]]) -> tuple[int, ...]:
    """Fraction-free Bareiss determinant over Z[u]."""
    n = len(M)
    if n == 0:
        return (1,)
    M = [row[:] for row in M]
    sign = 1
    prev: tuple[int, ...] = (1,)
    for k in range(n - 1):
        if not M[k][k]:
            for r in range(k + 1, n):
                if M[r][k]:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return ()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = poly_sub(poly_mul(M[i][j], M[k][k]), poly_mul(M[i][k], M[k][j]))
                M[i][j] = _p_div_exact(num, prev)
            M[i][k] = ()
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return det if sign > 0 else poly_sub((), det)


def conway_from_seifert(V: SeifertMatrix) -> ConwayPoly:
    """det(x V - x^{-1} V^T) rewritten as a polynomial in z = x - x^{-1}."""
    n = V.size
    if n == 0:
        return ConwayPoly.one()
    # multiply every entry by x: entries become polynomials in u = x^2,
    # and det(xV - x^{-1}V^T) = P(x^2) / x^n
    M = [[poly_trim((-V.rows[j][i], V.rows[i][j])) for j in range(n)] for i in range(n)]
    P = _det_poly(M)
    laurent: dict[int, int] = {}
    for e, c in enumerate(P):
        if c:
            laurent[2 * e - n] = c
    return laurent_to_z(laurent)


def laurent_to_z(laurent: dict[int, int]) -> ConwayPoly:
    """Rewrite an integer Laurent polynomial in x as a polynomial in z = x - x^{-1}.

    Determinants of x V - x^{-1} V^T always convert (their x -> -x^{-1}
    symmetry keeps the top exponent nonnegative); anything else leaving a
    negative-exponent remainder is rejected.
    """
    laurent = {e: c for e, c in laurent.items() if c}
    coeffs: dict[int, int] = {}
    while laurent:
        m = max(laurent)
        c = laurent[m]
        if m < 0:
            raise SeifertError("substitution leaves a non-polynomial remainder; invalid Seifert matrix")
        coeffs[m] = coeffs.get(m, 0) + c
        for j in range(m + 1):
            term = c * ((-1) ** j) * comb(m, j)
            e = m - 2 * j
            val = laurent.get(e, 0) - term
            if val:
                laurent[e] = val
            else:
                laurent.pop(e, None)
    top = max(coeffs, default=-1)
    return ConwayPoly.of(coeffs.get(i, 0) for i in range(top + 1))
