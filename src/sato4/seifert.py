"""Seifert matrices and the determinant route to the Conway polynomial.

The matrix is read off the diagram's own Seifert surface: smoothing
every crossing along the orientation leaves disjoint oriented circles,
each capped by a disc, and each crossing joins two discs by a
half-twisted band (Seifert's algorithm; Lickorish, "An Introduction to
Knot Theory", ch. 6).  The surface has rank c - s + 1 for c crossings
and s circles, so the matrix never outgrows the diagram.

The Conway polynomial is then det(x V - x^{-1} V^T) rewritten in
z = x - x^{-1}.  With u = x^2 it is P(u) / x^n for the integer
polynomial P(u) = det(u V - V^T).  P is found exactly from one integer
determinant (fraction-free Bareiss elimination) at u = 2^B, with B
chosen from Hadamard's bound on P over the unit circle so that the
coefficients are the value's balanced base-2^B digits.  They come back
as a ``ConwayPoly``, which ``sato4.conway`` re-exports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb, isqrt, prod

from .diagram import LinkDiagram, orbits
from .errors import SeifertError

__all__ = [
    "ConwayPoly",
    "SeifertMatrix",
    "seifert_circles",
    "seifert_matrix",
    "conway_from_seifert",
]


@dataclass(frozen=True)
class ConwayPoly:
    """Integer polynomial in z; index = power, trailing zeros trimmed."""

    coeffs: tuple[int, ...] = ()

    @staticmethod
    def of(seq) -> "ConwayPoly":
        coeffs = list(seq)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return ConwayPoly(tuple(coeffs))

    @staticmethod
    def zero() -> "ConwayPoly":
        return ConwayPoly(())

    def coefficient(self, k: int) -> int:
        """The z^k coefficient, 0 beyond the stored sequence."""
        if k < 0:
            raise ValueError("powers of z are nonnegative")
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def as_list(self) -> list[int]:
        return list(self.coeffs)

    def __str__(self) -> str:
        return str(self.as_list())


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


def seifert_circles(d: LinkDiagram) -> list[tuple[int, ...]]:
    """The cycles of arcs obtained by smoothing every crossing."""
    glue = dict(pair for c in d.crossings for pair in d.smoothing_pairs(c.id))
    return orbits(glue)


# -- the surface and its cycle basis ---------------------------------------------


def seifert_matrix(d: LinkDiagram) -> SeifertMatrix:
    """Seifert matrix of a connected diagram, on its own Seifert surface.

    The model: each disc is shrunk to a flat collar on the left of its
    circle, normal up, cut open between the circle's last and first
    crossing.  (A clockwise disc lies on the right; flipping it over
    about its edge is an isotopy of the surface.)  The band of crossing x
    sits in a channel on the left of exactly one of its two circles, its
    fold end f(x): the under strand's circle if x is positive, else the
    over strand's.  The band leaves its other circle flat, makes its
    half twist and folds over the collar of f(x) to reach its edge.  No
    face, outer face or nesting enters the rule.

    The basis has one cycle of the Seifert graph per band off a spanning
    tree, so its size is c - s + 1.  A cycle crosses band x toward f(x)
    (d(x) = +1) or away from it (-1).  On each circle it runs along the
    collar from one band's foot to the next, forward or backward in
    travel order (t = +1 or -1).

    V(a, b) = lk(a, b+), counted at the crossings where a passes over
    b+.  Off the bands b+ lies above a, so only a's passages through
    bands count: V(a, b) is the sum over the bands x that a crosses of
    d_a(x) w_b(x), where

    - w_b(x) = d_b(x) (sign(x) - s) / 2 when b crosses x too, from the
      half twist and the fold; s = +1 when b's route on f(x) runs
      forward from x's foot, else -1;
    - w_b(x) = -t when b's route on f(x) passes under x's fold;
    - w_b(x) = 0 otherwise.

    The overall sign is the one the skein relation fixes on 2-component
    links, whose matrices have odd size.
    """
    if not d.connected():
        raise SeifertError("diagram is not connected; present a connected diagram of the link")
    if not d.crossings:
        return SeifertMatrix(())
    circles = seifert_circles(d)
    circle_of = {arc: i for i, cyc in enumerate(circles) for arc in cyc}
    order = [[d.head(arc)[0] for arc in cyc] for cyc in circles]
    pos = [{x: k for k, x in enumerate(feet)} for feet in order]
    ends = {}  # band -> (flat end, fold end)
    for c in d.crossings:
        (ui, _), (oi, _) = d.strands(c.id)
        under, over = circle_of[ui], circle_of[oi]
        ends[c.id] = (over, under) if d.sign(c.id) > 0 else (under, over)
    cycles = _cycle_basis(order, ends)
    # weights[x]: (cycle b, w_b(x)) for every b with w_b(x) possibly nonzero
    weights: dict[int, list[tuple[int, int]]] = {x: [] for x in ends}
    for b, visits in enumerate(cycles):
        for circle, enter, leave in visits:
            i, j = pos[circle][enter], pos[circle][leave]
            t = 1 if j > i else -1
            for x in order[circle][min(i, j) + 1:max(i, j)]:
                if ends[x][1] == circle:
                    weights[x].append((b, -t))
            if ends[enter][1] == circle:  # d = +1, s = t
                weights[enter].append((b, (d.sign(enter) - t) // 2))
            if ends[leave][1] == circle:  # d = -1, s = -t
                weights[leave].append((b, -(d.sign(leave) + t) // 2))
    V = [[0] * len(cycles) for _ in cycles]
    for a, visits in enumerate(cycles):
        for circle, enter, _ in visits:
            d_a = 1 if ends[enter][1] == circle else -1
            for b, w in weights[enter]:
                V[a][b] += d_a * w
    return SeifertMatrix(tuple(tuple(row) for row in V))


def _cycle_basis(
    order: list[list[int]], ends: dict[int, tuple[int, int]]
) -> list[list[tuple[int, int, int]]]:
    """One cycle of the Seifert graph per band off a BFS spanning tree.

    A cycle is a list of visits (circle, band entered by, band left by).
    Bands are taken in travel order along their lower circle.  A band
    next to an earlier one between the same two circles closes the
    2-cycle through both, which keeps the matrix sparse on braid-like
    diagrams; any other closes its cycle through the tree.
    """
    parent: dict[int, tuple[int, int] | None] = {0: None}  # circle -> (band, parent circle)
    queue = deque([0])
    while queue:
        c = queue.popleft()
        for x in order[c]:
            nb = sum(ends[x]) - c  # the band's other circle
            if nb not in parent:
                parent[nb] = (x, c)
                queue.append(nb)

    def climb(c: int) -> list[int]:
        chain = [c]
        while parent[chain[-1]]:
            chain.append(parent[chain[-1]][1])
        return chain

    def tree_path(a: int, b: int) -> list[tuple[int, int]]:
        up, down = climb(a), climb(b)
        while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
            up.pop()
            down.pop()
        return [parent[c] for c in up[:-1]] + [(parent[c][0], c) for c in reversed(down[:-1])]

    tree = {p[0] for p in parent.values() if p}
    cycles = []
    for c, feet in enumerate(order):
        last: dict[int, int] = {}  # higher circle -> the band to it last met along c
        for x in feet:
            flat, fold = ends[x]
            other = flat + fold - c
            if other < c:
                continue
            prev = last.get(other)
            last[other] = x
            if x in tree:
                continue
            steps = [(x, fold)] + ([(prev, flat)] if prev is not None else tree_path(fold, flat))
            cycles.append([(to, band, steps[(k + 1) % len(steps)][0]) for k, (band, to) in enumerate(steps)])
    return cycles


# -- exact determinant route -------------------------------------------------------


def _det_int(M: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(M)
    if n == 0:
        return 1
    M = [row[:] for row in M]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not M[k][k]:
            r = next((r for r in range(k + 1, n) if M[r][k]), None)
            if r is None:
                return 0
            M[k], M[r] = M[r], M[k]
            sign = -sign
        pivot, row_k = M[k][k], M[k]
        for row in M[k + 1:]:
            a = row[k]
            for j in range(k + 1, n):
                row[j], rem = divmod(row[j] * pivot - a * row_k[j], prev)
                if rem:
                    raise SeifertError("non-exact division")
        prev = pivot
    return sign * M[n - 1][n - 1]


def conway_from_seifert(V: SeifertMatrix) -> ConwayPoly:
    """det(x V - x^{-1} V^T) rewritten as a polynomial in z = x - x^{-1}.

    With u = x^2 the determinant is P(u) / x^n, P(u) = det(u V - V^T) of
    degree at most n.  P is evaluated once, at u = N = 2^B, and its
    coefficients are read back as balanced base-N digits.  On |u| = 1
    every entry has |u V_ij - V_ji| <= |V_ij| + |V_ji|, so by Hadamard's
    inequality |P(u)| <= H = prod_i sqrt(sum_j (|V_ij| + |V_ji|)^2), and
    each coefficient, a mean of P over the unit circle, is at most H.
    N > 2H makes the digits unique, so the result is exact.
    """
    n, rows = V.size, V.rows
    H = isqrt(prod(sum((abs(rows[i][j]) + abs(rows[j][i])) ** 2 for j in range(n)) for i in range(n))) + 1
    B = (2 * H).bit_length()
    N = 1 << B
    D = _det_int([[rows[i][j] * N - rows[j][i] for j in range(n)] for i in range(n)])
    laurent: dict[int, int] = {}
    for e in range(n + 1):
        c = D & (N - 1)
        if c >= N >> 1:
            c -= N
        laurent[2 * e - n] = c
        D = (D - c) >> B
    if D:
        raise SeifertError("determinant has degree above the matrix size")
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
