"""Conway polynomial by descending-diagram skein recursion.

The recursion walks components in index order from the least arc of
each; at the first crossing whose first passage goes under, it applies
nabla(L+) - nabla(L-) = z nabla(L0).  Switch moves strictly toward a
descending diagram and smoothing drops a crossing, so the recursion
terminates; descending diagrams are split unlinks.

Results are memoized on the canonical encoding.  The memo is the only
shared state in the package: concurrent readers are fine, insertions
are atomically published dict writes, and losing a race merely
recomputes an identical value.

All coefficients are exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from .diagram import LinkDiagram
from .errors import DiagramError

__all__ = ["ConwayPoly", "conway", "sato_levine_oracle", "clear_memo"]


# Integer polynomials as coefficient tuples: index = power, trailing zeros
# trimmed.  ConwayPoly wraps one; Bareiss elimination in the seifert module
# keeps a bare tuple per matrix entry, where a wrapper object per entry
# would cost time.


def poly_trim(p) -> tuple[int, ...]:
    i = len(p)
    while i and p[i - 1] == 0:
        i -= 1
    return tuple(p[:i])


def poly_add(p, q) -> tuple[int, ...]:
    return poly_trim([a + b for a, b in zip_longest(p, q, fillvalue=0)])


def poly_sub(p, q) -> tuple[int, ...]:
    return poly_trim([a - b for a, b in zip_longest(p, q, fillvalue=0)])


def poly_mul(p, q) -> tuple[int, ...]:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


@dataclass(frozen=True)
class ConwayPoly:
    """Integer polynomial in z; index = power, trailing zeros trimmed."""

    coeffs: tuple[int, ...] = ()

    @staticmethod
    def of(seq) -> "ConwayPoly":
        return ConwayPoly(poly_trim(list(seq)))

    @staticmethod
    def zero() -> "ConwayPoly":
        return ConwayPoly(())

    @staticmethod
    def one() -> "ConwayPoly":
        return ConwayPoly((1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        """The z^k coefficient, 0 beyond the stored sequence."""
        if k < 0:
            raise ValueError("powers of z are nonnegative")
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def shift(self, k: int) -> "ConwayPoly":
        """Multiply by z^k."""
        if self.is_zero():
            return self
        return ConwayPoly((0,) * k + self.coeffs)

    def __add__(self, other: "ConwayPoly") -> "ConwayPoly":
        return ConwayPoly(poly_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "ConwayPoly") -> "ConwayPoly":
        return ConwayPoly(poly_sub(self.coeffs, other.coeffs))

    def __neg__(self) -> "ConwayPoly":
        return ConwayPoly(poly_sub((), self.coeffs))

    def as_list(self) -> list[int]:
        return list(self.coeffs)

    def __str__(self) -> str:
        return str(self.as_list())


_MEMO: dict[str, ConwayPoly] = {}


def clear_memo() -> None:
    _MEMO.clear()


def conway(d: LinkDiagram) -> ConwayPoly:
    """The Conway polynomial of the oriented link presented by d."""
    key = d.canonical_encoding
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    value = _compute(d)
    _MEMO[key] = value
    return value


def _compute(d: LinkDiagram) -> ConwayPoly:
    if d.crossings and d.markers:
        # a crossingless component next to anything else: split link
        return ConwayPoly.zero()
    cid = _first_violation(d) if d.crossings else None
    if cid is None:
        # crossingless or descending diagram: an unknot, or a split unlink
        return ConwayPoly.one() if d.component_count == 1 else ConwayPoly.zero()
    switched = conway(d.switch(cid))
    smoothed = conway(d.smooth(cid)).shift(1)
    return switched + smoothed if d.sign(cid) > 0 else switched - smoothed


def _first_violation(d: LinkDiagram) -> int | None:
    """First crossing (in walk order) whose first passage goes under."""
    seen: set[int] = set()
    for comp in d.components:
        for arc in comp:
            cid, slot = d.head(arc)
            if cid in seen:
                continue
            seen.add(cid)
            if slot == 0:
                return cid
    return None


def sato_levine_oracle(d: LinkDiagram, s_cal: int = 1) -> int:
    """The integer invariant read off the z^3 Conway coefficient.

    ``s_cal`` is the global calibration sign; see the corpus module for
    how it is fixed.  Requires a 2-component diagram of linking number 0.
    """
    if s_cal not in (1, -1):
        raise ValueError("s_cal must be +1 or -1")
    if d.component_count != 2:
        raise DiagramError(f"need exactly 2 components, got {d.component_count}")
    if d.linking_number(1, 2) != 0:
        raise DiagramError("nonzero linking number")
    return s_cal * conway(d).coefficient(3)
