"""A test-local reference for the flat-torus w2 lemma.

The lemma is a step of the paper's argument: on a torus, w2 of a flat
SO(3)-bundle with Klein four-group holonomy is 1 exactly when the
holonomy is onto the group.  The package takes a double point's weight
as w = lambda mod 2 and never calls this code, so it lives beside the
tests that check it: the four-group as diagonal matrices, torus
representations into it, the mod-2 cohomology ring of the torus, and
w2 both by the cup-product formula and by surjectivity.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class V4Element:
    """A diagonal +/-1 matrix of determinant +1."""

    diag: tuple[int, int, int]

    def __post_init__(self):
        if any(x not in (1, -1) for x in self.diag) or self.diag[0] * self.diag[1] * self.diag[2] != 1:
            raise ValueError(f"not a determinant-one diagonal sign matrix: {self.diag}")

    def __mul__(self, other: "V4Element") -> "V4Element":
        return V4Element(tuple(a * b for a, b in zip(self.diag, other.diag)))

    @property
    def name(self) -> str:
        return {(1, 1, 1): "e", (1, -1, -1): "x1", (-1, 1, -1): "x2", (-1, -1, 1): "x3"}[self.diag]

    def __repr__(self) -> str:
        return f"V4Element({self.name})"


class V4:
    """The four elements, closed under multiplication."""

    E = V4Element((1, 1, 1))
    X1 = V4Element((1, -1, -1))
    X2 = V4Element((-1, 1, -1))
    X3 = V4Element((-1, -1, 1))
    ALL = (E, X1, X2, X3)


@dataclass(frozen=True)
class TorusRep:
    """Images of the two torus fundamental-group generators; any pair works."""

    a: V4Element
    b: V4Element


@dataclass(frozen=True)
class TorusClass:
    """Mod-2 cohomology of the torus on the basis {1, abar, bbar, abar^bbar}."""

    bits: tuple[int, int, int, int]

    def __post_init__(self):
        if any(x not in (0, 1) for x in self.bits):
            raise ValueError("cohomology coordinates are bits")

    @staticmethod
    def one() -> "TorusClass":
        return TorusClass((1, 0, 0, 0))

    @staticmethod
    def degree_one(ca: int, cb: int) -> "TorusClass":
        return TorusClass((0, ca % 2, cb % 2, 0))

    def __add__(self, other: "TorusClass") -> "TorusClass":
        return TorusClass(tuple((x + y) % 2 for x, y in zip(self.bits, other.bits)))

    def cup(self, other: "TorusClass") -> "TorusClass":
        x0, xa, xb, xt = self.bits
        y0, ya, yb, yt = other.bits
        return TorusClass(
            (
                (x0 * y0) % 2,
                (x0 * ya + xa * y0) % 2,
                (x0 * yb + xb * y0) % 2,
                (x0 * yt + xt * y0 + xa * yb + xb * ya) % 2,
            )
        )

    def top(self) -> int:
        return self.bits[3]


def torus_w2_cup(rep: TorusRep) -> int:
    """w2 of the flat rank-3 bundle, via the sum-of-line-bundles cup formula.

    The i-th line bundle pulls back the Moebius class along each circle
    factor on which the i-th diagonal entry of the holonomy is -1, so its
    w1 is a_i abar + b_i bbar with a_i = [rep.a.diag[i] = -1] and b_i
    likewise.  Squares of degree-one classes vanish, so the top term of
    the sum over i < j of w1_i w1_j is the sum over i != j of a_i b_j.
    """
    a = [x == -1 for x in rep.a.diag]
    b = [x == -1 for x in rep.b.diag]
    return (sum(a) * sum(b) - sum(x and y for x, y in zip(a, b))) % 2


def torus_w2_surjectivity(rep: TorusRep) -> int:
    """1 iff the two images generate the whole group."""
    if rep.a == rep.b or V4.E in (rep.a, rep.b):
        return 0
    return 1
