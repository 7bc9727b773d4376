"""Flat SO(3)-bundle bookkeeping over the glued 4-manifold model.

Everything the obstruction proof consumes is finite data: the Klein
four-group as diagonal matrices, representations of a torus group into
it, the rank-2 second cohomology of the torus, and an abstract model of
the surgered manifold built from two movies of the same link - a
diagonal intersection form with one +/-1 torus class per disc double
point, the restriction of w2 to each torus class, and p1 = 0 by
flatness.  The Pontryagin square of the w2 vector against the diagonal
form is then an exact sum, and the gluing identity plus the
realizability constraint become machine checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import GluingError
from .movies import MovieResult, phi

__all__ = [
    "V4Element",
    "V4",
    "v4_multiply",
    "TorusRep",
    "TorusClass",
    "torus_w2_cup",
    "torus_w2_surjectivity",
    "Mod4",
    "XLambdaModel",
    "glue_movies",
    "pontryagin_square",
    "dold_whitney_realizable",
    "GluingReport",
    "verify_gluing",
]


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


def v4_multiply(g: V4Element, h: V4Element) -> V4Element:
    return g * h


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


def _line_bundle_w1(rep: TorusRep, i: int) -> TorusClass:
    # pulls back the Moebius class along each circle factor on which the
    # i-th diagonal entry of the holonomy is -1
    return TorusClass.degree_one(
        1 if rep.a.diag[i] == -1 else 0,
        1 if rep.b.diag[i] == -1 else 0,
    )


def torus_w2_cup(rep: TorusRep) -> int:
    """w2 of the flat rank-3 bundle, via the sum-of-line-bundles cup formula."""
    w1 = [_line_bundle_w1(rep, i) for i in range(3)]
    total = TorusClass((0, 0, 0, 0))
    for i in range(3):
        for j in range(i + 1, 3):
            total = total + w1[i].cup(w1[j])
    return total.top()


def torus_w2_surjectivity(rep: TorusRep) -> int:
    """1 iff the two images generate the whole group."""
    if rep.a == rep.b or V4.E in (rep.a, rep.b):
        return 0
    return 1


class Mod4(int):
    """An element of Z/4Z with wrapped ring arithmetic."""

    def __new__(cls, value: int):
        return super().__new__(cls, value % 4)

    def __add__(self, other):
        return Mod4(int(self) + int(other))

    def __radd__(self, other):
        return Mod4(int(other) + int(self))

    def __sub__(self, other):
        return Mod4(int(self) - int(other))

    def __rsub__(self, other):
        return Mod4(int(other) - int(self))

    def __mul__(self, other):
        return Mod4(int(self) * int(other))

    def __rmul__(self, other):
        return Mod4(int(other) * int(self))

    def __neg__(self):
        return Mod4(-int(self))


@dataclass(frozen=True)
class XLambdaModel:
    """Abstract algebraic topology of the surgered glued 4-manifold.

    One record per disc double point: the torus class carries w in {0,1}
    and self-intersection d in {+1,-1}.  The intersection form is
    diagonal on these classes, the first homology has rank 2, and the
    Pontryagin class vanishes because the bundle is flat.
    """

    records: tuple[tuple[int, int], ...]  # (w, d) pairs

    def __post_init__(self):
        for w, d in self.records:
            if w not in (0, 1) or d not in (1, -1):
                raise GluingError(f"bad model record {(w, d)}")

    @property
    def n_plus(self) -> int:
        return sum(1 for _, d in self.records if d == 1)

    @property
    def n_minus(self) -> int:
        return sum(1 for _, d in self.records if d == -1)

    @property
    def b2(self) -> int:
        return len(self.records)

    @property
    def w2_vector(self) -> tuple[int, ...]:
        return tuple(w for w, _ in self.records)

    @property
    def form(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.records)

    def to_json(self) -> dict:
        return {
            "records": [{"w": w, "d": d} for w, d in self.records],
            "n_plus": self.n_plus,
            "n_minus": self.n_minus,
            "p1": 0,  # the bundle is flat
        }


def glue_movies(m1: MovieResult, m2: MovieResult, e_cal: int = 1) -> XLambdaModel:
    """Glue two movies of the same link into the closed-manifold model.

    The second movie's double points enter with reversed sign (its
    four-ball is orientation-reversed in the gluing); weights carry over
    unchanged.
    """
    if m1.initial_encoding != m2.initial_encoding:
        raise GluingError("movies certify different links")
    if e_cal not in (1, -1):
        raise ValueError("e_cal must be +1 or -1")
    records = [(r.w, e_cal * r.eps) for r in m1.records]
    records += [(r.w, -e_cal * r.eps) for r in m2.records]
    return XLambdaModel(tuple(records))


def pontryagin_square(v: Sequence[int], form: Sequence[int]) -> Mod4:
    """Mod-4 square of an integral lift of v against a diagonal form.

    Cross terms vanish on a diagonal basis, so this is the exact integer
    sum of v_p^2 d_p reduced mod 4.
    """
    v = tuple(v)
    form = tuple(form)
    if len(v) != len(form):
        raise ValueError(f"length mismatch: {len(v)} vs {len(form)}")
    if any(x not in (0, 1) for x in v):
        raise ValueError("w2 vector entries are bits")
    if any(d not in (1, -1) for d in form):
        raise ValueError("form entries are +1 or -1")
    return Mod4(sum(x * x * d for x, d in zip(v, form)))


def dold_whitney_realizable(a: int, v: Sequence[int], form: Sequence[int]) -> bool:
    """Whether a bundle with p1-reduction a and w2-vector v exists over the model."""
    return Mod4(a) == pontryagin_square(v, form)


@dataclass(frozen=True)
class GluingReport:
    """Executable content of the gluing identity for one pair of movies."""

    pontryagin: Mod4
    delta_phi: Mod4
    identity_ok: bool      # pontryagin square equals phi1 - phi2
    vanishing_ok: bool     # ... and is zero, p1 being zero by flatness
    realizable_ok: bool    # the zero class with this w2 vector is realizable
    model: XLambdaModel

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.vanishing_ok and self.realizable_ok

    def to_json(self) -> dict:
        return {
            "pontryagin_square": int(self.pontryagin),
            "delta_phi": int(self.delta_phi),
            "identity_ok": self.identity_ok,
            "vanishing_ok": self.vanishing_ok,
            "realizable_ok": self.realizable_ok,
            "model": self.model.to_json(),
            "passed": self.passed,
        }


def verify_gluing(m1: MovieResult, m2: MovieResult, e_cal: int = 1) -> GluingReport:
    """Check the gluing identity and realizability for two movies of one link."""
    model = glue_movies(m1, m2, e_cal)
    p = pontryagin_square(model.w2_vector, model.form)
    delta = Mod4(phi(m1, e_cal) - phi(m2, e_cal))
    return GluingReport(
        pontryagin=p,
        delta_phi=delta,
        identity_ok=p == delta,
        vanishing_ok=p == Mod4(0),
        realizable_ok=dold_whitney_realizable(0, model.w2_vector, model.form),
        model=model,
    )
