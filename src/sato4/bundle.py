"""Flat SO(3)-bundle bookkeeping over the glued 4-manifold model.

Everything the obstruction proof consumes is finite data: an abstract
model of the surgered manifold built from two movies of the same link -
a diagonal intersection form with one +/-1 torus class per disc double
point, the restriction of w2 to each torus class, and p1 = 0 by
flatness.  Each class's w2 is its record's w = lambda mod 2, which the
flat-torus lemma of the paper justifies; the lemma itself is checked by
the tests, not here.  The Pontryagin square of the w2 vector against
the diagonal form is then an exact sum, equal to phi1 - phi2 mod 4 by
construction.  By Dold-Whitney a bundle with this w2 exists exactly
when the square equals p1 mod 4, so with p1 = 0 the one check is that
the square vanishes, which is phi's independence of the script.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import GluingError
from .movies import MovieResult

__all__ = [
    "XLambdaModel",
    "glue_movies",
    "pontryagin_square",
    "GluingReport",
    "verify_gluing",
]


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

    Both movies must start from the same diagram, up to renumbering the
    crossings and order-preserving renaming of the arcs (equal canonical
    encodings).  The second movie's double points enter with reversed
    sign (its four-ball is orientation-reversed in the gluing); weights
    carry over unchanged.
    """
    if m1.initial_encoding != m2.initial_encoding:
        raise GluingError("movies start from different diagrams")
    if e_cal not in (1, -1):
        raise ValueError("e_cal must be +1 or -1")
    records = [(r.w, e_cal * r.eps) for r in m1.records]
    records += [(r.w, -e_cal * r.eps) for r in m2.records]
    return XLambdaModel(tuple(records))


def pontryagin_square(v: Sequence[int], form: Sequence[int]) -> int:
    """Mod-4 square of an integral lift of v against a diagonal form.

    Cross terms vanish on a diagonal basis, so this is the exact integer
    sum of v_p^2 d_p reduced mod 4, a residue in 0..3.
    """
    v = tuple(v)
    form = tuple(form)
    if len(v) != len(form):
        raise ValueError(f"length mismatch: {len(v)} vs {len(form)}")
    if any(x not in (0, 1) for x in v):
        raise ValueError("w2 vector entries are bits")
    if any(d not in (1, -1) for d in form):
        raise ValueError("form entries are +1 or -1")
    return sum(x * x * d for x, d in zip(v, form)) % 4


@dataclass(frozen=True)
class GluingReport:
    """The Pontryagin square of one glued pair of movies, and the glued model."""

    pontryagin: int  # a Z/4 residue, 0..3
    model: XLambdaModel

    @property
    def passed(self) -> bool:
        """Dold-Whitney with p1 = 0: a flat bundle with this w2 exists iff the square vanishes."""
        return self.pontryagin == 0

    def to_json(self) -> dict:
        return {
            "pontryagin_square": self.pontryagin,
            "model": self.model.to_json(),
            "passed": self.passed,
        }


def verify_gluing(m1: MovieResult, m2: MovieResult, e_cal: int = 1) -> GluingReport:
    """Glue two movies of one link and take the Pontryagin square of the model's w2."""
    model = glue_movies(m1, m2, e_cal)
    return GluingReport(pontryagin_square(model.w2_vector, model.form), model)
