"""Disc movies: validated move sequences ending at the 2-component unlink.

A script is a certificate that the starting link bounds two disjoint
immersed discs: Reidemeister moves are the regular isotopy of the disc
slices, and each self-crossing change is one transverse double point of
a disc.  Every change contributes a record carrying the crossing sign
at change time and the mod-2 linking weight of its smoothing loop with
the other component; phi and the integer engine invariant accumulate
over these records.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rewrites
from .diagram import LinkDiagram, parse_pd
from .errors import DiagramError, MoveError, ScriptError, ScriptSyntaxError

__all__ = [
    "Move",
    "SelfIntersectionRecord",
    "HomotopyScript",
    "MovieResult",
    "apply_move",
    "record_self_crossing_change",
    "smoothing_loop_linking",
    "run_script",
    "phi",
    "beta_engine",
]

# kind -> its JSON fields in output order, as (name, type, required); an
# optional field takes the Move default, and no other field is accepted.
# A list field holds integers and becomes a tuple on the Move.
_FIELDS = {
    "r1_add": (("arc", int, True), ("sign", int, False), ("over_first", bool, False)),
    "r1_remove": (("crossing", int, True),),
    "r2_add": (("arcs", list, True), ("over", bool, False)),
    "r2_remove": (("crossings", list, True),),
    "r3": (("crossings", list, True),),
    "sc": (("crossing", int, True),),
}


@dataclass(frozen=True)
class Move:
    """One step of a movie; the fields used depend on the kind."""

    kind: str
    crossing: int | None = None
    crossings: tuple[int, ...] = ()
    arc: int | None = None
    arcs: tuple[int, int] | None = None
    sign: int = 1
    over_first: bool = True
    over: bool = True

    def __post_init__(self):
        if self.kind not in _FIELDS:
            raise MoveError(f"unknown move kind {self.kind!r}")

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        for name, typ, _ in _FIELDS[self.kind]:
            value = getattr(self, name)
            out[name] = list(value) if typ is list else value
        return out

    @staticmethod
    def from_json(obj) -> "Move":
        if not isinstance(obj, dict):
            raise ScriptSyntaxError(f"a move must be a JSON object, got {obj!r}")
        kind = obj.get("kind")
        if kind not in _FIELDS:
            raise ScriptSyntaxError(f"unknown move kind {kind!r}")
        names = {"kind"} | {name for name, _, _ in _FIELDS[kind]}
        for key in obj:
            if key not in names:
                raise ScriptSyntaxError(f"{kind} move has unknown field {key!r}")
        values = {}
        for name, typ, required in _FIELDS[kind]:
            if name in obj:
                values[name] = _field_value(kind, name, typ, obj[name])
            elif required:
                raise ScriptSyntaxError(f"{kind} move lacks field {name!r}")
        return Move(kind, **values)


def _field_value(kind: str, name: str, typ: type, value):
    """A JSON field value checked against its type; integer lists become tuples."""
    if type(value) is not typ or (typ is list and any(type(v) is not int for v in value)):
        want = "a list of int" if typ is list else typ.__name__
        raise ScriptSyntaxError(f"{kind} move: field {name!r} must be {want}, got {value!r}")
    return tuple(value) if typ is list else value


@dataclass(frozen=True)
class SelfIntersectionRecord:
    """One disc double point: component, sign, loop linking, its parity."""

    component: int
    eps: int
    lam: int

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise MoveError("record sign must be +1 or -1")

    @property
    def w(self) -> int:
        return self.lam % 2

    def to_json(self) -> dict:
        return {"component": self.component, "eps": self.eps, "lambda": self.lam, "w": self.w}


@dataclass(frozen=True)
class HomotopyScript:
    """An initial diagram (as PD text) plus an ordered list of moves."""

    link: str
    moves: tuple[Move, ...]
    name: str = ""

    def to_json(self) -> dict:
        return {"link": self.link, "moves": [m.to_json() for m in self.moves]}

    @staticmethod
    def from_json(obj, name: str = "") -> "HomotopyScript":
        if not (
            isinstance(obj, dict)
            and isinstance(obj.get("link"), str)
            and isinstance(obj.get("moves", []), list)
        ):
            raise ScriptSyntaxError(
                'a script must be a JSON object with a "link" string and a "moves" list'
            )
        return HomotopyScript(
            link=obj["link"],
            moves=tuple(Move.from_json(m) for m in obj.get("moves", ())),
            name=name,
        )

    def initial_diagram(self) -> LinkDiagram:
        return parse_pd(self.link)


@dataclass(frozen=True)
class MovieResult:
    """Outcome of a validated script run."""

    final: LinkDiagram
    records: tuple[SelfIntersectionRecord, ...]
    move_count: int
    initial_encoding: str
    name: str = ""

    def records_json(self) -> list[dict]:
        return [r.to_json() for r in self.records]


def apply_move(d: LinkDiagram, m: Move) -> LinkDiagram:
    """Apply one move, validating its site; linking numbers are preserved."""
    return _apply(d, m)[0]


def _apply(d: LinkDiagram, m: Move) -> tuple[LinkDiagram, SelfIntersectionRecord | None]:
    """The diagram after one move, with the record of a crossing change (None for others)."""
    if m.kind == "sc":
        return record_self_crossing_change(d, m.crossing)
    if m.kind == "r1_add":
        new = rewrites.add_kink(d, m.arc, m.sign, m.over_first)
    elif m.kind == "r1_remove":
        new = rewrites.remove_kink(d, m.crossing)
    elif m.kind == "r2_add":
        if len(m.arcs) != 2:
            raise MoveError("r2_add takes two arc ids")
        new = rewrites.add_r2(d, *m.arcs, m.over)
    elif m.kind == "r2_remove":
        if len(m.crossings) != 2:
            raise MoveError("r2_remove takes two crossing ids")
        new = rewrites.remove_r2(d, *m.crossings)
    else:  # "r3", the last kind; Move rejects unknown kinds
        if len(m.crossings) != 3:
            raise MoveError("r3 takes three crossing ids")
        new = rewrites.slide_r3(d, tuple(m.crossings))
    return new, None


def smoothing_loop_linking(d: LinkDiagram, cid: int) -> tuple[int, int]:
    """Linking numbers of the two smoothing loops with the other component.

    Checked first: a self-crossing, then ``lk0_violation``.  Ordered by
    the loops' smallest identifiers; they sum to lk(1, 2) = 0, so one
    loop gives both.  The smoothing is not built: a walk of the component
    from the crossing's outgoing under arc back to the crossing runs
    along one loop, whose linking number is half the signed count of the
    crossings it meets on the other component.  The first value is that
    number when the loop holds the component's least arc, else minus it.
    """
    if not d.is_self_crossing(cid):
        raise MoveError(
            f"crossing {cid} joins distinct components; "
            "changing it would break disc disjointness"
        )
    if d.lk0_violation:
        raise MoveError(f"crossing change refused: {d.lk0_violation}")
    s = d.strand_components(cid)[0]
    other, least = 3 - s, d.components[s - 1][0]
    (_, arc), _ = d.strands(cid)
    holds_least, total = arc == least, 0
    c, slot = d.head(arc)
    while c != cid:
        if other in d.strand_components(c):
            total += d.sign(c)
        arc = d.crossing(c).arcs[(slot + 2) % 4]
        holds_least = holds_least or arc == least
        c, slot = d.head(arc)
    if total % 2:
        raise DiagramError("odd inter-component crossing sum; diagram is not a closed-curve projection")
    lam = total // 2 if holds_least else -(total // 2)
    return lam, -lam


def record_self_crossing_change(
    d: LinkDiagram, cid: int
) -> tuple[LinkDiagram, SelfIntersectionRecord]:
    """Switch a self-crossing and return the new diagram with its record.

    ``smoothing_loop_linking`` checks the change, and its first value is
    lambda: the linking number, in the diagram current at change time, of
    the smoothing loop with the smallest identifier with the other
    component (the other loop negates lambda and keeps its parity).
    """
    lam, _ = smoothing_loop_linking(d, cid)
    record = SelfIntersectionRecord(component=d.strand_components(cid)[0], eps=d.sign(cid), lam=lam)
    return d.switch(cid), record


def run_script(script: HomotopyScript, diagram: LinkDiagram | None = None) -> MovieResult:
    """Apply every move in order; the movie must end at the 2-component unlink."""
    d = script.initial_diagram() if diagram is None else diagram
    if d.lk0_violation:
        raise ScriptError(f"initial diagram: {d.lk0_violation}")
    initial_encoding = d.canonical_encoding
    records: list[SelfIntersectionRecord] = []
    for idx, m in enumerate(script.moves):
        try:
            d, record = _apply(d, m)
        except (MoveError, DiagramError) as e:
            raise ScriptError(f"move {idx} ({m.kind}) failed: {e}") from e
        if record is not None:
            records.append(record)
    if d.crossings or d.component_count != 2:
        raise ScriptError(
            f"script does not close the discs: final diagram {d.serialize()}"
        )
    return MovieResult(
        final=d,
        records=tuple(records),
        move_count=len(script.moves),
        initial_encoding=initial_encoding,
        name=script.name,
    )


def phi(result: MovieResult, e_cal: int = 1) -> int:
    """The mod-4 obstruction: sum of weight times calibrated sign."""
    if e_cal not in (1, -1):
        raise ValueError("e_cal must be +1 or -1")
    return sum(r.w * e_cal * r.eps for r in result.records) % 4


def beta_engine(result: MovieResult, e_cal: int = 1) -> int:
    """Integer engine invariant: calibrated signed sum of squared loop linkings."""
    if e_cal not in (1, -1):
        raise ValueError("e_cal must be +1 or -1")
    return e_cal * sum(r.eps * r.lam * r.lam for r in result.records)
