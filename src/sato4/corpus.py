"""Fixture corpus loading, sign calibration, and corpus-wide verification.

Corpus layout: ``<dir>/<name>/link.pd`` (PD text, ``#`` comments allowed),
``<dir>/<name>/meta.json`` declaring the component count and linking
number, and optional ``<dir>/<name>/scripts/*.json`` unlinking movies.
Calibration persists to ``<dir>/calibration.json``.

Two global signs relate the engine to the oracle: the oracle sign s_cal
multiplies the z^3 Conway coefficient and the engine sign e_cal fixes
the four-dimensional intersection sign of a crossing change.  Only
their product is observable (flipping both changes nothing anywhere),
so calibration normalizes s_cal = +1 and solves for the unique e_cal
making the engine equal the oracle on every scripted fixture.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

from .bundle import verify_gluing
from .conway import conway, sato_levine_oracle
from .diagram import LinkDiagram, parse_pd
from .errors import CalibrationError, CorpusError, GluingError, ScriptError
from .movies import HomotopyScript, MovieResult, beta_engine, phi, run_script
from .seifert import conway_from_seifert, seifert_matrix

__all__ = [
    "CorpusEntry",
    "Calibration",
    "load_corpus",
    "load_entry",
    "calibrate",
    "calibrate_movies",
    "save_calibration",
    "load_calibration",
    "verify_corpus",
    "CALIBRATION_FILE",
]

CALIBRATION_FILE = "calibration.json"
CALIBRATION_VERSION = 1


@dataclass(frozen=True)
class CorpusEntry:
    """One fixture: a named diagram with declared invariants and scripts."""

    name: str
    pd_text: str
    diagram: LinkDiagram
    components: int
    linking_number: int | None
    scripts: tuple[HomotopyScript, ...]


@dataclass(frozen=True)
class Calibration:
    """The two global signs; s_cal is +1 by normalization."""

    e_cal: int
    s_cal: int

    def __post_init__(self):
        if self.e_cal not in (1, -1) or self.s_cal not in (1, -1):
            raise CalibrationError("calibration signs must be +1 or -1")

    def to_json(self) -> dict:
        return {
            "e_cal": self.e_cal,
            "s_cal": self.s_cal,
            "version": CALIBRATION_VERSION,
            "normalization": "s_cal fixed to +1; e_cal solved from engine/oracle agreement",
        }

    @staticmethod
    def from_json(obj: dict) -> "Calibration":
        return Calibration(e_cal=int(obj["e_cal"]), s_cal=int(obj["s_cal"]))


def load_entry(path: Path) -> CorpusEntry:
    path = Path(path)
    pd_file = path / "link.pd"
    meta_file = path / "meta.json"
    if not pd_file.is_file() or not meta_file.is_file():
        raise CorpusError(f"{path}: need link.pd and meta.json")
    pd_text = pd_file.read_text()
    diagram = parse_pd(pd_text)
    meta = json.loads(meta_file.read_text())
    components = int(meta["components"])
    lk = meta.get("linking_number")
    if diagram.component_count != components:
        raise CorpusError(
            f"{path.name}: declares {components} components, diagram has {diagram.component_count}"
        )
    if lk is not None:
        lk = int(lk)
        if diagram.component_count != 2:
            raise CorpusError(f"{path.name}: linking number declared for a non-2-component link")
        if diagram.linking_number(1, 2) != lk:
            raise CorpusError(
                f"{path.name}: declares linking number {lk}, "
                f"computed {diagram.linking_number(1, 2)}"
            )
    scripts = []
    script_dir = path / "scripts"
    if script_dir.is_dir():
        for f in sorted(script_dir.glob("*.json")):
            scripts.append(HomotopyScript.from_json(json.loads(f.read_text()), name=f.stem))
    return CorpusEntry(
        name=path.name,
        pd_text=pd_text.strip(),
        diagram=diagram,
        components=components,
        linking_number=lk,
        scripts=tuple(scripts),
    )


def load_corpus(root: Path) -> list[CorpusEntry]:
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"no corpus directory {root}")
    entries = []
    for child in sorted(root.iterdir()):
        if child.is_dir() and (child / "link.pd").is_file():
            entries.append(load_entry(child))
    if not entries:
        raise CorpusError(f"corpus {root} contains no fixtures")
    return entries


def _scripted_movies(entries) -> list[tuple[CorpusEntry, MovieResult]]:
    out = []
    for entry in entries:
        for script in entry.scripts:
            out.append((entry, run_script(script)))
    return out


def calibrate_movies(data: list[tuple[int, int]]) -> Calibration:
    """Solve for the signs from (oracle-at-s=+1, raw-engine) pairs.

    Raises when no sign choice reconciles every pair (corrupt data) or
    when every pair is (0, 0) so nothing pins the engine sign down.
    """
    candidates = []
    for e in (1, -1):
        for s in (1, -1):
            if all(e * raw == s * oracle for oracle, raw in data):
                candidates.append(Calibration(e_cal=e, s_cal=s))
    if not candidates:
        raise CalibrationError(
            "no consistent sign choice; the engine disagrees with the oracle beyond a global sign"
        )
    if len(candidates) == 4:
        raise CalibrationError(
            "ambiguous calibration: every scripted fixture has invariant 0; "
            "add a fixture with a nonzero invariant"
        )
    normalized = [c for c in candidates if c.s_cal == 1]
    if len(normalized) != 1:
        raise CalibrationError("calibration did not reduce to a unique normalized pair")
    return normalized[0]


def calibrate(root: Path) -> Calibration:
    """Calibrate against every scripted fixture in the corpus and persist."""
    entries = load_corpus(root)
    movies = _scripted_movies(entries)
    if not movies:
        raise CalibrationError("no scripted fixtures to calibrate against")
    data = []
    for entry, movie in movies:
        oracle = sato_levine_oracle(entry.diagram, 1)
        raw = beta_engine(movie, 1)
        data.append((oracle, raw))
    cal = calibrate_movies(data)
    save_calibration(root, cal)
    return cal


def save_calibration(root: Path, cal: Calibration) -> Path:
    out = Path(root) / CALIBRATION_FILE
    out.write_text(json.dumps(cal.to_json(), indent=2, sort_keys=True) + "\n")
    return out


def load_calibration(root: Path) -> Calibration:
    f = Path(root) / CALIBRATION_FILE
    if not f.is_file():
        raise CalibrationError(f"no calibration file {f}; run calibrate first")
    return Calibration.from_json(json.loads(f.read_text()))


def verify_corpus(root: Path, cal: Calibration | None = None) -> dict:
    """Run every corpus check; the report's ok flag mirrors the exit code.

    Per fixture: declared invariants, Conway coefficients, the skein
    versus Seifert-matrix cross-check on connected diagrams, the oracle,
    phi per script, script independence, engine/oracle agreement, and all
    pairwise gluing reports (a lone script glues against itself).
    """
    root = Path(root)
    if cal is None:
        cal = load_calibration(root)
    entries = load_corpus(root)
    failures: list[str] = []
    fixtures: dict[str, dict] = {}
    for entry in entries:
        info: dict = {"components": entry.components}
        d = entry.diagram
        nabla = conway(d)
        info["conway"] = nabla.as_list()
        if entry.components == 2:
            info["linking_number"] = d.linking_number(1, 2)
        if d.connected():
            dual_ok = conway_from_seifert(seifert_matrix(d)) == nabla
            info["seifert_oracle_agrees"] = dual_ok
            if not dual_ok:
                failures.append(f"{entry.name}: Seifert-matrix Conway disagrees with skein")
        oracle = None
        if entry.components == 2 and info.get("linking_number") == 0:
            oracle = sato_levine_oracle(d, cal.s_cal)
            info["oracle"] = oracle
            info["verdict"] = "not slice" if oracle % 4 else ""
        movies: list[MovieResult] = []
        info["scripts"] = {}
        for script in entry.scripts:
            try:
                movie = run_script(script)
            except ScriptError as e:
                failures.append(f"{entry.name}/{script.name}: {e}")
                continue
            movies.append(movie)
            sphi = phi(movie, cal.e_cal)
            sbeta = beta_engine(movie, cal.e_cal)
            srec = {"phi": sphi, "beta_engine": sbeta, "records": movie.records_json()}
            info["scripts"][script.name] = srec
            if oracle is None:
                failures.append(f"{entry.name}/{script.name}: scripted fixture must have linking number 0")
                continue
            if sphi != oracle % 4:
                failures.append(
                    f"{entry.name}/{script.name}: phi {sphi} != oracle mod 4 {oracle % 4}"
                )
            if sbeta != oracle:
                failures.append(f"{entry.name}/{script.name}: engine {sbeta} != oracle {oracle}")
        phis = [s["phi"] for s in info["scripts"].values()]
        if phis:
            info["script_independent"] = len(set(phis)) == 1
            if not info["script_independent"]:
                failures.append(f"{entry.name}: phi differs between scripts: {phis}")
        gluing = []
        if len(movies) == 1:
            pairs = [(movies[0], movies[0])]
            info["gluing_note"] = "self-pair only"
        else:
            pairs = list(itertools.combinations(movies, 2))
        for m1, m2 in pairs:
            try:
                report = verify_gluing(m1, m2, cal.e_cal)
            except GluingError as e:
                failures.append(f"{entry.name}: gluing {m1.name}/{m2.name}: {e}")
                continue
            gluing.append({"pair": [m1.name, m2.name], **report.to_json()})
            if not report.passed:
                failures.append(f"{entry.name}: gluing report {m1.name}/{m2.name} failed")
        if gluing:
            info["gluing"] = gluing
        fixtures[entry.name] = info
    return {
        "calibration": cal.to_json(),
        "fixtures": fixtures,
        "failures": failures,
        "ok": not failures,
    }
