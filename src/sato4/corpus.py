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

``verify_corpus`` merges three checks into each fixture's report entry,
each writing its keys where they apply.  Polynomials (the Seifert route
against one smoothing sum, every coefficient up to one past the degree
and at least z^3, from which the oracle is read) writes ``components``,
``conway``, ``linking_number``, ``seifert_oracle_agrees``, ``oracle``
and ``verdict``.  Movies (phi and beta_engine of each script's movie,
beta_engine against the oracle) writes ``scripts``.  Gluing writes
``gluing``, one report for each pair of movies, whose verdicts together
say whether phi is independent of the script; a fixture with fewer than
two movies has no pair and gets no key.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

from .bundle import verify_gluing
from .conway import conway, conway_coefficients, sato_levine_oracle
from .diagram import LinkDiagram, parse_pd, tokenize_pd
from .errors import CalibrationError, CorpusError, GluingError, ScriptError
from .movies import HomotopyScript, MovieResult, beta_engine, phi, run_script

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
    """One fixture: a named diagram, checked against its declared invariants, and scripts."""

    name: str
    diagram: LinkDiagram
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
    def from_json(obj) -> "Calibration":
        keys = ("e_cal", "s_cal")  # JSON integers: types compared exactly, so bools fail
        if not isinstance(obj, dict) or any(type(obj.get(k)) is not int for k in keys):
            raise CalibrationError('calibration needs integer "e_cal" and "s_cal" in a JSON object')
        return Calibration(e_cal=obj["e_cal"], s_cal=obj["s_cal"])


def load_entry(path: Path) -> CorpusEntry:
    path = Path(path)
    pd_file = path / "link.pd"
    meta_file = path / "meta.json"
    if not pd_file.is_file() or not meta_file.is_file():
        raise CorpusError(f"{path}: need link.pd and meta.json")
    diagram = parse_pd(pd_file.read_text())
    meta = json.loads(meta_file.read_text())
    if not (
        isinstance(meta, dict)
        and type(meta.get("components")) is int
        and type(meta.get("linking_number")) in (int, type(None))
    ):
        raise CorpusError(
            f'{path.name}: meta.json must be an object with an integer "components" '
            'and an integer or null "linking_number"'
        )
    components = meta["components"]
    lk = meta.get("linking_number")
    if diagram.component_count != components:
        raise CorpusError(
            f"{path.name}: declares {components} components, diagram has {diagram.component_count}"
        )
    if lk is not None:
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
            script = HomotopyScript.from_json(json.loads(f.read_text()), name=f.stem)
            quads, markers = tokenize_pd(script.link)
            if quads != [c.arcs for c in diagram.crossings] or sorted(markers) != list(diagram.markers):
                raise CorpusError(f"{path.name}/{f.name}: the script does not start from link.pd")
            scripts.append(script)
    return CorpusEntry(name=path.name, diagram=diagram, scripts=tuple(scripts))


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


def calibrate_movies(data: list[tuple[int, int]]) -> Calibration:
    """Solve for the signs from (oracle-at-s=+1, raw-engine) pairs.

    Only e_cal * s_cal is observable, so with s_cal = +1 this solves for
    e_cal.  Raises when neither sign reconciles every pair (corrupt data)
    or when both do, every pair being (0, 0), so nothing pins it down.
    """
    fits = [e for e in (1, -1) if all(e * raw == oracle for oracle, raw in data)]
    if not fits:
        raise CalibrationError(
            "no consistent sign choice; the engine disagrees with the oracle beyond a global sign"
        )
    if len(fits) == 2:
        raise CalibrationError(
            "ambiguous calibration: every scripted fixture has invariant 0; "
            "add a fixture with a nonzero invariant"
        )
    return Calibration(e_cal=fits[0], s_cal=1)


def calibrate(root: Path) -> Calibration:
    """Calibrate against every scripted fixture in the corpus and persist."""
    data = []
    for entry in load_corpus(root):
        movies = [run_script(script, entry.diagram) for script in entry.scripts]
        if movies:  # a script runs only at lk 0, so a script's error comes before the oracle's
            oracle = sato_levine_oracle(entry.diagram, 1)
            data += [(oracle, beta_engine(movie, 1)) for movie in movies]
    if not data:
        raise CalibrationError("no scripted fixtures to calibrate against")
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


def _check_polynomials(entry: CorpusEntry, s_cal: int) -> tuple[dict, list[str]]:
    """The Seifert route against one smoothing sum, z^0 to max(degree + 1, 3); the oracle and verdict."""
    d = entry.diagram
    nabla = conway(d)
    sums = conway_coefficients(d, max(len(nabla.coeffs), 3))
    info: dict = {"components": d.component_count, "conway": nabla.as_list()}
    failures = []
    if d.component_count == 2:
        info["linking_number"] = d.linking_number(1, 2)
    if d.connected():
        info["seifert_oracle_agrees"] = sums == [nabla.coefficient(k) for k in range(len(sums))]
        if not info["seifert_oracle_agrees"]:
            failures.append(f"{entry.name}: Seifert-matrix Conway disagrees with smoothing sum")
    if d.lk0_violation is None:
        info["oracle"] = oracle = s_cal * sums[3]
        info["verdict"] = "not slice" if oracle % 4 else ""
    return info, failures


def _check_movies(entry: CorpusEntry, e_cal: int, oracle: int | None) -> tuple[dict, list, list]:
    """phi and beta_engine of each script's movie, and beta_engine against the oracle.

    phi is beta_engine mod 4 (lambda squared is lambda mod 2), so one check covers both.
    A script runs only at lk 0, where ``oracle`` is set.  The movies are returned too.
    """
    failures = []
    movies = []
    for script in entry.scripts:
        try:
            movies.append(run_script(script, entry.diagram))
        except ScriptError as e:
            failures.append(f"{entry.name}/{script.name}: {e}")
    scripts = {}
    for movie in movies:
        sbeta = beta_engine(movie, e_cal)
        scripts[movie.name] = {"phi": phi(movie, e_cal), "beta_engine": sbeta, "records": movie.records_json()}
        if sbeta != oracle:
            failures.append(f"{entry.name}/{movie.name}: engine {sbeta} != oracle {oracle}")
    return {"scripts": scripts}, failures, movies


def _check_gluing(name: str, movies: list[MovieResult], e_cal: int) -> tuple[dict, list[str]]:
    """The gluing report of each pair of movies; fewer than two movies give no report."""
    failures = []
    gluing = []
    for m1, m2 in itertools.combinations(movies, 2):
        try:
            report = verify_gluing(m1, m2, e_cal)
        except GluingError as e:
            failures.append(f"{name}: gluing {m1.name}/{m2.name}: {e}")
            continue
        gluing.append({"pair": [m1.name, m2.name], **report.to_json()})
        if not report.passed:
            failures.append(f"{name}: gluing report {m1.name}/{m2.name} failed")
    return ({"gluing": gluing} if gluing else {}), failures


def verify_corpus(root: Path) -> dict:
    """Run every check on every fixture under ``calibration.json``; ok mirrors the exit code."""
    root = Path(root)
    cal = load_calibration(root)
    failures: list[str] = []
    fixtures: dict[str, dict] = {}
    for entry in load_corpus(root):
        info, failed = _check_polynomials(entry, cal.s_cal)
        movie_info, movie_failed, movies = _check_movies(entry, cal.e_cal, info.get("oracle"))
        gluing_info, gluing_failed = _check_gluing(entry.name, movies, cal.e_cal)
        fixtures[entry.name] = {**info, **movie_info, **gluing_info}
        failures += failed + movie_failed + gluing_failed
    return {
        "calibration": cal.to_json(),
        "fixtures": fixtures,
        "failures": failures,
        "ok": not failures,
    }
