"""What one op of each workload does, and how its answer is checked.

Ops call the package through module attributes looked up at call time
(``seifert.seifert_matrix(...)``, never a name bound at import), so the
traced run's wrappers see every call.  ``op`` returns None when the
program reached no verdict; ``check`` returns a message for a wrong one.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import sato4.bundle as bundle
import sato4.cli as cli
import sato4.conway as skein
import sato4.corpus as corpus
import sato4.diagram as diagram
import sato4.movies as movies
import sato4.search as search
import sato4.seifert as seifert


class BetaBraids:
    """``sato4 beta`` plus verify's dual-oracle check on one link."""

    def __init__(self, root: Path, work: Path):
        self.s_cal = corpus.load_calibration(root / "corpus").s_cal

    def before(self, item: dict) -> None:
        skein.clear_memo()  # each CLI process starts with a cold memo

    def op(self, item: dict):
        d = diagram.parse_pd(item["pd"])
        oracle = skein.sato_levine_oracle(d, self.s_cal)
        z3 = seifert.conway_from_seifert(seifert.seifert_matrix(d)).coefficient(3)
        return oracle, z3

    def check(self, item: dict, out) -> str | None:
        oracle, z3 = out
        if oracle != self.s_cal * z3:
            return f"skein oracle {oracle} != Seifert z^3 {z3}"
        return None


class CertifyScrambled:
    """Search a movie, run it, glue it, and check it against the Seifert oracle."""

    def __init__(self, root: Path, work: Path):
        cal = corpus.load_calibration(root / "corpus")
        self.e_cal, self.s_cal = cal.e_cal, cal.s_cal

    def before(self, item: dict) -> None:
        skein.clear_memo()

    def op(self, item: dict):
        d = diagram.parse_pd(item["pd"])
        script = search.auto_script(d)
        if script is None:
            return None
        movie = movies.run_script(script, d)
        phi = movies.phi(movie, self.e_cal)
        beta = movies.beta_engine(movie, self.e_cal)
        glued = bundle.verify_gluing(movie, movie, self.e_cal).passed
        z3 = seifert.conway_from_seifert(seifert.seifert_matrix(d)).coefficient(3)
        return phi, beta, glued, self.s_cal * z3

    def check(self, item: dict, out) -> str | None:
        phi, beta, glued, oracle = out
        if oracle != item["ref_z3"]:
            return f"Seifert oracle {oracle} != skein z^3 {item['ref_z3']} of the base link"
        if beta != oracle:
            return f"beta_engine {beta} != oracle {oracle}"
        if phi != beta % 4:
            return f"phi {phi} != beta mod 4 ({beta % 4})"
        if not glued:
            return "self-gluing report failed"
        return None


class VerifyCorpus:
    """``sato4 calibrate`` then ``sato4 verify --json`` on a copy of the corpus."""

    def __init__(self, root: Path, work: Path):
        self.corpus = work / "corpus"
        shutil.copytree(root / "corpus", self.corpus)
        self.report = work / "report.json"

    def before(self, item: dict) -> None:
        skein.clear_memo()
        self.report.unlink(missing_ok=True)

    def op(self, item: dict):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            calibrated = cli.main(["calibrate", str(self.corpus)])
            verified = cli.main(["verify", str(self.corpus), "--json", str(self.report)])
        return calibrated, verified

    def check(self, item: dict, out) -> str | None:
        calibrated, verified = out
        if (calibrated, verified) != (0, 0):
            return f"exit codes calibrate={calibrated} verify={verified}"
        report = json.loads(self.report.read_text())
        if not report["ok"]:
            return f"verify failures: {report['failures']}"
        if report["calibration"]["e_cal"] != item["e_cal"]:
            return f"e_cal {report['calibration']['e_cal']} != {item['e_cal']}"
        for name, want in item["phi"].items():
            got = {s["phi"] for s in report["fixtures"][name]["scripts"].values()}
            if got != {want}:
                return f"{name}: phi {sorted(got)} != {want}"
        return None


WORKLOADS = {
    "beta-braids": BetaBraids,
    "certify-scrambled": CertifyScrambled,
    "verify-corpus": VerifyCorpus,
}
