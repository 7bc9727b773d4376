"""Corpus loading, calibration, verification, and the command line."""

import itertools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import sato4.corpus
from sato4.braids import braid_closure
from sato4.cli import main
from sato4.corpus import (
    Calibration,
    CorpusEntry,
    _check_polynomials,
    calibrate,
    calibrate_movies,
    load_calibration,
    load_corpus,
    load_entry,
    save_calibration,
    verify_corpus,
)
from sato4.errors import CalibrationError, CorpusError, ScriptSyntaxError

GOLDEN = Path(__file__).resolve().parent / "golden"
BROKEN_MOVE = "move 2 (r2_remove) failed: crossings 1,5 do not cobound a bigon"


def test_corpus_loads_with_declared_invariants(corpus, corpus_dir):
    names = {e.name for e in corpus}
    assert {"whitehead", "whitehead_mirror", "hopf", "unlink2", "trefoil"} <= names
    for entry in corpus:
        meta = json.loads((corpus_dir / entry.name / "meta.json").read_text())
        assert entry.diagram.component_count == meta["components"]


def test_corpus_rejects_wrong_declaration(tmp_path, corpus_dir):
    shutil.copytree(corpus_dir / "hopf", tmp_path / "hopf")
    meta = json.loads((tmp_path / "hopf" / "meta.json").read_text())
    meta["linking_number"] = 5
    (tmp_path / "hopf" / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(CorpusError):
        load_corpus(tmp_path)


def test_calibration_unique_after_normalization(corpus_dir, tmp_path):
    work = tmp_path / "corpus"
    shutil.copytree(corpus_dir, work)
    (work / "calibration.json").unlink(missing_ok=True)
    cal = calibrate(work)
    assert (cal.e_cal, cal.s_cal) == (-1, 1)
    assert load_calibration(work) == cal


def test_calibrate_computes_one_oracle_per_scripted_fixture(corpus_dir, corpus, tmp_path, monkeypatch):
    seen = []
    real = sato4.corpus.sato_levine_oracle
    monkeypatch.setattr(sato4.corpus, "sato_levine_oracle", lambda d, s: seen.append(d) or real(d, s))
    calibrate(shutil.copytree(corpus_dir, tmp_path / "corpus"))
    scripted = [e.diagram for e in corpus if e.scripts]
    assert sum(len(e.scripts) > 1 for e in corpus) >= 2  # whitehead and double_clasp
    assert seen == scripted


def test_calibrate_reports_a_script_at_nonzero_linking_number_before_the_oracle(tmp_path, corpus_dir, capsys):
    # the oracle would raise the bare lk-0 violation; the script's own error comes first
    work = shutil.copytree(corpus_dir / "hopf", tmp_path / "hopf")
    (work / "scripts").mkdir()
    link = (work / "link.pd").read_text().splitlines()[-1]
    (work / "scripts" / "a.json").write_text(json.dumps({"link": link, "moves": []}))
    assert main(["calibrate", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: initial diagram: nonzero linking number\n"


def test_calibrate_movies_sign_pair_structure():
    # engine and oracle match only up to one global sign: of the four sign
    # pairs exactly two agree, and normalization keeps one
    data = [(-1, 1), (1, -1), (0, 0)]
    cal = calibrate_movies(data)
    assert cal == Calibration(e_cal=-1, s_cal=1)
    raw_pairs = [
        (e, s)
        for e in (1, -1)
        for s in (1, -1)
        if all(e * raw == s * oracle for oracle, raw in data)
    ]
    assert sorted(raw_pairs) == [(-1, 1), (1, -1)]


def _calibrate_by_four_candidates(data):
    """The reference: every (e_cal, s_cal) pair that fits, then s_cal = +1."""
    fits = [(e, s) for e in (1, -1) for s in (1, -1) if all(e * r == s * o for o, r in data)]
    if not fits:
        return "no consistent"
    if len(fits) == 4:
        return "ambiguous"
    (e,) = [e for e, s in fits if s == 1]
    return Calibration(e_cal=e, s_cal=1)


def test_calibrate_movies_matches_four_candidate_search():
    pairs = list(itertools.product(range(-2, 3), repeat=2))
    for n in range(3):
        for data in itertools.product(pairs, repeat=n):
            want = _calibrate_by_four_candidates(data)
            if isinstance(want, Calibration):
                assert calibrate_movies(list(data)) == want, data
            else:
                with pytest.raises(CalibrationError, match=want):
                    calibrate_movies(list(data))


def test_calibrate_ambiguous_when_all_zero():
    with pytest.raises(CalibrationError, match="ambiguous"):
        calibrate_movies([(0, 0), (0, 0)])


def test_calibrate_ambiguous_corpus_of_unlinks(tmp_path, corpus_dir):
    shutil.copytree(corpus_dir / "unlink2", tmp_path / "unlink2")
    with pytest.raises(CalibrationError, match="ambiguous"):
        calibrate(tmp_path)


def test_calibrate_detects_corrupted_record():
    # a lambda corrupted in one movie breaks every global sign choice
    with pytest.raises(CalibrationError, match="no consistent"):
        calibrate_movies([(-1, 1), (1, 1)])
    with pytest.raises(CalibrationError, match="no consistent"):
        calibrate_movies([(-1, 4)])


def test_verify_corpus_ok(corpus_dir):
    report = verify_corpus(corpus_dir)
    assert report["ok"]
    assert not report["failures"]
    wh = report["fixtures"]["whitehead"]
    assert wh["oracle"] in (1, -1)
    assert wh["verdict"] == "not slice"
    assert all(g["passed"] for g in wh["gluing"])
    for name in ("unlink2", "whitehead_mirror"):  # one script each: no pair to glue
        assert len(report["fixtures"][name]["scripts"]) == 1
        assert "gluing" not in report["fixtures"][name]


def test_verify_reports_a_phi_disagreement_once_for_the_pair(tmp_path, corpus_dir, monkeypatch):
    work = tmp_path / "corpus"
    shutil.copytree(corpus_dir, work)
    whitehead = load_entry(work / "whitehead").diagram.canonical_encoding
    real = sato4.corpus.run_script

    def corrupted(script, diagram):
        movie = real(script, diagram)
        if script.name != "b" or movie.initial_encoding != whitehead:
            return movie
        first = replace(movie.records[0], lam=movie.records[0].lam + 1)  # flips its w, so phi
        return replace(movie, records=(first,) + movie.records[1:])

    monkeypatch.setattr(sato4.corpus, "run_script", corrupted)
    report = verify_corpus(work)
    assert report["ok"] is False
    assert [f for f in report["failures"] if not f.startswith("whitehead/b: ")] == [
        "whitehead: gluing report a/b failed"
    ]
    assert [g["passed"] for g in report["fixtures"]["whitehead"]["gluing"]] == [False]


def test_verify_reports_one_line_per_wrong_movie(corpus_dir, monkeypatch):
    # phi is beta_engine mod 4, so the engine line alone names a movie whose lambda is off
    real = sato4.corpus.run_script

    def corrupted(script, diagram):
        movie = real(script, diagram)
        if script.name != "b":
            return movie
        first = replace(movie.records[0], lam=movie.records[0].lam + 1)  # flips its w, so phi
        return replace(movie, records=(first,) + movie.records[1:])

    monkeypatch.setattr(sato4.corpus, "run_script", corrupted)
    failures = verify_corpus(corpus_dir)["failures"]
    for name in ("whitehead", "double_clasp"):
        assert len([f for f in failures if f.startswith(f"{name}/b: ")]) == 1, failures


def _sum_off_at(monkeypatch, power):
    """Make verify's smoothing sum one too large at z^power."""
    real = sato4.corpus.conway_coefficients
    monkeypatch.setattr(
        sato4.corpus, "conway_coefficients", lambda d, k: [c + (j == power) for j, c in enumerate(real(d, k))]
    )


def test_verify_flags_smoothing_sum_disagreeing_with_seifert_route(corpus_dir, by_name, monkeypatch):
    # the one polynomial comparison covers z^3, so a wrong z^3 gives one line, not two
    _sum_off_at(monkeypatch, 3)
    report = verify_corpus(corpus_dir)
    assert report["ok"] is False
    for name in ("whitehead", "whitehead_mirror", "double_clasp"):
        d = by_name[name].diagram
        assert d.connected() and d.lk0_violation is None
        assert report["failures"].count(f"{name}: Seifert-matrix Conway disagrees with smoothing sum") == 1
    assert not any("z^3" in failure for failure in report["failures"])


def test_verify_checks_every_coefficient_against_the_smoothing_sum(corpus_dir, corpus, monkeypatch):
    # off at z^1 only, so the oracle read at z^3 still agrees
    _sum_off_at(monkeypatch, 1)
    report = verify_corpus(corpus_dir)
    assert report["ok"] is False
    connected = [e.name for e in corpus if e.diagram.connected()]
    assert {"hopf", "whitehead", "double_clasp"} <= set(connected)
    for name in connected:
        assert report["fixtures"][name]["seifert_oracle_agrees"] is False
        assert f"{name}: Seifert-matrix Conway disagrees with smoothing sum" in report["failures"]
    assert not any("z^3" in failure for failure in report["failures"])


def test_verify_compares_z3_when_the_polynomial_is_zero(tmp_path, corpus_dir, monkeypatch):
    # an R2 unlink: connected, lk 0 and nabla = 0, so one past the degree is only z^0
    fixture = tmp_path / "r2_unlink"
    fixture.mkdir()
    (fixture / "link.pd").write_text("PD[X[1,3,2,4], X[2,3,1,4]]\n")
    (fixture / "meta.json").write_text(json.dumps({"components": 2, "linking_number": 0}))
    shutil.copyfile(corpus_dir / "calibration.json", tmp_path / "calibration.json")
    info = verify_corpus(tmp_path)["fixtures"]["r2_unlink"]
    assert (info["conway"], info["seifert_oracle_agrees"], info["oracle"]) == ([], True, 0)
    _sum_off_at(monkeypatch, 3)
    report = verify_corpus(tmp_path)
    assert report["fixtures"]["r2_unlink"]["seifert_oracle_agrees"] is False
    assert report["failures"] == ["r2_unlink: Seifert-matrix Conway disagrees with smoothing sum"]


def test_verify_walks_the_smoothing_sum_once_per_fixture(corpus_dir, corpus, monkeypatch):
    seen = []
    real = sato4.corpus.conway_coefficients
    monkeypatch.setattr(sato4.corpus, "conway_coefficients", lambda d, k: seen.append(d) or real(d, k))
    assert verify_corpus(corpus_dir)["ok"]
    assert seen == [e.diagram for e in corpus]


def test_polynomial_check_on_a_24_crossing_closure():
    # degree 22: the one walk is cut at 23 smoothings
    d = braid_closure([1, 2] * 12, 3)
    info, failures = _check_polynomials(CorpusEntry("closure", d, ()), 1)
    assert len(info["conway"]) == 23
    assert info["seifert_oracle_agrees"] is True and failures == []


def test_verify_is_deterministic(corpus_dir):
    a = json.dumps(verify_corpus(corpus_dir), sort_keys=True)
    b = json.dumps(verify_corpus(corpus_dir), sort_keys=True)
    assert a == b


def test_cli_verify_matches_golden_report(tmp_path, corpus_dir, capsys):
    # report and table written by the shipped corpus before the checks were split
    work = tmp_path / "corpus"
    shutil.copytree(corpus_dir, work)
    out = tmp_path / "report.json"
    assert main(["verify", str(work), "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "verify_report.json").read_bytes()
    table = (GOLDEN / "verify_stdout.txt").read_text()
    assert capsys.readouterr().out == f"{table}report written to {out}\n"


def test_broken_script_move_fails_calibrate_and_is_listed_by_verify(tmp_path, corpus_dir, capsys):
    work = tmp_path / "corpus"
    shutil.copytree(corpus_dir, work)
    script = work / "whitehead" / "scripts" / "a.json"
    obj = json.loads(script.read_text())
    obj["moves"][2]["crossings"] = [1, 5]
    script.write_text(json.dumps(obj))
    assert main(["calibrate", str(work)]) == 1
    assert capsys.readouterr().err == f"error: {BROKEN_MOVE}\n"
    report = verify_corpus(work)
    assert report["failures"] == [f"whitehead/a: {BROKEN_MOVE}"]
    golden = json.loads((GOLDEN / "verify_report.json").read_text())["fixtures"]
    assert report["fixtures"].keys() == golden.keys()
    for name, info in report["fixtures"].items():
        if name != "whitehead":
            assert info == golden[name], name
    assert list(report["fixtures"]["whitehead"]["scripts"]) == ["b"]


def test_verify_flags_wrong_link_script(tmp_path, corpus_dir, capsys):
    cases = [
        # hand the whitehead fixture a script that certifies the unlink instead
        ("unlink2/scripts/empty.json", "whitehead/scripts/z_wrong.json"),
        # replace a fixture's only script with a valid movie of another diagram
        ("kinked_split/scripts/r1.json", "unlink2/scripts/empty.json"),
    ]
    for i, (source, target) in enumerate(cases):
        work = tmp_path / f"corpus{i}"
        shutil.copytree(corpus_dir, work)
        shutil.copyfile(work / source, work / target)
        with pytest.raises(CorpusError, match="does not start from link.pd"):
            verify_corpus(work)
        assert main(["verify", str(work)]) == 1
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "fixture, link",
    [
        ("unlink2", "PD[U[2], U[1]]"),
        ("unlink2", "U 2\nU 1\n"),
        ("kinked_split", "PD[U[3], X[1,1,2,2]]"),
        ("kinked_split", "# a kink beside a circle\nX 1 1 2 2\nU 3\n"),
        ("whitehead", "X[2,4,5,1] X[4,3,6,7]\nX[7,8,9,5] X[8,6,3,11] X[11,2,1,9]"),
    ],
)
def test_script_link_in_another_layout_is_accepted(tmp_path, corpus_dir, fixture, link):
    # the script's link is compared token by token: marker order and layout do not matter
    work = tmp_path / fixture
    shutil.copytree(corpus_dir / fixture, work)
    for f in (work / "scripts").glob("*.json"):
        f.write_text(json.dumps({**json.loads(f.read_text()), "link": link}))
    entry = load_entry(work)
    assert [s.link for s in entry.scripts] == [link] * len(entry.scripts)
    assert entry.diagram == load_entry(corpus_dir / fixture).diagram


@pytest.mark.parametrize(
    "fixture, link",
    [
        ("unlink2", "PD[U[1], U[3]]"),
        ("kinked_split", "PD[X[1,1,2,2], U[4]]"),
        # arc 11 renamed to 12 in both of its crossings: a valid code, another diagram
        ("whitehead", "PD[X[2,4,5,1], X[4,3,6,7], X[7,8,9,5], X[8,6,3,12], X[12,2,1,9]]"),
        # one end of arc 11 changed: not a diagram at all
        ("whitehead", "PD[X[2,4,5,1], X[4,3,6,7], X[7,8,9,5], X[8,6,3,11], X[12,2,1,9]]"),
    ],
)
def test_script_link_with_one_arc_changed_is_rejected(tmp_path, corpus_dir, capsys, fixture, link):
    work = tmp_path / "corpus"
    shutil.copytree(corpus_dir, work)
    f = sorted((work / fixture / "scripts").glob("*.json"))[0]
    f.write_text(json.dumps({**json.loads(f.read_text()), "link": link}))
    with pytest.raises(CorpusError, match="does not start from link.pd"):
        load_entry(work / fixture)
    assert main(["verify", str(work)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {fixture}/{f.name}: the script does not start")


@pytest.mark.parametrize(
    "meta",
    [[2], {"linking_number": 0}, {"components": "two"}, {"components": True},
     {"components": 2, "linking_number": "0"}, {"components": 2.0}],
)
def test_malformed_meta_is_corpus_error(tmp_path, capsys, corpus_dir, meta):
    shutil.copytree(corpus_dir / "whitehead", tmp_path / "whitehead")
    (tmp_path / "whitehead" / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(CorpusError, match="meta.json must be an object"):
        load_entry(tmp_path / "whitehead")
    assert main(["calibrate", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


# -- CLI ----------------------------------------------------------------------------


def test_cli_lk(capsys):
    assert main(["lk", "PD[X[4,1,3,2],X[2,3,1,4]]"]) == 0
    assert capsys.readouterr().out.strip() == "-1"


def test_cli_conway_at_file(capsys, corpus_dir):
    assert main(["conway", f"@{corpus_dir / 'trefoil' / 'link.pd'}"]) == 0
    assert capsys.readouterr().out.strip() == "[1, 0, 1]"


def test_cli_beta_on_unlink(capsys):
    assert main(["beta", "PD[] U[1] U[2]"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_beta_rejects_nonzero_linking(capsys):
    assert main(["beta", "PD[X[4,1,3,2],X[2,3,1,4]]"]) == 1
    assert "linking" in capsys.readouterr().err


def test_cli_beta_with_calibration(capsys, corpus_dir):
    code = main(["beta", f"@{corpus_dir / 'whitehead' / 'link.pd'}", "--calibration", str(corpus_dir)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "-1"


def test_cli_phi_whitehead(capsys, corpus_dir):
    code = main([
        "phi",
        "--script", str(corpus_dir / "whitehead" / "scripts" / "a.json"),
        "--calibration", str(corpus_dir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "phi = 3" in out
    assert "not slice" in out


def test_cli_phi_empty_script_no_verdict(capsys, corpus_dir):
    code = main([
        "phi",
        "--script", str(corpus_dir / "unlink2" / "scripts" / "empty.json"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "phi = 0" in out
    assert "not slice" not in out


def test_cli_phi_corrupted_script(capsys, tmp_path, corpus_dir):
    payload = json.loads((corpus_dir / "whitehead" / "scripts" / "a.json").read_text())
    payload["moves"][1] = {"kind": "r1_remove", "crossing": 1}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["phi", "--script", str(bad)]) == 1
    assert capsys.readouterr().err.count("move 1") == 1


@pytest.mark.parametrize("kind", ["sc", "r1_remove"])
def test_cli_phi_missing_crossing_names_the_move(capsys, tmp_path, corpus_dir, kind):
    payload = json.loads((corpus_dir / "whitehead" / "scripts" / "a.json").read_text())
    payload["moves"] = [{"kind": kind, "crossing": 999}]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["phi", "--script", str(bad)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == f"error: script invalid: move 0 ({kind}) failed: unknown crossing id 999"


@pytest.mark.parametrize(
    "move, message",
    [
        ({"kind": "r3", "crossings": [1, 2]}, "r3 takes three crossing ids"),
        ({"kind": "r2_remove", "crossings": [1]}, "r2_remove takes two crossing ids"),
        ({"kind": "r2_add", "arcs": [1, 2, 3]}, "r2_add takes two arc ids"),
        ({"kind": "r2_add", "arcs": []}, "r2_add takes two arc ids"),
    ],
)
def test_cli_phi_move_list_of_wrong_length_is_an_invalid_script(capsys, tmp_path, corpus_dir, move, message):
    # the schema accepts any list of ints; the move's arity is checked when it is applied
    payload = json.loads((corpus_dir / "whitehead" / "scripts" / "a.json").read_text())
    payload["moves"] = [move]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["phi", "--script", str(bad)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == f"error: script invalid: move 0 ({move['kind']}) failed: {message}"


def test_cli_phi_initial_diagram_error_is_not_terminal_state(capsys, tmp_path):
    script = tmp_path / "hopf.json"
    script.write_text(json.dumps({"link": "PD[X[4,1,3,2],X[2,3,1,4]]", "moves": []}))
    assert main(["phi", "--script", str(script)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == "error: script invalid: initial diagram: nonzero linking number"


def test_cli_parse_error_is_usage_error(capsys):
    assert main(["conway", "PD[X[1,2,3]]"]) == 2


@pytest.mark.parametrize(
    "payload",
    [{}, [1], {"e_cal": "x", "s_cal": 1}, {"e_cal": -1}, {"e_cal": True, "s_cal": 1},
     {"e_cal": 1.0, "s_cal": 1}, {"e_cal": 2, "s_cal": 1}, "e_cal"],
)
def test_cli_malformed_calibration_is_error(capsys, tmp_path, corpus_dir, payload):
    cal = tmp_path / "cal.json"
    cal.write_text(json.dumps(payload))
    assert main(["beta", "PD[] U[1] U[2]", "--calibration", str(cal)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    # the same file as a corpus calibration
    work = tmp_path / "corpus"
    shutil.copytree(corpus_dir, work)
    shutil.copyfile(cal, work / "calibration.json")
    assert main(["verify", str(work)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_unreadable_file_is_usage_error(capsys, tmp_path):
    assert main(["phi", "--script", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["lk", f"@{tmp_path}"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["lk", f"@{tmp_path / 'missing.pd'}"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    latin1 = tmp_path / "latin1.pd"
    latin1.write_bytes("# caf\xe9\nPD[X[4,1,3,2],X[2,3,1,4]]\n".encode("latin-1"))
    assert main(["lk", f"@{latin1}"]) == 2
    assert capsys.readouterr().err.startswith("parse error:")


@pytest.mark.parametrize(
    "payload",
    [
        {"link": "PD[X[1,2,3,4]]", "moves": [{"kind": "sc"}]},  # missing field
        {"link": "PD[X[1,2,3,4]]", "moves": [{"kind": "sc", "crossing": "1"}]},
        {"link": "PD[X[1,2,3,4]]", "moves": [{"kind": "r3", "crossings": [1, 2.5, 3]}]},
        {"link": "PD[X[1,2,3,4]]", "moves": [{"kind": "r1_add", "arc": 1, "over_first": 1}]},
        {"link": "PD[X[1,2,3,4]]", "moves": [{"kind": "twist", "crossing": 1}]},
        {"link": "PD[X[1,2,3,4]]", "moves": [["sc", 1]]},
        {"link": "PD[X[1,2,3,4]]", "moves": {"kind": "sc"}},
        {"moves": []},
        [1, 2],
        "PD[X[1,2,3,4]]",
        {"link": "PD[X[1,2,3,4]]", "moves": [{"kind": "r1_add", "arc": 1, "sgn": -1}]},  # misspelt field
    ],
)
def test_cli_phi_malformed_script_is_parse_error(capsys, tmp_path, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["phi", "--script", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("parse error:")


def test_load_entry_rejects_malformed_script(tmp_path, corpus_dir):
    shutil.copytree(corpus_dir / "whitehead", tmp_path / "whitehead")
    script = tmp_path / "whitehead" / "scripts" / "a.json"
    payload = json.loads(script.read_text())
    del payload["moves"][0]["crossing"]
    script.write_text(json.dumps(payload))
    with pytest.raises(ScriptSyntaxError, match="lacks field 'crossing'"):
        load_entry(tmp_path / "whitehead")


def test_cli_verify_roundtrip(tmp_path, corpus_dir, capsys):
    work = tmp_path / "corpus"
    shutil.copytree(corpus_dir, work)
    assert main(["calibrate", str(work)]) == 0
    out_json = tmp_path / "report.json"
    assert main(["verify", str(work), "--json", str(out_json)]) == 0
    capsys.readouterr()
    report = json.loads(out_json.read_text())
    assert report["ok"]
    # byte-for-byte determinism of the written report
    out2 = tmp_path / "report2.json"
    assert main(["verify", str(work), "--json", str(out2)]) == 0
    assert out_json.read_bytes() == out2.read_bytes()


def test_cli_verify_requires_calibration(tmp_path, corpus_dir):
    work = tmp_path / "corpus"
    shutil.copytree(corpus_dir, work)
    (work / "calibration.json").unlink()
    assert main(["verify", str(work)]) == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sato4.cli", "conway", "PD[] U[1]"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[1]"


def _to_closed_pipe(args, unbuffered):
    """Run the CLI with stdout a pipe whose reader has already gone."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "sato4.cli", *args], stdout=write, stderr=subprocess.PIPE, text=True, env=env
        )
    finally:
        os.close(write)


@pytest.mark.parametrize("unbuffered", [True, False])
def test_cli_phi_to_a_closed_pipe_is_not_an_error(corpus_dir, unbuffered):
    script = corpus_dir / "whitehead" / "scripts" / "a.json"
    proc = _to_closed_pipe(["phi", "--script", str(script), "--calibration", str(corpus_dir)], unbuffered)
    assert (proc.returncode, proc.stderr) == (0, "")
    proc = _to_closed_pipe(["--help"], unbuffered)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("unbuffered", [True, False])
def test_cli_verify_to_a_closed_pipe_writes_its_report(tmp_path, corpus_dir, unbuffered):
    out = tmp_path / "report.json"
    proc = _to_closed_pipe(["verify", str(corpus_dir), "--json", str(out)], unbuffered)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_bytes() == (GOLDEN / "verify_report.json").read_bytes()
    # a failing verify keeps its own exit code
    work = shutil.copytree(corpus_dir, tmp_path / "corpus")
    save_calibration(work, Calibration(e_cal=1, s_cal=1))
    proc = _to_closed_pipe(["verify", str(work), "--json", str(out)], unbuffered)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(out.read_text())["ok"] is False
