"""Corpus loading, calibration, verification, and the command line."""

import json
import shutil
import subprocess
import sys

import pytest

from sato4.cli import main
from sato4.corpus import (
    Calibration,
    calibrate,
    calibrate_movies,
    load_calibration,
    load_corpus,
    load_entry,
    verify_corpus,
)
from sato4.errors import CalibrationError, CorpusError, ScriptSyntaxError


def test_corpus_loads_with_declared_invariants(corpus):
    names = {e.name for e in corpus}
    assert {"whitehead", "whitehead_mirror", "hopf", "unlink2", "trefoil"} <= names
    for entry in corpus:
        assert entry.diagram.component_count == entry.components


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
    assert wh["script_independent"]
    assert all(g["passed"] for g in wh["gluing"])
    assert report["fixtures"]["unlink2"]["gluing_note"] == "self-pair only"


def test_verify_is_deterministic(corpus_dir):
    a = json.dumps(verify_corpus(corpus_dir), sort_keys=True)
    b = json.dumps(verify_corpus(corpus_dir), sort_keys=True)
    assert a == b


def test_verify_flags_wrong_link_script(tmp_path, corpus_dir):
    work = tmp_path / "corpus"
    shutil.copytree(corpus_dir, work)
    # hand the whitehead fixture a script that certifies the unlink instead
    stolen = json.loads((work / "unlink2" / "scripts" / "empty.json").read_text())
    (work / "whitehead" / "scripts" / "z_wrong.json").write_text(json.dumps(stolen))
    report = verify_corpus(work)
    assert not report["ok"]
    assert any("different links" in f or "oracle" in f for f in report["failures"])


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
    assert "move 1" in capsys.readouterr().err


def test_cli_parse_error_is_usage_error(capsys):
    assert main(["conway", "PD[X[1,2,3]]"]) == 2


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
