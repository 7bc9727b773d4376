"""Command line front end.

Usage summary::

    sato4 lk <pd-string|@file>
    sato4 conway <pd-string|@file>
    sato4 beta <pd-string|@file> [--calibration FILE]
    sato4 phi --script FILE [--calibration FILE]
    sato4 calibrate DIR
    sato4 verify DIR [--json OUT]

Exit codes: 0 success, 1 failed check or invalid data, 2 usage or parse
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .conway import conway, sato_levine_oracle
from .corpus import (
    Calibration,
    calibrate,
    load_calibration,
    verify_corpus,
)
from .diagram import parse_pd
from .errors import PDSyntaxError, Sato4Error, ScriptError, ScriptSyntaxError
from .movies import HomotopyScript, phi, run_script

USAGE_ERROR = 2
CHECK_ERROR = 1


def _read_pd_argument(arg: str):
    if arg.startswith("@"):
        text = Path(arg[1:]).read_text()
    else:
        text = arg
    return parse_pd(text)


def _load_cal(path: str | None) -> Calibration:
    if path is None:
        return Calibration(e_cal=1, s_cal=1)
    p = Path(path)
    if p.is_dir():
        return load_calibration(p)
    return Calibration.from_json(json.loads(p.read_text()))


def _cmd_lk(args) -> int:
    d = _read_pd_argument(args.pd)
    if d.component_count != 2:
        print(f"error: need a 2-component diagram, got {d.component_count}", file=sys.stderr)
        return CHECK_ERROR
    print(d.linking_number(1, 2))
    return 0


def _cmd_conway(args) -> int:
    d = _read_pd_argument(args.pd)
    print(conway(d))
    return 0


def _cmd_beta(args) -> int:
    d = _read_pd_argument(args.pd)
    cal = _load_cal(args.calibration)
    print(sato_levine_oracle(d, cal.s_cal))
    return 0


def _cmd_phi(args) -> int:
    payload = json.loads(Path(args.script).read_text())
    script = HomotopyScript.from_json(payload, name=Path(args.script).stem)
    cal = _load_cal(args.calibration)
    try:
        movie = run_script(script)
    except ScriptError as e:
        where = "terminal state" if e.move_index is None else f"move {e.move_index}"
        print(f"error: script invalid at {where}: {e}", file=sys.stderr)
        return CHECK_ERROR
    value = phi(movie, cal.e_cal)
    print(f"phi = {value}")
    if value != 0:
        print("verdict: not slice")
    return 0


def _cmd_calibrate(args) -> int:
    cal = calibrate(args.corpus)
    print(f"e_cal = {cal.e_cal:+d}, s_cal = {cal.s_cal:+d}")
    print(f"written to {Path(args.corpus) / 'calibration.json'}")
    return 0


def _cmd_verify(args) -> int:
    report = verify_corpus(args.corpus)
    _print_verify_table(report)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {args.json}")
    return 0 if report["ok"] else CHECK_ERROR


def _print_verify_table(report: dict) -> None:
    cal = report["calibration"]
    print(f"calibration: e_cal = {cal['e_cal']:+d}, s_cal = {cal['s_cal']:+d}")
    header = f"{'fixture':<18} {'conway':<18} {'oracle':>6} {'phi':>12} verdict"
    print(header)
    print("-" * len(header))
    for name, info in sorted(report["fixtures"].items()):
        phis = ",".join(str(s["phi"]) for s in info.get("scripts", {}).values()) or "-"
        oracle = info.get("oracle")
        print(
            f"{name:<18} {str(info['conway']):<18} "
            f"{'-' if oracle is None else oracle:>6} {phis:>12} {info.get('verdict', '')}"
        )
    if report["failures"]:
        print(f"\n{len(report['failures'])} failing checks:")
        for f in report["failures"]:
            print(f"  - {f}")
    else:
        print("\nall checks passed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sato4",
        description="mod-4 sliceness obstruction toolkit for 2-component links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lk", help="linking number of a 2-component diagram")
    p.add_argument("pd", help="PD string or @file")
    p.set_defaults(func=_cmd_lk)

    p = sub.add_parser("conway", help="Conway polynomial coefficients [c0, c1, ...]")
    p.add_argument("pd", help="PD string or @file")
    p.set_defaults(func=_cmd_conway)

    p = sub.add_parser("beta", help="integer invariant from the z^3 Conway coefficient")
    p.add_argument("pd", help="PD string or @file")
    p.add_argument("--calibration", help="calibration file or corpus dir (default signs +1)")
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("phi", help="run a movie script and print the mod-4 obstruction")
    p.add_argument("--script", required=True, help="script JSON file")
    p.add_argument("--calibration", help="calibration file or corpus dir (default signs +1)")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("calibrate", help="fix the global signs against a corpus")
    p.add_argument("corpus", help="corpus directory")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("verify", help="run every corpus check")
    p.add_argument("corpus", help="corpus directory")
    p.add_argument("--json", help="also write the machine-readable report here")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PDSyntaxError, ScriptSyntaxError, json.JSONDecodeError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except Sato4Error as e:
        print(f"error: {e}", file=sys.stderr)
        return CHECK_ERROR


if __name__ == "__main__":
    sys.exit(main())
