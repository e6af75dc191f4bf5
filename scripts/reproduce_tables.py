#!/usr/bin/env python3
"""Regenerate every headline table: run the CLI commands in order into one directory.

validate, moments (to moments.csv), static-gl, solve,
solve-poisson for both modes, gain against the best constant rate and both
Poisson benchmarks, and premium, on configs/standard.cfg with any
CYBERINVEST_* overrides. Stops at the first failing command and returns its
exit code. --full uses the fine grid of configs/standard.cfg instead of the
--coarse preset.

Usage:
    python scripts/reproduce_tables.py [--out OUT] [--seed S] [--full]
"""

import argparse
import contextlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cyberinvest.cli import main as cyberinvest  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/tables")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--full", action="store_true", help="fine grid instead of the desk preset")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    common = ["--config", str(ROOT / "configs" / "standard.cfg"), "--out", str(out), "--seed", str(args.seed)]
    if not args.full:
        common.append("--coarse")
    modes = ("baseline", "expectation")
    gain = ["gain", "--value-field", str(out / "value")]
    steps = [["static-gl"], ["solve"], *(["solve-poisson", "--mode", m] for m in modes), gain]
    steps += [
        gain + ["--benchmark", f"poisson-{m}", "--poisson-field", str(out / f"poisson_{m}"),
                "--lambdas", "27,45,63,81,99,117,135", "--hs", "0"]
        for m in modes
    ]
    steps.append(["premium", "--policy-field", str(out / "policy")])

    # validate first, so a bad configuration stops the run before any solve
    rc = cyberinvest(["validate", *common])
    if rc == 0:
        with (out / "moments.csv").open("w") as fh, contextlib.redirect_stdout(fh):
            rc = cyberinvest(["moments", *common])
    for step in steps:
        if rc != 0:
            break
        print(f"== cyberinvest {' '.join(step)}", flush=True)
        rc = cyberinvest(step + common)
    return rc


if __name__ == "__main__":
    sys.exit(main())
