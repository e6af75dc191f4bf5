#!/usr/bin/env python3
"""Regenerate every headline table: run the CLI commands in order into one directory.

validate, moments (to moments.csv), static-gl, solve, gain against the best
constant rate and against both Poisson benchmarks (each solved by its gain
command), and premium on the value field, on configs/standard.cfg with any
CYBERINVEST_* overrides; none draws a random number. Stops at the first failing
command and returns its exit code. --full uses the fine grid of
configs/standard.cfg instead of the --coarse preset.

Usage:
    python scripts/reproduce_tables.py [--out OUT] [--full]
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
    ap.add_argument("--full", action="store_true", help="fine grid instead of the desk preset")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = ["--config", str(ROOT / "configs" / "standard.cfg")]  # all that moments and static-gl take
    common = config + ["--out", str(out)] + ([] if args.full else ["--coarse"])
    gain = ["gain", "--value-field", str(out / "value")]
    steps = [(["static-gl"], config), (["solve"], common), (gain, common)]
    steps += [
        (gain + ["--benchmark", f"poisson-{m}", "--lambdas", "27,45,63,81,99,117,135", "--hs", "0"], common)
        for m in ("baseline", "expectation")
    ]
    steps.append((["premium", "--value-field", str(out / "value")], common))

    # validate first, so a bad configuration stops the run before any solve
    rc = cyberinvest(["validate", *common])
    if rc == 0:
        with (out / "moments.csv").open("w") as fh, contextlib.redirect_stdout(fh):
            rc = cyberinvest(["moments", *config])
    for step, flags in steps:
        if rc != 0:
            break
        print(f"== cyberinvest {' '.join(step)}", flush=True)
        rc = cyberinvest(step + flags)
    return rc


if __name__ == "__main__":
    sys.exit(main())
