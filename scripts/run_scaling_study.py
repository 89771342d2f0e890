#!/usr/bin/env python3
"""Run the full scaling study: ``fpcsat bench`` once per family.

Each run writes its family's CSV under --out-dir (created if missing) and
prints its growth report.  All times in the CSVs are deterministic effort
milliseconds, so reruns with the same seed reproduce them byte for byte;
wall-clock totals go to stderr.  Exits with the first failing run's code.
"""

import argparse
import pathlib
import sys

from fpcsat.cli import main as fpcsat

STUDIES = (
    # family, parameter range, per-instance effort budget (virtual ms)
    ("pigeonhole", "2..6", 60_000.0),
    ("random3sat", "8..22", 10_000.0),
    ("complete-minus-one", "2..12", 10_000.0),
    ("disjoint-pairs", "1..14", 10_000.0),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds-per-n", type=int, default=5)
    parser.add_argument("--ratio", type=float, default=4.3)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for family, n_range, timeout_ms in STUDIES:
        code = fpcsat([
            "bench", "--family", family, "--n-range", n_range,
            "--seed", str(args.seed), "--seeds-per-n", str(args.seeds_per_n),
            "--ratio", str(args.ratio), "--timeout-ms", str(timeout_ms),
            "--out", str(out_dir / f"{family.replace('-', '_')}.csv"),
        ])
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
