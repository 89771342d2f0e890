"""The committed scaling-study CSVs under ``results/`` must still reproduce.

Each family reruns ``fpcsat bench`` with ``scripts/run_scaling_study.py``'s
own arguments over a prefix of its parameter range; the committed CSV must
start with exactly the bytes written.  CSV times are deterministic effort
milliseconds, so a rerun matches byte for byte unless a verdict, a count or
the solver's work has moved.
"""

import importlib.util
from pathlib import Path

import pytest

from fpcsat.cli import main

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "run_scaling_study", ROOT / "scripts" / "run_scaling_study.py"
)
SCRIPT = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(SCRIPT)

# the script's defaults for --seed, --seeds-per-n and --ratio
DEFAULTS = ["--seed", "1", "--seeds-per-n", "5", "--ratio", "4.3"]
# the last parameter rerun per family: the rest of each range takes minutes
PREFIX_END = {"pigeonhole": 5, "random3sat": 22, "complete-minus-one": 9, "disjoint-pairs": 10}


@pytest.mark.parametrize("family, n_range, timeout_ms", SCRIPT.STUDIES)
def test_committed_csv_starts_with_a_rerun_prefix(family, n_range, timeout_ms, tmp_path, capsys):
    start, _, end = n_range.partition("..")
    assert int(start) <= PREFIX_END[family] <= int(end)
    out = tmp_path / "study.csv"
    assert main([
        "bench", "--family", family, "--n-range", f"{start}..{PREFIX_END[family]}",
        *DEFAULTS, "--timeout-ms", str(timeout_ms), "--out", str(out),
    ]) == 0
    capsys.readouterr()
    written = out.read_bytes()
    committed = (ROOT / "results" / f"{family.replace('-', '_')}.csv").read_bytes()
    rows = PREFIX_END[family] - int(start) + 1
    assert len(written.splitlines()) > rows  # a header and at least one row per n
    assert committed.startswith(written)
