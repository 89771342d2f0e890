"""Scaling-study harness: runtime and peak frontier size versus variable count.

Records are bit-reproducible given (family, params, seed).  To keep that
true, per-instance time is *deterministic effort time*: the number of
frontier entries the solver scanned divided by a fixed conversion rate, and
the timeout budget is enforced in the same units.  Wall-clock noise
therefore never reaches the CSV; wall time for a whole run is reported
separately on the error stream.
"""

from __future__ import annotations

import csv
import math
import statistics
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import variables_of
from .instances import FAMILIES, complete_minus_one, disjoint_pairs, pigeonhole, random_3sat
from .solver import RESOURCE_EXCEEDED, SolveConfig, check_sat

# fixed effort-to-time conversion: frontier entries scanned per virtual ms,
# never recalibrated at runtime: determinism beats clock fidelity here.  The
# traced run in BENCH_10.json (CPython 3.11, 2-core x86 VM) scans, per ms of
# tree time, 12,222 entries on php (6.1x), 14,922 on models (7.5x), 8,689 on
# rand3sat (4.3x) and 2,784 on cmo (1.4x: one entry charged per clause).
WORK_PER_MS = 2000

class BenchRecord(NamedTuple):
    family: str
    n: int
    clause_count: int
    seed: int
    verdict: str
    elapsed_ms: float
    peak_nodes: int
    eliminations: int
    timed_out: bool

    def to_row(self) -> list[str]:
        return [
            self.family,
            str(self.n),
            str(self.clause_count),
            str(self.seed),
            self.verdict,
            f"{self.elapsed_ms:.3f}",
            str(self.peak_nodes),
            str(self.eliminations),
            "true" if self.timed_out else "false",
        ]

    @staticmethod
    def from_row(row: Sequence[str]) -> "BenchRecord":
        if len(row) != len(CSV_COLUMNS) or row[8] not in ("true", "false"):
            raise ValueError(f"malformed record {row!r}")
        return BenchRecord(
            family=row[0],
            n=int(row[1]),
            clause_count=int(row[2]),
            seed=int(row[3]),
            verdict=row[4],
            elapsed_ms=float(row[5]),
            peak_nodes=int(row[6]),
            eliminations=int(row[7]),
            timed_out=row[8] == "true",
        )


CSV_COLUMNS = BenchRecord._fields


def _build_instance(family: str, param: int, seed: int, ratio: float):
    import random

    if family == "random3sat":
        return random_3sat(param, round(ratio * param), random.Random(seed))
    if family == "pigeonhole":
        return pigeonhole(param)
    if family == "complete-minus-one":
        return complete_minus_one(param)
    return disjoint_pairs(param)  # run_family has rejected every other name


def _run_task(task) -> BenchRecord:
    family, param, seed, ratio, timeout_ms = task
    formula = _build_instance(family, param, seed, ratio)
    result = check_sat(formula, SolveConfig(work_budget=int(timeout_ms * WORK_PER_MS)))
    return BenchRecord(
        family=family,
        n=len(variables_of(formula)),
        clause_count=len(formula.clauses),
        seed=seed,
        verdict=result.verdict,
        elapsed_ms=round(result.stats.work / WORK_PER_MS, 3),
        peak_nodes=result.stats.peak_nodes,
        eliminations=result.stats.eliminations,
        timed_out=result.stats.exceeded == "work",
    )


def run_family(
    family: str,
    n_values: Iterable[int],
    seed: int = 0,
    seeds_per_n: int = 1,
    ratio: float = 4.3,
    timeout_ms: float = 10_000.0,
    workers: int = 1,
    on_record: Callable[[BenchRecord], None] | None = None,
) -> list[BenchRecord]:
    """Run one instance family across ``n_values``.

    ``n_values`` are the family parameter: variable count for random3sat and
    complete-minus-one, hole count k for pigeonhole, pair count k for
    disjoint-pairs (the record's ``n`` is always the true variable count).
    Each solve runs under ``SolveConfig``'s default node cap.  Instance seeds
    derive deterministically from (seed, parameter, repetition).  Records
    stream to ``on_record`` in a deterministic order as soon as they finish,
    so partial runs are usable.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    tasks = []
    for param in n_values:
        reps = seeds_per_n if family == "random3sat" else 1
        for rep in range(reps):
            instance_seed = seed * 1_000_003 + param * 1_009 + rep
            tasks.append((family, param, instance_seed, ratio, timeout_ms))

    records: list[BenchRecord] = []

    def consume(produced):
        for record in produced:
            records.append(record)
            if on_record is not None:
                on_record(record)

    if workers <= 1:
        consume(map(_run_task, tasks))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as executor:
            consume(executor.map(_run_task, tasks))
    return records


def write_csv_header(fh) -> None:
    csv.writer(fh).writerow(CSV_COLUMNS)
    fh.flush()


def append_csv_record(fh, record: BenchRecord) -> None:
    csv.writer(fh).writerow(record.to_row())
    fh.flush()


def read_csv(fh) -> list[BenchRecord]:
    reader = csv.reader(fh)
    header = next(reader)
    if list(header) != list(CSV_COLUMNS):
        raise ValueError(f"unexpected CSV header: {header}")
    records = []
    for row in reader:
        try:
            records.append(BenchRecord.from_row(row))
        except ValueError as exc:
            raise ValueError(f"CSV line {reader.line_num}: {exc}") from None
    return records


class InsufficientDataError(ValueError):
    pass


POLYNOMIAL = "polynomial-consistent"
EXPONENTIAL = "exponential-consistent"

# geometric midpoint between per-variable growth factors 1 (polynomial,
# ratios sink toward 1) and 2 (full doubling per variable)
RATIO_THRESHOLD = math.sqrt(2.0)


class GrowthReport(NamedTuple):
    n_values: tuple[int, ...]
    median_peak_nodes: tuple[float, ...]
    median_elapsed_ms: tuple[float, ...]
    step_ratios: tuple[float, ...]
    ratio_tail_median: float
    slope_peak_nodes: float
    slope_elapsed_ms: float
    label: str

    def lines(self) -> list[str]:
        out = [
            f"n_values={','.join(str(n) for n in self.n_values)}",
            f"median_peak_nodes={','.join(f'{p:g}' for p in self.median_peak_nodes)}",
            f"median_elapsed_ms={','.join(f'{e:.3f}' for e in self.median_elapsed_ms)}",
            f"per_variable_growth_ratios={','.join(f'{r:.4f}' for r in self.step_ratios)}",
            f"ratio_tail_median={self.ratio_tail_median:.4f}",
            f"loglog_slope_peak_nodes={self.slope_peak_nodes:.3f}",
            f"loglog_slope_elapsed_ms={self.slope_elapsed_ms:.3f}",
            f"growth_label={self.label}",
        ]
        return out


def _loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mx = statistics.fmean(lx)
    my = statistics.fmean(ly)
    denom = sum((x - mx) ** 2 for x in lx)
    if denom == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / denom


def fit_growth(records: Sequence[BenchRecord]) -> GrowthReport:
    """Classify measured growth of peak frontier size against variable count.

    Only finished runs over n >= 1 variables count: timed-out and budget-tripped
    records carry a censored peak and would bias the fit, and a formula over no
    variables has no per-variable growth.  The per-variable growth ratio for
    a step n1 -> n2 is (p2/p1)^(1/(n2-n1)); a sequence hovering near 2 means
    each added variable doubles the frontier, near 1 means subexponential.  The
    label comes from the median of the later half of that sequence, where
    small-n transients have died down.
    """
    by_n: dict[int, list[BenchRecord]] = {}
    for r in records:
        if r.n and not r.timed_out and r.verdict != RESOURCE_EXCEEDED:
            by_n.setdefault(r.n, []).append(r)
    if len(by_n) < 4:
        raise InsufficientDataError(
            f"need records for >= 4 distinct n values, have {len(by_n)}"
        )
    ns = sorted(by_n)
    peaks = [statistics.median(r.peak_nodes for r in by_n[n]) for n in ns]
    elapsed = [statistics.median(r.elapsed_ms for r in by_n[n]) for n in ns]

    ratios = []
    for (n1, p1), (n2, p2) in zip(zip(ns, peaks), zip(ns[1:], peaks[1:])):
        ratios.append((max(p2, 1.0) / max(p1, 1.0)) ** (1.0 / (n2 - n1)))
    tail = ratios[len(ratios) // 2 :]
    tail_median = statistics.median(tail)
    label = EXPONENTIAL if tail_median > RATIO_THRESHOLD else POLYNOMIAL

    return GrowthReport(
        n_values=tuple(ns),
        median_peak_nodes=tuple(peaks),
        median_elapsed_ms=tuple(elapsed),
        step_ratios=tuple(ratios),
        ratio_tail_median=tail_median,
        slope_peak_nodes=_loglog_slope(ns, peaks),
        slope_elapsed_ms=_loglog_slope(ns, elapsed),
        label=label,
    )
