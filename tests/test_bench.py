import io

import pytest

from fpcsat.bench import (
    CSV_COLUMNS,
    EXPONENTIAL,
    POLYNOMIAL,
    BenchRecord,
    InsufficientDataError,
    append_csv_record,
    fit_growth,
    read_csv,
    run_family,
    write_csv_header,
)
from fpcsat.core import variables_of
from fpcsat.instances import complete_minus_one, pigeonhole, random_3sat
from fpcsat.oracle import brute_force_sat


def synthetic(peaks_by_n, family="synthetic"):
    return [
        BenchRecord(
            family=family,
            n=n,
            clause_count=0,
            seed=0,
            verdict="SAT",
            elapsed_ms=float(peak),
            peak_nodes=peak,
            eliminations=0,
            timed_out=False,
        )
        for n, peak in peaks_by_n
    ]


def test_fit_growth_exponential_sequence():
    records = synthetic([(n, 2**n) for n in range(4, 15)])
    assert fit_growth(records).label == EXPONENTIAL


def test_fit_growth_polynomial_sequence():
    records = synthetic([(n, n**2) for n in range(4, 15)])
    assert fit_growth(records).label == POLYNOMIAL


def test_fit_growth_needs_four_points():
    with pytest.raises(InsufficientDataError):
        fit_growth(synthetic([(n, 2**n) for n in (4, 5, 6)]))


def test_fit_growth_ignores_censored_records():
    good = synthetic([(n, n**2) for n in range(4, 10)])
    capped = [
        BenchRecord("synthetic", 11, 0, 0, "RESOURCE_EXCEEDED", 9.9, 10**6, 0, True)
    ]
    report = fit_growth(good + capped)
    assert 11 not in report.n_values
    assert report.label == POLYNOMIAL


def test_fit_growth_leaves_out_formulas_over_no_variables():
    # complete_minus_one(0) is over no variables, so it has no per-variable growth
    records = run_family("complete-minus-one", range(5))
    assert [r.n for r in records] == [0, 1, 2, 3, 4]
    report = fit_growth(records)
    assert report.n_values == (1, 2, 3, 4)
    assert report.label == POLYNOMIAL  # the frontier never exceeds 2 entries


def test_fit_growth_slopes():
    report = fit_growth(synthetic([(n, n**3) for n in range(4, 15)]))
    assert abs(report.slope_peak_nodes - 3.0) < 0.05


def test_pigeonhole_instances():
    f = pigeonhole(3)
    assert len(variables_of(f)) == 12
    assert not brute_force_sat(f, collect_models=False).satisfiable
    assert brute_force_sat(pigeonhole(1), collect_models=False).satisfiable is False


def test_complete_minus_one_instance():
    f = complete_minus_one(3)
    assert len(f.clauses) == 3**3 - 2**3 == 19
    # the one model falsifies the all-positive FPC, whose power set is missing
    assert brute_force_sat(f).models == ({1: False, 2: False, 3: False},)


def test_random_3sat_shape():
    import random

    f = random_3sat(8, 34, random.Random(5))
    assert all(len(c) == 3 for c in f.clauses)
    assert variables_of(f) <= frozenset(range(1, 9))


def test_run_family_complete_minus_one():
    records = run_family("complete-minus-one", [3], timeout_ms=1000)
    (record,) = records
    assert record.verdict == "SAT"
    assert record.clause_count == 19
    assert record.n == 3
    assert not record.timed_out


def test_run_family_pigeonhole_verdicts():
    records = run_family("pigeonhole", [2, 3], timeout_ms=5000)
    assert [r.verdict for r in records] == ["UNSAT", "UNSAT"]
    assert [r.n for r in records] == [6, 12]


def test_run_family_deterministic():
    kwargs = dict(seed=9, seeds_per_n=2, ratio=4.3, timeout_ms=500)
    a = run_family("random3sat", [5, 6], **kwargs)
    b = run_family("random3sat", [5, 6], **kwargs)
    assert a == b


def test_run_family_timeout_is_recorded():
    records = run_family("pigeonhole", [5], timeout_ms=0.01)
    (record,) = records
    assert record.timed_out
    assert record.verdict == "RESOURCE_EXCEEDED"


def test_run_family_rejects_unknown_family():
    with pytest.raises(ValueError):
        run_family("nonsense", [3])


def test_csv_round_trip():
    records = run_family("complete-minus-one", [2, 3, 4], timeout_ms=1000)
    buf = io.StringIO()
    write_csv_header(buf)
    for r in records:
        append_csv_record(buf, r)
    buf.seek(0)
    assert read_csv(buf) == records


@pytest.mark.parametrize("cut", ["inside-last-field", "inside-third-field"])
def test_read_csv_rejects_a_torn_row(cut):
    record = BenchRecord("random3sat", 16, 69, 5, "UNSAT", 10000.0, 4096, 88, True)
    buf = io.StringIO()
    write_csv_header(buf)
    append_csv_record(buf, record)
    text = buf.getvalue()
    assert text.endswith(",true\r\n")
    # a row cut to ",tr" must not read as timed_out=False
    torn = text[:-4] if cut == "inside-last-field" else text[:text.index(",69,") + 2]
    with pytest.raises(ValueError, match="CSV line 2: malformed record"):
        read_csv(io.StringIO(torn))


def test_csv_header_contract():
    buf = io.StringIO()
    write_csv_header(buf)
    assert buf.getvalue().strip() == ",".join(CSV_COLUMNS)


def test_run_family_streams_records():
    seen = []
    run_family("complete-minus-one", [2, 3], timeout_ms=1000, on_record=seen.append)
    assert [r.n for r in seen] == [2, 3]
