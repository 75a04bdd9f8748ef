import numpy as np

from mfdep import kernels
from mfdep.bench import (
    REFERENCE_TEST_SPEED,
    benchmark,
    format_csv,
    format_table,
    random_scores,
)
from mfdep.decoder import mfvi


def test_report_has_one_row_per_variant_length_backend():
    rows, slopes = benchmark(variants=("local1o", "local2o"), lengths=(4, 8), repeats=3)
    keys = {(r.variant, r.n) for r in rows}
    assert keys == {("local1o", 4), ("local1o", 8), ("local2o", 4), ("local2o", 8)}
    for r in rows:
        assert r.repeats == 3
        assert np.isfinite(r.median_seconds) and r.median_seconds > 0
        assert np.isfinite(r.sents_per_second)
    assert "local2o" in slopes


def test_second_order_slower_than_first_order():
    rows, _ = benchmark(variants=("local1o", "local2o"), lengths=(40,), repeats=3)
    by_variant = {r.variant: r.median_seconds for r in rows}
    assert by_variant["local2o"] > by_variant["local1o"]


def test_muladd_column_matches_closed_form():
    rows, _ = benchmark(variants=("single1o", "single2o"), lengths=(20,), repeats=3)
    for r in rows:
        expect = 0 if r.variant.endswith("1o") else kernels.closed_form_muladds(20)
        assert r.muladds_per_iteration == expect
    assert kernels.count_muladds(20) == kernels.closed_form_muladds(20)


def test_random_scores_respect_masks():
    rng = np.random.default_rng(0)
    scores = random_scores(6, rng)
    assert not np.asarray(scores.s_edge)[:, 0].any()
    assert not np.diagonal(np.asarray(scores.s_edge)).any()
    mfvi(scores, "local2o")  # decodable without error


def test_table_and_csv_output():
    rows, slopes = benchmark(variants=("local2o",), lengths=(4, 8), repeats=3)
    table = format_table(rows, slopes)
    assert "local2o" in table and "slope" in table
    for variant, speed in REFERENCE_TEST_SPEED.items():
        assert f"{variant}: {speed}" in table
    csv = format_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("variant,n,")
    assert len(lines) == 1 + len(rows)

