"""Decoder throughput measurement and empirical scaling.

Synthetic scores drive the decoders at several sentence lengths, with
the sibling and grandparent scores as rank-d_bin factors, the form the
model gives them;
medians over repeats are reported as sentences/second together with a
log-log slope of time vs. length. Wall-clock figures are informational;
the deterministic multiply-add accounting lives in ``kernels``.
"""
from __future__ import annotations

import io
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .decoder import mfvi
from .scorer import (
    VARIANTS,
    Factors,
    ModelConfig,
    ScoreTensors,
    edge_mask,
    sib_mask,
    variant_row,
)

# hardware-specific sentences/second reported for the original systems
# (single GTX 1080 Ti); printed for reference only, never asserted.
REFERENCE_TEST_SPEED = {
    "single1o": 1123,
    "local1o": 1150,
    "single2o": 966,
    "local2o": 1006,
}


def random_scores(n, rng, n_labels=4, unary_std=1.0, binary_std=0.25):
    """Random scores of one sentence of n words with dense, masked
    sibling and grandparent cubes, the oracle's form."""
    return ScoreTensors(
        s_edge=rng.normal(0.0, unary_std, (n + 1, n + 1)) * edge_mask(n),
        s_sib=rng.normal(0.0, binary_std, (n + 1,) * 3) * sib_mask(n),
        s_gp=rng.normal(0.0, binary_std, (n + 1,) * 3) * sib_mask(n),
        s_label=rng.normal(0.0, unary_std, (n + 1, n + 1, n_labels)),
    )


def _random_factor_scores(n, rng):
    """Random scores of one sentence of n words with the sibling and
    grandparent scores as ``Factors`` of the default rank r = d_bin, the
    scales those of ``random_scores``: factor entries have standard
    deviation (0.25^2 / r)^(1/6), so that a valid cell's score has
    standard deviation 0.25."""
    r = ModelConfig().d_bin
    f_std = (0.0625 / r) ** (1 / 6)
    return ScoreTensors(
        s_edge=rng.normal(0.0, 1.0, (n + 1, n + 1)) * edge_mask(n),
        s_sib=Factors(rng.normal(0.0, f_std, (3, n + 1, r))),
        s_gp=Factors(rng.normal(0.0, f_std, (3, n + 1, r))),
        s_label=None,
    )


@dataclass
class BenchRow:
    variant: str
    n: int
    median_seconds: float
    sents_per_second: float
    repeats: int
    muladds_per_iteration: int


def _time_decode(scores, variant, T, inner=3):
    t0 = time.perf_counter()
    for _ in range(inner):
        mfvi(scores, variant, T)
    return (time.perf_counter() - t0) / inner


def benchmark(variants=VARIANTS, lengths=(10, 20, 40), repeats=5, seed=0):
    """Run the decoder suite; returns (rows, slopes by variant). Raises
    ValueError on a repeated length, which would fit no slope."""
    repeated = sorted({n for n in lengths if lengths.count(n) > 1})
    if repeated:
        raise ValueError(f"bench lengths repeat {', '.join(map(str, repeated))}")
    rng = np.random.default_rng(seed)
    scores_by_n = {n: _random_factor_scores(n, rng) for n in lengths}
    rows = []
    for variant in variants:
        T = variant_row(variant).iterations
        for n in lengths:
            sc = scores_by_n[n]
            mfvi(sc, variant, T)  # warmup
            times = [_time_decode(sc, variant, T) for _ in range(repeats)]
            med = float(np.median(times))
            rows.append(
                BenchRow(
                    variant=variant,
                    n=n,
                    median_seconds=med,
                    sents_per_second=1.0 / med if med > 0 else float("inf"),
                    repeats=repeats,
                    muladds_per_iteration=0 if T == 0 else kernels.closed_form_muladds(n),
                )
            )
    slopes = {}
    for variant in variants:
        pts = [(r.n, r.median_seconds) for r in rows if r.variant == variant]
        if len(pts) >= 2:
            ns, ts = zip(*pts)
            slopes[variant] = float(np.polyfit(np.log(ns), np.log(ts), 1)[0])
    return rows, slopes


def format_table(rows, slopes):
    buf = io.StringIO()
    buf.write(f"{'variant':<10}{'n':>5}{'median_s':>12}{'sents/s':>12}{'muladds/it':>12}\n")
    for r in rows:
        buf.write(
            f"{r.variant:<10}{r.n:>5}{r.median_seconds:>12.6f}"
            f"{r.sents_per_second:>12.1f}{r.muladds_per_iteration:>12}\n"
        )
    buf.write("\nlog-log slope of time vs n:\n")
    for variant, slope in sorted(slopes.items()):
        buf.write(f"  {variant}: {slope:.2f}\n")
    buf.write("\nreference sentences/second on the original hardware (informational):\n")
    for variant, speed in REFERENCE_TEST_SPEED.items():
        buf.write(f"  {variant}: {speed}\n")
    return buf.getvalue()


def format_csv(rows):
    lines = ["variant,n,median_seconds,sents_per_second,repeats,muladds_per_iteration"]
    for r in rows:
        lines.append(
            f"{r.variant},{r.n},{r.median_seconds:.9f},"
            f"{r.sents_per_second:.3f},{r.repeats},{r.muladds_per_iteration}"
        )
    return "\n".join(lines) + "\n"
