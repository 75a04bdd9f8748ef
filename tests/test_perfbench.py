"""Smoke test of perfbench: each workload's fixtures build, its worker
runs the workload's command to the end, counts what the benchmark
reads, and writes output that perfbench's checks accept.

The worker rebinds mfdep functions for the life of its process, so it
runs in a subprocess here, as perfbench/run.py starts it.
"""
from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("fixtures", "check", "run")
# every span a parse reaches; the parse-long model falls back to CLE
PARSE_SPANS = {
    "conllu.read", "conllu.write", "trainer.load_model", "scorer.score_sentence",
    "scorer.encode", "scorer.edge", "scorer.sibling", "scorer.grandparent", "scorer.label",
    "decoder.mfvi", "kernels.forward", "tree.decode", "tree.cle",
}


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's fixtures, check and run modules, imported from their
    directory with one BLAS thread for the workers they start. Importing
    run sets the BLAS thread variables of os.environ; they, sys.path and
    sys.modules are put back when the module's tests end."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            mp.setenv(var, "1")
        try:
            yield types.SimpleNamespace(**{m: importlib.import_module(m) for m in MODULES})
        finally:
            for m in MODULES:
                sys.modules.pop(m, None)


def _run_worker(perfbench, workload, tmp_path, traced):
    """Build the seed-1 fixtures of workload, run its command once in a
    worker process and check the output; returns the worker's result and
    the check's (attempted, failed, problems)."""
    fx = perfbench.fixtures.build(workload, 1, tmp_path / "fixtures")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    command, outs = perfbench.run.workload_command(workload, fx, str(out_dir))
    proc = perfbench.run.run_process(command, traced, str(out_dir), timeout=60)
    assert proc["rc"] == 0, proc["last_line"]
    assert proc["result"] is not None  # a worker that never scored leaves first_score unset
    return proc["result"], perfbench.run.check_process(workload, fx, outs)


@pytest.mark.parametrize("traced", [False, True])
def test_parse_long_worker_counts_every_sentence(perfbench, tmp_path, traced):
    result, (attempted, failed, problems) = _run_worker(perfbench, "parse-long", tmp_path, traced)
    assert (result["sentences"], result["tokens"]) == (6, 240)
    assert (attempted, failed) == (6, 0), problems
    if traced:
        # kernels.muladds is not asserted: it reads 0 on stacked MFVI calls
        assert result["muladd_invariant"] is True
        assert PARSE_SPANS <= set(result["calls"]), PARSE_SPANS - set(result["calls"])


def test_parse_short_worker_counts_every_sentence(perfbench, tmp_path):
    # the only workload whose encoder groups hold more than one sentence
    result, (attempted, failed, problems) = _run_worker(perfbench, "parse-short", tmp_path, False)
    assert (result["sentences"], result["tokens"]) == (800, 4048)
    assert (attempted, failed) == (800, 0), problems


def test_train_step_worker_counts_every_training_token(perfbench, tmp_path):
    result, (attempted, failed, problems) = _run_worker(perfbench, "train-step", tmp_path, False)
    assert result["train_tokens"] == 150
    assert (attempted, failed) == (6, 0), problems
