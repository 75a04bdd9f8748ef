import os
import sys
import tracemalloc

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__)))

import mfdep.autodiff as ad
import mfdep.bench
from mfdep.scorer import sib_mask

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
TOY_TREEBANK = os.path.join(
    os.path.dirname(__file__), "..", "src", "mfdep", "data", "toy50.conllu"
)


def random_scores(n, rng, n_labels=3, unary_std=1.0, binary_std=0.25):
    return mfdep.bench.random_scores(n, rng, n_labels, unary_std, binary_std)


def cube_of(block):
    """The masked score cube that a (..., 3, n+1, r) factor block scores:
    s[..., i, j, k] = sum_r a[..., i, r] b[..., j, r] c[..., k, r] on the
    ``sib_mask`` cells, 0 elsewhere."""
    a, b, c = np.moveaxis(block, -3, 0)
    return np.einsum("...ir,...jr,...kr->...ijk", a, b, c) * sib_mask(block.shape[-2] - 1)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def traced_peak():
    """Traces allocations from here to the end of the test, stopping the
    tracing whatever happens. Each call returns the peak of traced bytes
    since the last call, or since the start, above the bytes traced at
    that point, and begins the next such span: call it once to begin,
    then once after each stretch to measure."""
    held = 0

    def peak():
        nonlocal held
        now, top = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        top, held = top - held, now
        return top

    tracemalloc.start()
    try:
        yield peak
    finally:
        tracemalloc.stop()


@pytest.fixture
def backward_copies(monkeypatch):
    """The list of arrays that ``autodiff`` copies with ``np.array`` (the
    seed and every VJP result it cannot adopt), filled while the test runs."""
    copies = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def array(self, *args, **kwargs):
            copies.append(np.array(*args, **kwargs))
            return copies[-1]

    monkeypatch.setattr(ad, "np", CountingNumpy())
    return copies


def fixture_path(name):
    return os.path.join(FIXTURES, name)
