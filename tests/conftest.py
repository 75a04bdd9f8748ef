import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__)))

import mfdep.autodiff as ad
import mfdep.bench

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
TOY_TREEBANK = os.path.join(
    os.path.dirname(__file__), "..", "src", "mfdep", "data", "toy50.conllu"
)


def random_scores(n, rng, n_labels=3, unary_std=1.0, binary_std=0.25):
    return mfdep.bench.random_scores(n, rng, n_labels, unary_std, binary_std)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


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
