"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro import paper
from repro.baselines import FenwickCube, NaiveCube, PrefixSumCube
from repro.core import RelativePrefixSumCube
# the brute-force box oracle and box generator the test modules share
from repro.testing import box_sum as brute_range_sum  # noqa: F401
from repro.workloads import random_range  # noqa: F401


@pytest.fixture
def paper_cube():
    """A fresh copy of the paper's 9x9 example array (Figure 1)."""
    return paper.ARRAY_A.copy()


@pytest.fixture
def rng():
    """Deterministic random generator for test data."""
    return np.random.default_rng(12345)


#: All in-memory method classes, for parametrized equivalence tests.
METHOD_CLASSES = [NaiveCube, PrefixSumCube, FenwickCube, RelativePrefixSumCube]


@pytest.fixture(params=METHOD_CLASSES, ids=lambda c: c.name)
def method_class(request):
    """Parametrize a test over every range-sum method."""
    return request.param
