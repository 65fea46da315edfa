from __future__ import annotations

import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from cutflip.instance import Max2LinInstance, parse_instance

TRIANGLE_TEXT = "3 3\n0 1 -1 1\n0 2 -1 1\n1 2 -1 1"
SINGLE_EDGE_TEXT = "2 1\n0 1 -1 1.0"
FIVE_CYCLE_TEXT = "5 5\n0 1 -1 1\n1 2 -1 1\n2 3 -1 1\n3 4 -1 1\n0 4 -1 1"


@pytest.fixture
def triangle() -> Max2LinInstance:
    """Unit Max-Cut triangle: the smallest instance with a binding triangle
    inequality (OPT = 2, plain SDP value = 2.25)."""
    return parse_instance(TRIANGLE_TEXT)


@pytest.fixture
def single_edge() -> Max2LinInstance:
    return parse_instance(SINGLE_EDGE_TEXT)


@pytest.fixture
def five_cycle() -> Max2LinInstance:
    return parse_instance(FIVE_CYCLE_TEXT)


def random_instance(rng: np.random.Generator, n: int, avg_deg: float = 3.0) -> Max2LinInstance:
    """Erdos-Renyi-ish signed weighted instance with at least one edge.

    Weights are dyadic rationals (k/8) so reordered float sums stay exact.
    """
    edges = []
    p = min(1.0, avg_deg / max(n - 1, 1))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = (1 + int(rng.integers(1, 16))) / 8.0
                b = -1 if rng.random() < 0.7 else 1
                edges.append((i, j, b, w))
    if not edges:
        edges.append((0, 1, -1, 1.0))
    return Max2LinInstance.from_edges(n, edges)


def traced_peak(fn):
    """(fn(), the peak of the bytes it allocated and tracemalloc traced)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def also_at(module, *settings: dict):
    """Run a test at the default values of module's constants, then once with
    each of settings, a dict from constant names to values."""

    def wrap(test):
        @functools.wraps(test)
        def each(*args, **kwargs):
            test(*args, **kwargs)
            for values in settings:
                with pytest.MonkeyPatch.context() as mp:
                    for constant, value in values.items():
                        mp.setattr(module, constant, value)
                    test(*args, **kwargs)

        return each

    return wrap


def no_factorization(*args):
    raise AssertionError("factored above _FACTOR_MAX_N")


@st.composite
def simple_graphs(draw, max_n: int = 12):
    """(n, edges): any simple graph on 1 to max_n vertices, edges in any
    stored order and orientation, so some vertices may be isolated."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, [(j, i) if flip else (i, j) for (i, j), flip in zip(edges, flips)]


def stored_entries(matrix) -> tuple:
    """(rows, cols, values) of a matrix, in the form cutflip.certify reads: a
    dense array's nonzeros, or a CSR matrix's entries in their stored order."""
    if isinstance(matrix, np.ndarray):
        rows, cols = np.nonzero(matrix)
        return rows, cols, matrix[rows, cols]
    return np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr)), matrix.indices, matrix.data


def counted_choleskys(monkeypatch) -> list:
    """The row counts of every numpy Cholesky from now on, in call order."""
    factored = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda s: factored.append(len(s)) or cholesky(s))
    return factored
