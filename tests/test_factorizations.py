"""Pinned dense-factorization counts of calls that share one SVD per matrix.

A counter wraps ``numpy.linalg.svd``, ``eigh`` and ``inv``; ``norm`` of
order 2, -2 or 'nuc' and ``matrix_rank`` count as one SVD each, because
numpy runs one inside them.  A change that factorizes a matrix again, or
re-derives a subspace basis its SVD already holds, moves these counts.
"""

from collections import Counter

import numpy as np
import pytest

from pinvlab import generate, polar, strata
from pinvlab.matcore import OP_NORM

D = 16


@pytest.fixture
def count(monkeypatch):
    counts = Counter()

    def wrap(name, kind, counts_call=lambda *args, **kwargs: True):
        orig = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            if counts_call(*args, **kwargs):
                counts[kind] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    for name in ("svd", "eigh", "inv"):
        wrap(name, name)
    wrap("matrix_rank", "svd")
    wrap("norm", "svd", lambda x, ord=None, *args, **kwargs: ord in (2, -2, "nuc"))

    def run(call):
        counts.clear()
        call()
        return dict(counts)
    return run


@pytest.fixture
def inputs():
    rng = generate.rng_from_seed(0)
    a = generate.fixed_rank(rng, D, D, D // 2)
    b = generate.rank_preserving_perturbation(rng, a, 0.05)
    seq = generate.in_stratum_family(rng, a, 8)
    return a, b, seq


def test_counter_sees_hidden_svds(count):
    x = np.eye(3)
    assert count(lambda: (np.linalg.norm(x, 2), np.linalg.norm(x),
                          np.linalg.matrix_rank(x))) == {"svd": 2}


def test_stratum_index_counts(count, inputs):
    a, b, _ = inputs
    # one SVD of each matrix and four principal-angle SVDs; no eigh
    assert count(lambda: strata.stratum_index(b, a)) == {"svd": 6}


def test_continuity_report_counts(count, inputs):
    a, _, seq = inputs
    # B once; per term its SVD, four principal-angle SVDs, the pseudoinverse
    # gap, the null-projector gap and the intersection; the last input gap
    report = count(lambda: strata.continuity_report(a, seq, n0=2, g=OP_NORM))
    assert report == {"svd": 1 + 8 * 8 + 1}


def test_trivialize_alpha_round_trip_counts(count, inputs):
    a, b, _ = inputs
    c0 = polar.polar_decompose(a).modulus

    def round_trip():
        mod, fib = polar.trivialize_alpha(b, c0, a)
        polar.trivialize_alpha_inverse(mod, fib, c0)
    assert count(round_trip) == {"svd": 32, "eigh": 8, "inv": 2}
