import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from pinvlab import generate
from pinvlab.matcore import svd

seeds = st.integers(min_value=0, max_value=10_000)
dims = st.integers(min_value=1, max_value=64)
scales = st.sampled_from([1e-3, 0.05, 0.4])
EPS = np.finfo(float).eps


@given(seeds, dims, scales)
def test_near_identity_is_scale_from_the_identity_in_frobenius_norm(seed, n, scale):
    g = generate.near_identity(np.random.default_rng(seed), n, scale) - np.eye(n)
    # forming I + g rounds each diagonal entry by up to eps/2 absolute, a
    # relative error near 1e-13 at scale 1e-3: sqrt(n) eps absolute covers it
    slack = 1e-14 * scale + np.sqrt(n) * EPS
    assert abs(np.linalg.norm(g) - scale) <= slack
    # ||g|| <= ||g||_F: the operator-norm promise follows
    assert np.linalg.norm(g, 2) <= scale + slack


@given(seeds, dims, dims, st.integers(min_value=0, max_value=64), scales)
def test_rank_preserving_perturbation_keeps_the_rank(seed, m, n, r, scale):
    rng = np.random.default_rng(seed)
    b = generate.fixed_rank(rng, m, n, min(r, m, n))
    out = generate.rank_preserving_perturbation(rng, b, scale)
    assert svd(out).rank == svd(b).rank
    # ||(I + X) B (I + Y) - B|| <= (||X|| + ||Y|| + ||X|| ||Y||) ||B||
    norm_b = np.linalg.norm(b, 2)
    assert np.linalg.norm(out - b, 2) <= scale * (2 + scale) * norm_b + 1e-12 * norm_b
