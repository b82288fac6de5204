import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinvlab import generate
from pinvlab.errors import PreconditionError
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



# every shape of rank at most 2
GENERATORS = {
    "fixed_rank": lambda rng, r: generate.fixed_rank(rng, 2, 3, r),
    "psd_fixed_rank": lambda rng, r: generate.psd_fixed_rank(rng, 2, r),
    "partial_isometry": lambda rng, r: generate.partial_isometry(rng, 2, 3, r),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("r", [-1, 3, 1.5, np.float64(1.0), True])
def test_generators_refuse_an_infeasible_rank_before_any_draw(name, r):
    # these raised numpy's ValueError or a TypeError, or gave a partial
    # isometry of another rank (True, and -1 on a square shape)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(PreconditionError, match="rank"):
        GENERATORS[name](rng, r)
    assert rng.bit_generator.state == state
    for ok in (0, 1, np.int64(2)):
        assert svd(GENERATORS[name](rng, ok)).rank == ok
