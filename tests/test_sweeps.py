"""The three Gauss-Seidel sweeps, pinned bit for bit.

``SGSMetric``, ``BoxQuadBCD`` and ``TwoEpochGramSolve`` build their
per-block sparse slices once at construction.  The reference functions
below are the earlier kernels, which sliced the sparse matrix for every
block on every call; a slice sums the same nonzeros in the same order, so
the results must be identical, not merely close.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from prepdhg.metrics import SGSMetric, gram_shift_matrix
from prepdhg.operators import GridDivergence
from prepdhg.problems import TwoEpochGramSolve, red_black_partition
from prepdhg.solver import BoxQuadBCD

from helpers import random_partition


def sgs_solve_reference(M, r):
    r = np.asarray(r, dtype=float).ravel()[M.perm]
    w = np.zeros_like(r)
    for i in range(M.nblocks - 1, -1, -1):
        si = M._slices[i]
        rhs = r[si] - M.U[si, :] @ w
        w[si] = M._dsolve[i](rhs)
    x = np.zeros_like(r)
    for i in range(M.nblocks):
        si = M._slices[i]
        x[si] = w[si] - M._dsolve[i](M.UT[si, :] @ x)
    return x[M.inv_perm]


def bcd_solve_reference(bcd, y0, r):
    Mc = bcd.M.tocsc()
    delta = np.zeros_like(y0)
    g = np.zeros_like(y0)
    for _ in range(bcd.epochs):
        for grp in bcd.groups:
            step = delta[grp] + (r[grp] - g[grp]) / bcd.diag[grp]
            new = np.clip(y0[grp] + step, -bcd.radius, bcd.radius) - y0[grp]
            change = new - delta[grp]
            if np.any(change):
                delta[grp] = new
                g += Mc[:, grp] @ change
    return y0 + delta


def two_epoch_solve_reference(M, r):
    delta = np.zeros_like(r)
    for _ in range(M.epochs):
        for blk in M.blocks:
            g = M.Mhat @ delta
            delta[blk] = (r[blk] - g[blk] + M.diag[blk] * delta[blk]) \
                / M.diag[blk]
    return delta / M.gamma


def random_sparse_spd(rng, n, density=0.3):
    A = sp.random(n, n, density=density, random_state=rng,
                  data_rvs=rng.standard_normal, format="csr")
    return sp.csr_matrix(A @ A.T + sp.diags(rng.uniform(0.5, 2.0, n)))


@pytest.mark.parametrize("nblocks", [2, 3, 4])
def test_sgs_solve_matches_per_call_slicing(nblocks):
    rng = np.random.default_rng(100 + nblocks)
    for _ in range(10):
        n = int(rng.integers(nblocks + 2, 30))
        M = SGSMetric(random_sparse_spd(rng, n),
                      random_partition(rng, n, nblocks))
        for _ in range(3):
            r = rng.standard_normal(n)
            assert np.array_equal(M.solve(r), sgs_solve_reference(M, r))


def test_sgs_solve_matches_on_red_black_grid():
    # independent-set blocks: every diagonal block is diagonal
    rng = np.random.default_rng(11)
    K = GridDivergence(6, 7, 1.5)
    M = SGSMetric(gram_shift_matrix(K, 0.75 * 0.03, 1e-6),
                  red_black_partition(6, 7))
    d = M.D.diagonal()
    assert (M.D - sp.diags(d)).count_nonzero() == 0
    for _ in range(5):
        r = rng.standard_normal(M.dim)
        assert np.array_equal(M.solve(r), sgs_solve_reference(M, r))
    # a diagonal block is inverted entrywise, as before the blocks were
    # factorized through spd_solver
    for ds, si in zip(M._dsolve, M._slices):
        r = rng.standard_normal(si.stop - si.start)
        assert np.array_equal(ds(r), r / d[si])


def test_sgs_single_block_is_the_diagonal_solve():
    rng = np.random.default_rng(12)
    Q = random_sparse_spd(rng, 8)
    M = SGSMetric(Q, [np.arange(8)])
    r = rng.standard_normal(8)
    assert np.array_equal(M.solve(r), sgs_solve_reference(M, r))


@pytest.mark.parametrize("seed", range(4))
def test_bcd_solve_matches_per_call_slicing(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(10, 40))
    M = random_sparse_spd(rng, n, density=0.15)
    radius = 0.5
    bcd = BoxQuadBCD(M, radius, epochs=int(rng.integers(1, 4)))
    assert len(bcd.groups) >= 2
    for _ in range(3):
        y0 = rng.uniform(-radius, radius, n)
        r = 3.0 * rng.standard_normal(n)
        got = bcd.solve(y0, r)
        assert np.array_equal(got, bcd_solve_reference(bcd, y0, r))
        on_bound = np.abs(got) == radius
        assert on_bound.any() and not on_bound.all()


@pytest.mark.parametrize("nblocks", [2, 3, 4])
def test_two_epoch_solve_matches_per_call_slicing(nblocks):
    rng = np.random.default_rng(300 + nblocks)
    for _ in range(5):
        Mg, Ng = (int(v) for v in rng.integers(2, 8, size=2))
        K = GridDivergence(Mg, Ng, float(rng.uniform(0.5, 3.0)))
        blocks = random_partition(rng, K.rows, nblocks)
        M = TwoEpochGramSolve(float(rng.uniform(0.75, 1.5)),
                              float(rng.uniform(0.01, 0.5)), K,
                              float(rng.uniform(1e-6, 1e-2)), blocks,
                              epochs=int(rng.integers(1, 4)))
        r = rng.standard_normal(K.rows)
        assert np.array_equal(M.solve(r), two_epoch_solve_reference(M, r))
