"""The Gauss-Seidel kernel, pinned bit for bit and against the math.

``BoxQuadBCD`` lays its blocks end to end and builds, once at construction,
the off-block part M - D in that order, each diagonal block's rows scaled
by -D_b^{-1} and each factorized block's negated, beside the factorized
blocks' solves.  A block's update starts from D_b^{-1} c_b and adds the
scaled rows times y in stored order.  ``sgs_solve_reference`` and
``bcd_solve_reference`` run the same arithmetic in the original order,
slicing and scaling each block's rows on every call (``block_update``), so
the results must be identical, not merely close.

``BoxQuadBCD`` is the one kernel of three solves: the box update's
coordinate descent, the inexact Gram-shift solve of ``emd(method="iebalm")``
and, as its ``symmetric_sweep`` (one backward and one forward pass over its
partition), the solve of ``SGSMetric``.  The earlier kernels of these,
``sgs_division_reference`` and ``bcd_division_reference`` (which solved
D_b y_b = c_b - (M - D)_b y, dividing after the product),
``bcd_incremental_reference``, ``two_epoch_solve_reference`` and
``sgs_triangular_reference``, do the same updates in another arithmetic
and are checked to 1e-12.  The last tests
check the sweep against what it computes: the fixed point of the
box-constrained quadratic, and M y = r without a box.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from prepdhg.exceptions import ConfigurationError
from prepdhg.metrics import (BoxQuadBCD, GramShiftMetric, SGSMetric,
                             gram_shift_matrix, spd_solver)
from prepdhg.operators import GridDivergence, Transpose, _csr_matvec_kernel
from prepdhg.problems import emd, red_black_partition

from helpers import random_partition


def block_solver(D, grp):
    """The factorized solve of the diagonal block D[grp][:, grp], or None
    when it has no nonzero off-diagonal entry."""
    block = sp.csr_matrix(D)[grp][:, grp]
    coupled = (block - sp.diags(block.diagonal())).count_nonzero()
    return spd_solver(block) if coupled else None


def block_update(A, grp, dsolve, c, y):
    """One unclipped block update in the kernel's arithmetic, from A sliced
    on this call: c_b / d_b (c_b when ``dsolve`` factorizes the block), plus
    the block's off-block entries, scaled by -1 / d_i (by -1), those not
    zero, times y, added in A's stored order by the CSR kernel, which
    accumulates onto its output; then ``dsolve``."""
    A = sp.csr_matrix(A)
    rows, k = A[grp], len(grp)
    d = np.ones(k) if dsolve else A.diagonal()[grp]
    row = np.repeat(np.arange(k), np.diff(rows.indptr))
    scaled = -rows.data / d[row]
    keep = ~np.isin(rows.indices, grp) & (scaled != 0)
    indptr = np.zeros(k + 1, dtype=rows.indices.dtype)
    indptr[1:] = np.cumsum(np.bincount(row[keep], minlength=k))
    acc = c[grp] / d
    _csr_matvec_kernel(k, A.shape[1], indptr, rows.indices[keep],
                       scaled[keep], y, acc)
    return acc if dsolve is None else dsolve(acc)


def sgs_solve_reference(Q, M, blocks, r):
    """``SGSMetric.solve`` from y = 0: a backward pass over the blocks, then
    a forward pass that skips the first, each block by ``block_update``
    with the factorizations of M.D, every off-block product taken."""
    solvers = [block_solver(M.D, b) for b in blocks]
    y = np.zeros_like(r)
    for order in (range(len(blocks))[::-1], range(1, len(blocks))):
        for i in order:
            y[blocks[i]] = block_update(Q, blocks[i], solvers[i], r, y)
    return y


def sgs_division_reference(Q, M, blocks, r):
    """The earlier sGS sweep: each block solved against Q - D, as
    D_b y_b = r_b - (Q - D)_b y with the product from zero."""
    off = sp.csr_matrix(Q) - M.D
    y = np.zeros_like(r)
    for order in (blocks[::-1], blocks[1:]):
        for b in order:
            y[b] = spd_solver(M.D[b][:, b])(r[b] - off[b, :] @ y)
    return y


def sgs_triangular_reference(Q, blocks, r):
    """The earlier sGS solve: triangular block solves with U and U^T on a
    permuted copy of Q, backward (D + U) w = r, then forward
    x = w - D^{-1} U^T x."""
    perm = np.concatenate(blocks)
    Qp = sp.csr_matrix(Q)[perm][:, perm].tocsr()
    ends = np.cumsum([len(b) for b in blocks])
    sl = [slice(e - len(b), e) for b, e in zip(blocks, ends)]
    dsolve = [spd_solver(Qp[s, s]) for s in sl]
    block_of = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    Qc = Qp.tocoo()
    up = block_of[Qc.row] < block_of[Qc.col]
    U = sp.csr_matrix((Qc.data[up], (Qc.row[up], Qc.col[up])), shape=Qp.shape)
    UT = U.T.tocsr()
    rp = r[perm]
    w = np.zeros_like(rp)
    for i in range(len(sl) - 1, -1, -1):
        w[sl[i]] = dsolve[i](rp[sl[i]] - U[sl[i], :] @ w)
    x = np.zeros_like(rp)
    for i in range(len(sl)):
        x[sl[i]] = w[sl[i]] - dsolve[i](UT[sl[i], :] @ x)
    out = np.empty_like(x)
    out[perm] = x
    return out


def bcd_solve_reference(bcd, y0, r):
    """``BoxQuadBCD.solve``: ``bcd_sweep_reference`` on r + M y0 from y0."""
    return bcd_sweep_reference(bcd, r + bcd.M @ y0, y0)


def bcd_sweep_reference(bcd, c, y0):
    """``BoxQuadBCD.sweep`` from y0, into a new vector: ``epochs`` passes of
    ``block_update`` over the blocks in order, each clipped to the box."""
    solvers = [block_solver(bcd.D, g) for g in bcd.groups]
    y = y0.copy()
    for _ in range(bcd.epochs):
        for grp, dsolve in zip(bcd.groups, solvers):
            y[grp] = np.clip(block_update(bcd.M, grp, dsolve, c, y),
                             -bcd.radius, bcd.radius)
    return y


def bcd_division_reference(bcd, y0, r):
    """The earlier box kernel on diagonal blocks: the off-block product from
    zero, subtracted from c_b, then divided by d_b."""
    off = (bcd.M - sp.diags(bcd.diag)).tocsr()
    c = r + bcd.M @ y0
    y = y0.copy()
    for _ in range(bcd.epochs):
        for grp in bcd.groups:
            v = (c[grp] - off[grp, :] @ y) / bcd.diag[grp]
            y[grp] = np.clip(v, -bcd.radius, bcd.radius)
    return y


def bcd_incremental_reference(bcd, y0, r):
    """The earlier box kernel: it kept g = M (y - y0) up to date by columns."""
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


def two_epoch_solve_reference(gamma, tau, K, theta, blocks, epochs, r):
    """The earlier inexact iebalm solve: sweeps over tau K K^T + theta I,
    divided by gamma afterwards."""
    Mhat = gram_shift_matrix(K, tau, theta)
    diag = Mhat.diagonal()
    delta = np.zeros_like(r)
    for _ in range(epochs):
        for blk in blocks:
            g = Mhat @ delta
            delta[blk] = (r[blk] - g[blk] + diag[blk] * delta[blk]) / diag[blk]
    return delta / gamma


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def random_sparse_spd(rng, n, density=0.3):
    A = sp.random(n, n, density=density, random_state=rng,
                  data_rvs=rng.standard_normal, format="csr")
    return sp.csr_matrix(A @ A.T + sp.diags(rng.uniform(0.5, 2.0, n)))


@pytest.mark.parametrize("nblocks", [1, 2, 3, 4])
def test_sgs_solve_matches_per_call_slicing(nblocks):
    rng = np.random.default_rng(100 + nblocks)
    for _ in range(10):
        n = int(rng.integers(nblocks + 2, 30))
        Q = random_sparse_spd(rng, n)
        blocks = random_partition(rng, n, nblocks)
        M = SGSMetric(Q, blocks)
        for _ in range(3):
            r = rng.standard_normal(n)
            got = M.solve(r)
            assert np.array_equal(got, sgs_solve_reference(Q, M, blocks, r))
            assert rel_err(got, sgs_division_reference(Q, M, blocks, r)) <= 1e-12
            assert rel_err(got, sgs_triangular_reference(Q, blocks, r)) <= 1e-12


def test_sgs_solve_matches_on_red_black_grid():
    # independent-set blocks: every diagonal block is diagonal
    rng = np.random.default_rng(11)
    for grid in ((2, 3), (6, 7), (16, 16)):
        K = GridDivergence(*grid, 1.5)
        Q = gram_shift_matrix(K, 0.75 * 0.03, 1e-6)
        blocks = red_black_partition(*grid)
        M = SGSMetric(Q, blocks)
        d = M.D.diagonal()
        assert (M.D - sp.diags(d)).count_nonzero() == 0
        for _ in range(5):
            r = rng.standard_normal(M.dim)
            got = M.solve(r)
            assert np.array_equal(got, sgs_solve_reference(Q, M, blocks, r))
            assert rel_err(got, sgs_division_reference(Q, M, blocks, r)) <= 1e-12
            assert rel_err(got, sgs_triangular_reference(Q, blocks, r)) <= 1e-12
        # a diagonal block is inverted entrywise, the arithmetic of the box
        # update's colored blocks
        t = rng.standard_normal(M.dim)
        assert np.array_equal(M.kernel.solve_blocks(t.copy()), t / d)


def test_sgs_single_block_is_the_diagonal_solve():
    rng = np.random.default_rng(12)
    Q = random_sparse_spd(rng, 8)
    blocks = [np.arange(8)]
    M = SGSMetric(Q, blocks)
    r = rng.standard_normal(8)
    got = M.solve(r)
    assert np.array_equal(got, spd_solver(Q)(r))
    assert np.array_equal(got, sgs_solve_reference(Q, M, blocks, r))
    assert np.array_equal(got, sgs_division_reference(Q, M, blocks, r))
    assert rel_err(got, sgs_triangular_reference(Q, blocks, r)) <= 1e-12


def test_sgs_solve_runs_passes_not_the_box_solve(monkeypatch):
    # a traced run counts box updates by wrapping BoxQuadBCD.solve; the sGS
    # metric runs the kernel's passes without it
    rng = np.random.default_rng(13)
    M = SGSMetric(random_sparse_spd(rng, 10), random_partition(rng, 10, 3))
    calls = []
    real = BoxQuadBCD.solve
    monkeypatch.setattr(BoxQuadBCD, "solve",
                        lambda self, *a: calls.append(a) or real(self, *a))
    M.solve(rng.standard_normal(10))
    assert not calls


def test_symmetric_sweep_skips_only_a_product_with_zeros():
    # the first block of the backward pass takes no off-block product: on
    # y = 0 each of its terms is a signed zero (M is finite), so the sum
    # from D_b^{-1} c_b differs from D_b^{-1} c_b at most in the sign of a
    # zero, and the kernel adds the zero that decides it, found once at
    # construction; -0.0 in c and negative entries make both signs occur
    # from r = -0 over Q = [[2, -1], [-1, 2]]: y_1 = -0 + (1/2)(+0) = +0, so
    # y_0 = -0 + (1/2) y_1 = +0 and then y_1 = +0; a skip that took y_1 =
    # -0 from c_1 / d_1 alone would end at (-0, -0)
    Q = np.array([[2.0, -1.0], [-1.0, 2.0]])
    M = SGSMetric(Q, [[0], [1]])
    r = np.array([-0.0, -0.0])
    got = M.solve(r)
    assert got.tobytes() == sgs_solve_reference(Q, M, M.kernel.groups,
                                                r).tobytes()
    assert got.tobytes() == np.zeros(2).tobytes()
    rng = np.random.default_rng(14)
    for nblocks in (1, 2, 3, 5):
        n = 15
        Q = random_sparse_spd(rng, n)
        assert (Q.data < 0).any()
        blocks = random_partition(rng, n, nblocks)
        M = SGSMetric(Q, blocks)
        for _ in range(3):
            r = rng.standard_normal(n)
            r[rng.random(n) < 0.4] = -0.0
            r[rng.random(n) < 0.2] = 0.0
            want = sgs_solve_reference(Q, M, blocks, r)
            assert M.solve(r).tobytes() == want.tobytes()
            assert M.kernel.symmetric_sweep(r).tobytes() == want.tobytes()


@pytest.mark.parametrize("entry", [(0, 1), (1, 1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bcd_refuses_a_non_finite_matrix(entry, bad):
    # a NaN diagonal passes the positivity test, so finiteness is its own
    A = np.array([[2.0, 0.5], [0.5, 2.0]])
    A[entry] = bad
    with pytest.raises(ConfigurationError, match="finite"):
        BoxQuadBCD(sp.csr_matrix(A), np.inf, blocks=[[0], [1]])


@pytest.mark.parametrize("bad", [2.5, 2.0, np.nan, np.inf, 0, -1, "2", None])
def test_bcd_refuses_an_epoch_count_that_is_not_a_positive_integer(bad):
    # int(epochs) ran 2 epochs for 2.5 and raised a bare ValueError for NaN
    with pytest.raises(ConfigurationError,
                       match="epochs must be a positive integer"):
        BoxQuadBCD(np.eye(3), 1.0, epochs=bad)


def test_inexact_gram_shift_refuses_a_fractional_epoch_count_at_set_up():
    with pytest.raises(ConfigurationError, match="epochs"):
        GramShiftMetric(1.0, 0.1, GridDivergence(4, 4, 1.0), theta=0.0,
                        epochs=2.5)
    rng = np.random.default_rng(1)
    r0, r1 = rng.random((4, 4)), rng.random((4, 4))
    with pytest.raises(ConfigurationError, match="epochs"):
        emd(r0 / r0.sum(), r1 / r1.sum(), 1.0, 0.1, 1.0, method="iebalm",
            bcd_epochs=2.5)


@pytest.mark.parametrize("radius", [np.inf, 0.5])
@pytest.mark.parametrize("nblocks", [1, 2, 5])
def test_kernel_never_writes_its_inputs(nblocks, radius):
    # the kernel works on its own copies in the blocks' order: building it
    # leaves M as it was, solve and symmetric_sweep leave their inputs, and
    # sweep writes only y, in place, as documented; random partitions give
    # factorized blocks
    rng = np.random.default_rng(700 + nblocks)
    n = 15
    Q = random_sparse_spd(rng, n)
    Q_in = [a.copy() for a in (Q.indptr, Q.indices, Q.data)]
    blocks = random_partition(rng, n, nblocks)
    bcd = BoxQuadBCD(Q, radius, 2, blocks)
    assert all(np.array_equal(a, b)
               for a, b in zip((Q.indptr, Q.indices, Q.data), Q_in))
    assert any(block_solver(bcd.D, b) is not None for b in blocks)
    y0 = rng.uniform(-0.5, 0.5, n)
    r = rng.standard_normal(n)
    y0_in, r_in = y0.copy(), r.copy()
    got = bcd.solve(y0, r)
    assert got is not y0
    assert y0.tobytes() == y0_in.tobytes() and r.tobytes() == r_in.tobytes()
    assert np.array_equal(got, bcd_solve_reference(bcd, y0, r))
    y = y0.copy()
    assert bcd.sweep(r, y) is y
    assert r.tobytes() == r_in.tobytes()
    assert np.array_equal(y, bcd_sweep_reference(bcd, r, y0))
    got = bcd.symmetric_sweep(r)
    assert got is not r and r.tobytes() == r_in.tobytes()
    if radius == np.inf:
        assert np.array_equal(got, sgs_solve_reference(Q, bcd, blocks, r))


def test_emd_solves_keep_their_iteration_counts():
    # the kernel's arithmetic moved at rounding level when its rows were
    # scaled by D_b^{-1}; these 8x8 solves kept their iteration counts
    rng = np.random.default_rng(0)
    r0, r1 = rng.random((8, 8)), rng.random((8, 8))
    r0, r1 = r0 / r0.sum(), r1 / r1.sum()
    sgs = emd(r0, r1, 7 / 4, 10 ** -1.5, 0.75, method="sgs", max_iter=3000,
              record_every=7).solve()
    iebalm = emd(r0, r1, 7 / 4, 10 ** -1.5, 1.0, method="iebalm",
                 max_iter=3000, record_every=7).solve()
    assert (sgs.status, sgs.iters) == ("converged", 493)
    assert (iebalm.status, iebalm.iters) == ("converged", 435)


def test_emd_sgs_solve_is_the_reference_sweep_bit_for_bit(monkeypatch):
    # the symmetric sweep skips the first backward product; swapped for the
    # per-call reference, which takes every product, an 8x8 emd solve and
    # the s_hat of its condition check must come out bitwise the same
    rng = np.random.default_rng(0)
    r0, r1 = rng.random((8, 8)), rng.random((8, 8))
    r0, r1 = r0 / r0.sum(), r1 / r1.sum()

    def run():
        return emd(r0, r1, 7 / 4, 10 ** -1.5, 0.75, method="sgs",
                   max_iter=3000, record_every=7).solve()

    got = run()
    calls = []

    def reference(self, c):
        calls.append(1)
        return sgs_solve_reference(self.M, self, self.groups, c)

    monkeypatch.setattr(BoxQuadBCD, "symmetric_sweep", reference)
    want = run()
    assert len(calls) > want.iters
    assert got.status == want.status == "converged"
    assert got.iters == want.iters
    assert got.x_final.tobytes() == want.x_final.tobytes()
    assert got.y_final.tobytes() == want.y_final.tobytes()
    assert got.condition.s_hat.hex() == want.condition.s_hat.hex()
    assert got.stop_residual.hex() == want.stop_residual.hex()

    def rows(rep):
        return [(h.k, h.rhat_full.hex(), h.rhat_half.hex())
                for h in rep.history]
    assert rows(got) == rows(want)


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
        assert rel_err(got, bcd_division_reference(bcd, y0, r)) <= 1e-12
        assert rel_err(got, bcd_incremental_reference(bcd, y0, r)) <= 1e-12
        on_bound = np.abs(got) == radius
        assert on_bound.any() and not on_bound.all()


@pytest.mark.parametrize("seed", range(4))
def test_diagonal_blocks_solve_as_the_factorized_blocks(seed):
    # a block without a nonzero off-diagonal entry of its own skips
    # ``spd_solver``; its entrywise r / d is the solver's diagonal branch on
    # the same values
    rng = np.random.default_rng(250 + seed)
    n = int(rng.integers(10, 40))
    M = random_sparse_spd(rng, n, density=0.15)
    for bcd in (BoxQuadBCD(M, 0.5),
                BoxQuadBCD(M, np.inf, blocks=random_partition(rng, n, 3))):
        t = rng.standard_normal(n)
        got = bcd.solve_blocks(t.copy())
        for grp in bcd.groups:
            block, r = bcd.D[grp][:, grp], t[grp]
            assert np.array_equal(got[grp], spd_solver(block)(r))
            if (block - sp.diags(bcd.diag[grp])).count_nonzero() == 0:
                assert np.array_equal(got[grp], r / bcd.diag[grp])


def test_stored_zeros_leave_a_block_diagonal():
    # blocks {0, 1} and {2, 3}; the first stores explicit zeros at (0, 1)
    rows = [0, 0, 1, 1, 2, 3, 0, 2, 2, 3]
    cols = [0, 1, 0, 1, 2, 3, 2, 0, 3, 2]
    vals = [2.0, 0.0, 0.0, 3.0, 4.0, 5.0, 0.5, 0.5, 1.0, 1.0]
    M = sp.csr_matrix((vals, (rows, cols)), shape=(4, 4))
    assert M.nnz == 10
    bcd = BoxQuadBCD(M, np.inf, blocks=[[0, 1], [2, 3]])
    t = np.array([1.0, -2.0, 1.0, -2.0])  # the same r in both blocks
    got = bcd.solve_blocks(t.copy())
    for grp in bcd.groups:
        assert np.array_equal(got[grp],
                              spd_solver(bcd.D[grp][:, grp])(t[grp]))
    assert np.array_equal(got[:2], t[:2] / np.array([2.0, 3.0]))


def test_box_pass_clips_as_np_clip_bit_for_bit():
    # over M = I a pass is the clip of c alone; the kernel clips in place by
    # np.minimum(np.maximum(v, lo), hi), equal to np.clip on NaN and -0.0 too
    rng = np.random.default_rng(260)
    radius = 0.5
    c = np.concatenate([rng.uniform(-2, 2, 200), [np.nan, 0.0, -0.0, np.inf,
                        -np.inf, radius, -radius, np.nextafter(radius, 1)]])
    got = BoxQuadBCD(sp.identity(c.size), radius, epochs=1).sweep(
        c, np.zeros_like(c))
    assert got.tobytes() == np.clip(c, -radius, radius).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_swept_gram_shift_matches_the_two_epoch_solve(seed):
    rng = np.random.default_rng(300 + seed)
    for theta in (0.0, float(rng.uniform(1e-6, 1e-2))):
        Mg, Ng = (int(v) for v in rng.integers(2, 8, size=2))
        K = GridDivergence(Mg, Ng, float(rng.uniform(0.5, 3.0)))
        gamma, tau = float(rng.uniform(0.75, 1.5)), float(rng.uniform(0.01, 0.5))
        epochs = int(rng.integers(1, 4))
        M = GramShiftMetric(gamma, tau, K, theta=gamma * theta, epochs=epochs)
        r = rng.standard_normal(K.rows)
        got = M.solve(r)
        want = two_epoch_solve_reference(gamma, tau, K, theta,
                                         red_black_partition(Mg, Ng), epochs, r)
        assert rel_err(got, want) <= 1e-12
        # without a box the sweep is the same arithmetic as the box kernel's
        bcd = BoxQuadBCD(M.to_sparse(), np.inf, epochs)
        assert np.array_equal(got, bcd_solve_reference(bcd, np.zeros_like(r), r))
        assert rel_err(got, bcd_division_reference(
            bcd, np.zeros_like(r), r)) <= 1e-12


@pytest.mark.parametrize("grid", [(1, 2), (1, 9), (2, 1), (6, 1), (2, 2),
                                  (3, 3), (4, 5), (7, 6), (32, 20)])
def test_gram_shift_coloring_is_red_black(grid):
    # the iebalm sweep colors its Gram shift greedily; the coloring is the
    # red-black partition the earlier solve was given, in the same order
    want = red_black_partition(*grid)
    for h, scale, theta in ((1.0, 0.75, 0.0), (0.6, 0.03, 1e-6), (3.0, 1.2, 1e-2)):
        K = GridDivergence(*grid, h)
        groups = BoxQuadBCD(gram_shift_matrix(K, scale, theta), np.inf, 1).groups
        assert len(groups) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(groups, want))


def greedy_coloring_reference(M):
    """The first-fit coloring by numpy scalar indexing, as ``BoxQuadBCD``
    ran it before it ran on Python lists: the partition it gives."""
    M = sp.csr_matrix(M)
    n = M.shape[0]
    block_of = -np.ones(n, dtype=int)
    indptr, indices = M.indptr, M.indices
    for j in range(n):
        used = {block_of[i] for i in indices[indptr[j]:indptr[j + 1]]
                if i != j and block_of[i] >= 0}
        c = 0
        while c in used:
            c += 1
        block_of[j] = c
    return [np.nonzero(block_of == c)[0] for c in range(block_of.max() + 1)]


def _random_spd(n, density, seed):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=density, random_state=rng, format="csr")
    return (A @ A.T + n * sp.eye(n)).tocsr()


@pytest.mark.parametrize("matrix", [
    lambda: gram_shift_matrix(Transpose(GridDivergence(16, 16, 1.0)),
                              0.01, 1e-3),
    lambda: gram_shift_matrix(Transpose(GridDivergence(8, 8, 1.0)),
                              0.05, 1e-3),
    lambda: _random_spd(120, 0.03, 5)], ids=["tvls16", "tvls8", "random"])
def test_greedy_coloring_is_the_earlier_partition(matrix):
    # the tvls box update's dual Gram shifts (the gradient's) and a random
    # sparse SPD matrix: the same blocks, in the same order
    M = matrix()
    want = greedy_coloring_reference(M)
    got = BoxQuadBCD(M, 1.0).groups
    assert len(want) > 1 and len(got) == len(want)
    assert all(g.dtype == w.dtype and np.array_equal(g, w)
               for g, w in zip(got, want))


@pytest.mark.parametrize("seed", range(4))
def test_box_solve_meets_the_box_qp_fixed_point(seed):
    # y minimizes 1/2 ||y - y0||_M^2 - <r, y> over the box exactly when
    # y = clip(y - (M (y - y0) - r))
    rng = np.random.default_rng(400 + seed)
    n = int(rng.integers(5, 20))
    M = random_sparse_spd(rng, n)
    radius = 0.5
    y0 = rng.uniform(-radius, radius, n)
    r = 3.0 * rng.standard_normal(n)
    y = BoxQuadBCD(M, radius, epochs=200).solve(y0, r)
    grad = M @ (y - y0) - r
    assert np.linalg.norm(y - np.clip(y - grad, -radius, radius)) <= 1e-10
    assert np.any(np.abs(y) == radius)


@pytest.mark.parametrize("seed", range(4))
def test_box_free_sweep_solves_the_linear_system(seed):
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(5, 20))
    M = random_sparse_spd(rng, n)
    r = rng.standard_normal(n)
    y = BoxQuadBCD(M, np.inf, epochs=200).sweep(r, np.zeros(n))
    assert np.linalg.norm(M @ y - r) <= 1e-10 * np.linalg.norm(r)


def test_box_solve_never_leaves_the_box():
    rng = np.random.default_rng(600)
    for _ in range(200):
        n = int(rng.integers(3, 15))
        M = random_sparse_spd(rng, n)
        radius = float(rng.uniform(0.1, 2.0))
        # starts on and inside the bound, with steps that overshoot it
        y0 = radius * rng.choice([-1.0, 1.0, 0.3], n)
        r = 10.0 * rng.standard_normal(n)
        y = BoxQuadBCD(M, radius, epochs=int(rng.integers(1, 4))).solve(y0, r)
        assert np.all(np.abs(y) <= radius)
