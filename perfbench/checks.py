"""Output checks computed apart from prepdhg.

Each check rebuilds what it needs from the raw inputs with numpy and scipy
(its own divergence stencil, forward differences, LP models) and returns a
list of failure messages; an empty list means the output passed.  Nothing
here imports prepdhg.
"""

import numpy as np
import scipy.optimize as sopt
import scipy.sparse as sp

SIMPLEX_TOL = 1e-9


# -- matrix game -------------------------------------------------------------

def game_value(K):
    """Value of min_x max_y <Kx, y> over the simplices, by HiGHS.

    LP: minimize t subject to K x <= t 1, sum(x) = 1, x >= 0.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    m, n = K.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    A_ub = np.hstack([K, -np.ones((m, 1))])
    A_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    bounds = [(0.0, None)] * n + [(None, None)]
    res = sopt.linprog(c, A_ub=A_ub, b_ub=np.zeros(m), A_eq=A_eq, b_eq=[1.0],
                       bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"game LP failed: {res.message}")
    return float(res.fun)


def simplex_violation(v):
    v = np.asarray(v, dtype=float).ravel()
    return max(float(-v.min()), abs(float(v.sum()) - 1.0))


def check_game(K, x, y, value, gap_bound):
    """(x, y) lie on the simplices and max(Kx), min(K^T y) bracket the value.

    For simplex points, min(K^T y) <= value <= max(Kx) holds exactly, and
    the bracket width is the duality gap of the pair.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    fails = []
    for name, v in (("x", x), ("y", y)):
        viol = simplex_violation(v)
        if not viol <= SIMPLEX_TOL:
            fails.append(f"{name} off the simplex by {viol:.3g}")
    upper = float(np.max(K @ np.asarray(x, dtype=float)))
    lower = float(np.min(K.T @ np.asarray(y, dtype=float)))
    if not lower <= value + SIMPLEX_TOL:
        fails.append(f"min(K^T y) = {lower:.12g} above the game value {value:.12g}")
    if not upper >= value - SIMPLEX_TOL:
        fails.append(f"max(Kx) = {upper:.12g} below the game value {value:.12g}")
    if not upper - lower <= gap_bound:
        fails.append(f"duality gap {upper - lower:.3g} exceeds {gap_bound:g}")
    return fails


# -- grid flux (earth mover's distance) --------------------------------------

def divergence(flux, M, N, h):
    """h * (m1[i,j] - m1[i-1,j] + m2[i,j] - m2[i,j-1]), zero outside the grid.

    ``flux`` stacks the row-major (M, N) components m1 (vertical) and m2
    (horizontal), one column per flux; m1[M-1, :] and m2[:, N-1] carry no
    flux.
    """
    flux = np.asarray(flux, dtype=float)
    m1 = flux[:M * N].reshape(M, N, -1).copy()
    m2 = flux[M * N:].reshape(M, N, -1).copy()
    m1[M - 1, :] = 0.0
    m2[:, N - 1] = 0.0
    d = m1 + m2
    d[1:, :] -= m1[:-1, :]
    d[:, 1:] -= m2[:, :-1]
    return h * d.reshape((M * N,) + flux.shape[1:])


def flux_objective(flux, M, N):
    flux = np.asarray(flux, dtype=float).ravel()
    return float(np.sum(np.hypot(flux[:M * N], flux[M * N:])))


def flux_lower_bound(rho0, rho1, h, ndir):
    """Minimal flux with each |m_ij| replaced by an inscribed ``ndir``-gon.

    max_k <m, e_k> over ``ndir`` unit directions lies in
    [cos(pi/ndir) |m|, |m|], so the LP optimum L satisfies
    L <= optimum <= L / cos(pi/ndir).
    """
    rho0 = np.atleast_2d(np.asarray(rho0, dtype=float))
    rho1 = np.atleast_2d(np.asarray(rho1, dtype=float))
    M, N = rho0.shape
    mn = M * N
    div = sp.csr_matrix(divergence(np.eye(2 * mn), M, N, h))
    A_eq = sp.hstack([div, sp.csr_matrix((mn, mn))])
    ang = 2.0 * np.pi * np.arange(ndir) / ndir
    eye = sp.identity(mn, format="csr")
    A_ub = sp.vstack([sp.hstack([np.cos(a) * eye, np.sin(a) * eye, -eye])
                      for a in ang]).tocsr()
    c = np.concatenate([np.zeros(2 * mn), np.ones(mn)])
    zero = np.zeros((2, M, N), dtype=bool)
    zero[0, M - 1, :] = True
    zero[1, :, N - 1] = True
    bounds = [(0.0, 0.0) if z else (None, None) for z in zero.ravel()]
    bounds += [(0.0, None)] * mn
    res = sopt.linprog(c, A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]),
                       A_eq=A_eq.tocsr(), b_eq=(rho0 - rho1).ravel(),
                       bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"flux LP failed: {res.message}")
    return float(res.fun)


def check_flux(rho0, rho1, h, flux, lower, ndir, feas_bound, slack):
    """Feasibility by the stencil above and the objective inside the LP bracket.

    ``slack`` is the relative room allowed on each side of
    [lower, lower / cos(pi/ndir)] for a solution that is feasible only up to
    ``feas_bound``.
    """
    rho0 = np.atleast_2d(np.asarray(rho0, dtype=float))
    M, N = rho0.shape
    b = (rho0 - np.asarray(rho1, dtype=float)).ravel()
    flux = np.asarray(flux, dtype=float).ravel()
    fails = []
    zero = np.zeros((2, M, N), dtype=bool)
    zero[0, M - 1, :] = True
    zero[1, :, N - 1] = True
    if np.any(flux[zero.ravel()] != 0.0):
        fails.append("nonzero flux on a structural-zero edge")
    feas = float(np.linalg.norm(divergence(flux, M, N, h) - b)
                 / max(np.linalg.norm(b), 1e-300))
    if not feas <= feas_bound:
        fails.append(f"relative feasibility {feas:.3g} exceeds {feas_bound:g}")
    obj = flux_objective(flux, M, N)
    hi = lower / np.cos(np.pi / ndir)
    if not lower * (1.0 - slack) <= obj <= hi * (1.0 + slack):
        fails.append(f"objective {obj:.10g} outside [{lower:.10g}, {hi:.10g}] "
                     f"with slack {slack:g}")
    return fails


# -- TV least squares ----------------------------------------------------------

def forward_difference(M, N):
    """Sparse D with (Dx)[i,j] = x[i,j] - x[i+1,j] (first block, i < M-1) and
    x[i,j] - x[i,j+1] (second block, j < N-1); rows at the far edge are zero."""
    idx = np.arange(M * N).reshape(M, N)
    rows, cols, vals = [], [], []
    for r, c0, c1 in ((idx[:-1, :], idx[:-1, :], idx[1:, :]),
                      (M * N + idx[:, :-1], idx[:, :-1], idx[:, 1:])):
        rows += [r.ravel(), r.ravel()]
        cols += [c0.ravel(), c1.ravel()]
        vals += [np.ones(r.size), -np.ones(r.size)]
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                 np.concatenate(cols))),
                         shape=(2 * M * N, M * N))


def check_tvls(R, b, lam, grid, x, y2, stat_bound, clear=1e-4):
    """First-order optimality of min 1/2||Rx - b||^2 + lam ||Dx||_1.

    Stationarity R^T(Rx - b) + D^T y2 = 0 within ``stat_bound``, |y2| <= lam,
    and y2 = lam * sign(Dx) wherever |Dx| > ``clear``.
    """
    M, N = grid
    R = sp.csr_matrix(R)
    D = forward_difference(M, N)
    x = np.asarray(x, dtype=float).ravel()
    y2 = np.asarray(y2, dtype=float).ravel()
    fails = []
    stat = float(np.linalg.norm(R.T @ (R @ x - b) + D.T @ y2))
    if not stat <= stat_bound:
        fails.append(f"stationarity residual {stat:.3g} exceeds {stat_bound:g}")
    over = float(np.max(np.abs(y2))) - lam
    if not over <= 1e-12 * lam:
        fails.append(f"|y2| exceeds lam by {over:.3g}")
    Dx = D @ x
    act = np.abs(Dx) > clear
    off = float(np.max(np.abs(y2[act] - lam * np.sign(Dx[act])), initial=0.0))
    if not off <= 1e-9 * lam:
        fails.append(f"y2 differs from lam*sign(Dx) by {off:.3g} where |Dx| > {clear:g}")
    return fails
