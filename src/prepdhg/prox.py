"""Catalog of proximable convex functions.

Each entry evaluates the function (returning ``inf`` outside the domain of
an indicator) and computes the proximal point under a scalar or diagonal
metric D = diag(d):

    prox_f^D(v) = argmin_z  f(z) + 1/2 ||z - v||_D^2.

An entry implements one method, ``prox_at(d)``: it checks the weights once
and returns the map ``v -> prox_f^D(v)``, which checks nothing and expects a
float vector of length ``dim``.  ``prox(v, d)`` derives from it and also
checks ``v``.  Weights may also be a (B, dim) block, one row of weights
per row of a (B, dim) block of points; the map then treats each row on its
own, by the arithmetic of that row alone.

``step(M)`` builds the solver's subproblem argmin_z h(z) + <q, z> +
1/2 ||z - w||_M^2 once per solve, as a ``Step`` named after the first case
below that fits (the last column).  A step holds two halves, ``point(w, q)
-> z`` and ``diff(w, q, z) -> M (z - w)``, so the solver can form the
difference only on the steps that read it, by the step's own arithmetic;
calling it returns ``(z, M (z - w))``.  Four entries implement
``metric_step(M)`` for the non-diagonal metrics they have a step for:

    M diagonal                     h.prox_at(diag M)                  prox
    h = <b, .>                     z = w - M^{-1} (q + b)             linear
    h = 1/2 ||. - c||^2            one solve with M + I               shifted
    h separable, M block-diagonal  one update per block               blockwise
    h = indicator of a box         clipped Gauss-Seidel (BoxQuadBCD)  box

``sigma`` is the strong-convexity diagonal of the entry (all zeros unless
the function has a quadratic part).
"""

import math
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

from .exceptions import ConfigurationError
from .metrics import BlockDiagMetric, BoxQuadBCD, as_vector, spd_solver


def _as_diag(d, dim):
    d = np.asarray(d, dtype=float)
    if d.ndim == 0:
        d = np.full(dim, float(d))
    if d.ndim > 2 or d.shape[-1] != dim:
        raise ValueError(f"metric diagonal has shape {d.shape}, expected "
                         f"length {dim}")
    if not np.all(d > 0):
        raise ValueError("metric diagonal must be strictly positive")
    return d


_SIMPLEX_KS = {}  # n -> 1..n, the ranks of the sorted rule
_SIMPLEX_ROWS = {}  # B -> 0..B-1, the rows of a block


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based), of a
    vector or of each row of a (B, n) block.

    The active set of the sorted thresholding rule is a prefix, so its size
    is the count of indices with k*u_k > cumsum(u)_k - 1.  No index passes
    when a finite u_1 is so large that u_1 - 1 rounds to u_1; such a row is
    projected as v - u_1, whose projection is the same and whose u_1 - 1 is
    -1.  The arithmetic of every other row, a NaN or inf one too, is the
    rule's own.
    """
    if not (type(v) is np.ndarray and v.ndim in (1, 2)
            and v.dtype == np.float64):
        v = np.asarray(v, dtype=float).ravel()
    n = v.shape[-1]
    if n < 1:
        raise ValueError("empty input")
    ks = _SIMPLEX_KS.get(n)
    if ks is None:
        ks = _SIMPLEX_KS.setdefault(n, np.arange(1.0, n + 1.0))
    # np.sort and np.cumsum, without their Python wrappers
    u = v.copy()
    u.sort(axis=-1)
    u = u[..., ::-1]
    css1 = np.add.accumulate(u, axis=-1)  # cumsum(u) - 1, in place
    css1 -= 1.0
    active = u * ks > css1
    if v.ndim == 1:
        size = np.count_nonzero(active)
        if not size and u[0] < math.inf:
            return project_simplex(v - u[0])
        theta = css1[size - 1] / size
    else:
        size = np.add.reduce(active, axis=1)
        if np.count_nonzero(size) < size.size:
            lost = (size == 0) & (u[:, 0] < math.inf)
            if lost.any():  # the other rows shift by 0
                return project_simplex(
                    v - np.where(lost, u[:, 0], 0.0)[:, None])
        rows = _SIMPLEX_ROWS.get(size.size)
        if rows is None:
            rows = _SIMPLEX_ROWS.setdefault(size.size, np.arange(size.size))
        theta = (css1[rows, size - 1] / size)[:, None]
    z = v - theta
    np.maximum(z, 0.0, out=z)
    return z


def project_simplex_weighted(v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """argmin 1/2||z - v||_D^2 over the simplex, exact breakpoint search.

    Some z_i > 0 needs lam < d_i v_i, so for a finite v a lam at or above
    every breakpoint means the 1 of the search was lost to rounding against
    huge entries.  Such a v is projected as v - top/d, top the largest
    breakpoint, whose projection is the same and whose lam is lower by top.
    """
    v = np.asarray(v, dtype=float).ravel()
    d = _as_diag(d, v.size)
    # z_i = max(0, v_i - lam/d_i); find lam with sum(z) = 1
    bp = d * v
    order = np.argsort(bp)[::-1]
    vs = v[order]
    ws = 1.0 / d[order]
    bps = bp[order]
    cand = (np.cumsum(vs) - 1.0) / np.cumsum(ws)
    # the first k with bps[k+1] < cand[k] <= bps[k], else the last
    ok = (np.append(bps[1:], -np.inf) < cand) & (cand <= bps + 1e-15)
    lam = cand[ok.argmax() if ok.any() else -1]
    if lam >= bps[0] and bps[0] < math.inf:
        return project_simplex_weighted(v - bps[0] / d, d)
    return np.maximum(v - lam / d, 0.0)


class Step(NamedTuple):
    """The subproblem update ``name`` as its halves ``point(w, q) -> z`` and
    ``diff(w, q, z) -> M (z - w)``.  Calling it returns ``(z, M (z - w))``;
    the halves called apart on the same inputs give the same bits."""

    name: str
    point: Callable
    diff: Callable

    def __call__(self, w, q):
        z = self.point(w, q)
        return z, self.diff(w, q, z)


class Proximable:
    """Base class; subclasses set ``dim`` and ``sigma`` and implement prox_at."""

    dim: int

    def __init__(self, dim):
        self.dim = int(dim)
        self.sigma = np.zeros(self.dim)

    def __call__(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def prox(self, v: np.ndarray, d) -> np.ndarray:
        return self.prox_at(d)(as_vector(v, self.dim))

    def prox_at(self, d):
        """``v -> prox(v, d)`` for weights ``d`` fixed for a whole solve; raises
        on bad weights here, once, and the map checks nothing and keeps v."""
        raise NotImplementedError

    def step(self, M):
        """The module docstring's subproblem, as a ``Step``."""
        d = M.diagonal()
        return self.metric_step(M) if d is None else self.prox_step(d)

    def prox_step(self, d):
        """``step`` under M = diag(d), by ``prox_at(d)`` at w - q * (1/d); with
        (B, dim) weights it updates rows, each under its own row of weights."""
        hprox, inv_d = self.prox_at(d), 1.0 / d
        return Step("prox", lambda w, q: hprox(w - q * inv_d),
                    lambda w, q, z: d * (z - w))

    def linear_term(self):
        """b when the entry is the linear function <b, .>, else None."""
        return None

    def metric_step(self, M):
        """``step`` under a non-diagonal M; raises for an unsupported M."""
        raise ConfigurationError(f"unsupported (h={type(self).__name__}, "
                                 f"M={type(M).__name__}) pair")


class Linear(Proximable):
    """f(x) = <b, x>."""

    def __init__(self, b):
        b = np.asarray(b, dtype=float).ravel()
        super().__init__(b.size)
        self.b = b

    def __call__(self, x):
        return float(np.dot(self.b, as_vector(x, self.dim)))

    def linear_term(self):
        return self.b

    def prox_at(self, d):
        shift = self.b / _as_diag(d, self.dim)
        return lambda v: v - shift

    def metric_step(self, M):
        b = self.b
        # M (z - w) = -(q + b)
        return Step("linear", lambda w, q: w - M.solve(q + b),
                    lambda w, q, z: -(q + b))


class Zero(Linear):
    """f = 0, the linear function with b = 0."""

    def __init__(self, dim):
        super().__init__(np.zeros(int(dim)))

    def prox_at(self, d):
        # the identity: a copy, with no arithmetic on the (checked) weights
        _as_diag(d, self.dim)
        return np.copy


class QuadraticShift(Proximable):
    """f(x) = 1/2 ||x - c||^2, with unit strong-convexity diagonal."""

    def __init__(self, c):
        c = np.asarray(c, dtype=float).ravel()
        super().__init__(c.size)
        self.c = c
        self.sigma = np.ones(self.dim)

    def __call__(self, x):
        return 0.5 * float(np.sum((as_vector(x, self.dim) - self.c) ** 2))

    def prox_at(self, d):
        d = _as_diag(d, self.dim)
        c, d1 = self.c, d + 1.0
        return lambda v: (d * v + c) / d1

    def metric_step(self, M):
        # (M + I) z = M w - q + c
        shifted_solve = spd_solver(M.to_sparse() + sp.identity(self.dim))
        c = self.c
        return Step("shifted", lambda w, q: shifted_solve(M.apply(w) - q + c),
                    lambda w, q, z: M.apply(z - w))


class QuadraticShiftNonneg(Proximable):
    """f(x) = 1/2 ||x - c||^2 + indicator(x >= 0)."""

    def __init__(self, c):
        c = np.asarray(c, dtype=float).ravel()
        super().__init__(c.size)
        self.c = c
        self.sigma = np.ones(self.dim)

    def __call__(self, x):
        x = as_vector(x, self.dim)
        if np.any(x < 0):
            return np.inf
        return 0.5 * float(np.sum((x - self.c) ** 2))

    def prox_at(self, d):
        d = _as_diag(d, self.dim)
        c, d1 = self.c, d + 1.0
        return lambda v: np.maximum(0.0, (d * v + c) / d1)


class IndicatorSimplex(Proximable):
    """Indicator of the probability simplex."""

    def __call__(self, x):
        x = as_vector(x, self.dim)
        if np.any(x < -1e-12) or abs(x.sum() - 1.0) > 1e-9:
            return np.inf
        return 0.0

    def prox_at(self, d):
        d = _as_diag(d, self.dim)
        if np.all(d == d[..., :1]):
            return project_simplex
        if d.ndim > 1:  # each row by the map its own weights pick
            maps = [self.prox_at(row) for row in d]
            return lambda v: np.stack([m(r) for m, r in zip(maps, v)])
        return lambda v: project_simplex_weighted(v, d)


class IndicatorNonneg(Proximable):
    """Indicator of the nonnegative orthant."""

    def __call__(self, x):
        return 0.0 if np.all(as_vector(x, self.dim) >= 0) else np.inf

    def prox_at(self, d):
        _as_diag(d, self.dim)
        return lambda v: np.maximum(v, 0.0)


class IndicatorLinfBall(Proximable):
    """Indicator of the box {||x||_inf <= radius}."""

    def __init__(self, dim, radius, epochs=2):
        super().__init__(dim)
        if not radius > 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        if not isinstance(epochs, (int, np.integer)) or epochs < 1:
            raise ConfigurationError("epochs must be a positive integer")
        self.epochs = epochs  # of metric_step's clipped sweeps

    def __call__(self, x):
        x = as_vector(x, self.dim)
        return 0.0 if np.max(np.abs(x)) <= self.radius else np.inf

    def prox_at(self, d):
        _as_diag(d, self.dim)
        return lambda v: np.clip(v, -self.radius, self.radius)

    def metric_step(self, M):
        bcd = BoxQuadBCD(M.to_sparse(), self.radius, self.epochs)
        return Step("box", lambda w, q: bcd.solve(w, -q),
                    lambda w, q, z: M.apply(z - w))


class IndicatorSingleton(Proximable):
    """Indicator of the single point {b}; its conjugate is <b, .>."""

    def __init__(self, b):
        b = np.asarray(b, dtype=float).ravel()
        super().__init__(b.size)
        self.b = b

    def __call__(self, x):
        return 0.0 if np.array_equal(as_vector(x, self.dim), self.b) else np.inf

    def prox_at(self, d):
        _as_diag(d, self.dim)
        return lambda v: np.broadcast_to(self.b, v.shape).copy()


class L1Norm(Proximable):
    """f(x) = weight * ||x||_1; prox is soft thresholding."""

    def __init__(self, dim, weight=1.0):
        super().__init__(dim)
        if not weight >= 0:
            raise ValueError("weight must be nonnegative")
        self.weight = float(weight)

    def __call__(self, x):
        return self.weight * float(np.sum(np.abs(as_vector(x, self.dim))))

    def prox_at(self, d):
        t = self.weight / _as_diag(d, self.dim)
        return lambda v: np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


_TINY = np.finfo(float).tiny  # the smallest normal float


class GroupL12(Proximable):
    """Sum of Euclidean norms of paired flux components on an M-by-N grid.

    The argument stacks two row-major (M, N) components; entry (i, j) of
    each forms one group.  The structural zeros of the grid flux (last row
    of the first component, last column of the second) are part of the
    domain, and the prox is blockwise vector soft thresholding: the group
    (a, b) scales by max(0, 1 - 1 / (d * hypot(a, b))), and by 0 where
    d * hypot(a, b) is 0 or NaN.
    """

    def __init__(self, M, N):
        self.M, self.N = int(M), int(N)
        super().__init__(2 * self.M * self.N)
        mn = self.M * self.N
        # the structural zeros: the first component's last row and the
        # second component's last column
        self._zero_slices = (slice(mn - self.N, mn), slice(mn + self.N - 1,
                                                           None, self.N))
        self.zero_mask = np.zeros(self.dim, dtype=bool)
        for sl in self._zero_slices:
            self.zero_mask[sl] = True

    def _pairs(self, x):
        mn = self.M * self.N
        return x[..., :mn], x[..., mn:]

    def __call__(self, x):
        x = as_vector(x, self.dim)
        if np.any(x[self.zero_mask] != 0.0):
            return np.inf
        a, b = self._pairs(x)
        return float(np.sum(np.hypot(a, b)))

    def prox_at(self, d):
        da, db = self._pairs(_as_diag(d, self.dim))
        if not np.array_equal(da, db):
            raise ConfigurationError(
                "group-l12 prox needs equal metric weights within each pair")
        return lambda v: self._shrink(np.array(v, dtype=float), da)

    def _shrink(self, z, da):
        """The masked form bit for bit, in place on the float array z, which
        it returns: scale = max(0, 1 - 1/t), t = da * norms, with t lifted to
        the smallest normal float by ``fmax`` (a NaN t too), where 1/t > 1
        and the scale is 0 as well, so 1/t is finite and raises no warning."""
        # the structural zeros are fixed, so they take no part in a group norm
        for sl in self._zero_slices:
            z[..., sl] = 0.0
        a, b = self._pairs(z)
        t = np.hypot(a, b)
        t *= da
        np.fmax(t, _TINY, out=t)
        np.divide(1.0, t, out=t)
        np.subtract(1.0, t, out=t)
        np.maximum(t, 0.0, out=t)
        a *= t
        b *= t
        return z


class SeparableSum(Proximable):
    """Direct sum of proximable blocks; prox applies blockwise."""

    def __init__(self, children):
        self.children = list(children)
        super().__init__(sum(c.dim for c in self.children))
        ends = np.cumsum([c.dim for c in self.children])
        self._slices = [slice(e - c.dim, e) for c, e in zip(self.children, ends)]
        self.sigma = np.concatenate([c.sigma for c in self.children])

    def blocks(self, x):
        x = as_vector(x, self.dim)
        return [x[sl] for sl in self._slices]

    def __call__(self, x):
        return float(sum(c(xb) for c, xb in zip(self.children, self.blocks(x))))

    def prox_at(self, d):
        d = _as_diag(d, self.dim)
        maps = [(c.prox_at(d[..., sl]), sl)
                for c, sl in zip(self.children, self._slices)]
        return lambda v: np.concatenate([p(v[..., sl]) for p, sl in maps],
                                        axis=-1)

    def metric_step(self, M):
        if not isinstance(M, BlockDiagMetric):
            return super().metric_step(M)
        if [c.dim for c in self.children] != [m.dim for m in M.metrics]:
            raise ConfigurationError("blocks of h and M do not conform")
        parts = [(sl, c.step(m))
                 for c, m, sl in zip(self.children, M.metrics, self._slices)]

        def point(w, q):
            z = np.empty_like(w)
            for sl, step in parts:
                z[sl] = step.point(w[sl], q[sl])
            return z

        def diff(w, q, z):
            mdz = np.empty_like(w)
            for sl, step in parts:
                mdz[sl] = step.diff(w[sl], q[sl], z[sl])
            return mdz
        return Step("blockwise", point, diff)


def moreau_conjugate_prox(f: Proximable, x, d) -> np.ndarray:
    """prox of the conjugate f* under diag(d)^{-1} evaluated at diag(d) x.

    Computed through the generalized Moreau identity, so that
    x = prox_f^D(x) + D^{-1} * result holds by construction.
    """
    x = as_vector(x, f.dim)
    d = _as_diag(d, f.dim)
    return d * (x - f.prox(x, d))
