"""Catalog of proximable convex functions.

Each entry evaluates the function (returning ``inf`` outside the domain of
an indicator) and computes the proximal point under a scalar or diagonal
metric D = diag(d):

    prox_f^D(v) = argmin_z  f(z) + 1/2 ||z - v||_D^2.

An entry implements one method, ``prox_at(d)``: it checks the weights once
and returns the map ``v -> prox_f^D(v)``, which checks nothing and expects a
float vector of length ``dim``.  ``prox(v, d)`` derives from it and also
checks ``v``.

``step(M)`` builds the solver's subproblem argmin_z h(z) + <q, z> +
1/2 ||z - w||_M^2 once per solve, as ``(w, q) -> (z, M (z - w))``, from the
first case that fits; four entries implement ``metric_step(M)`` for the
non-diagonal metrics they have a step for (the last column names the step):

    M diagonal                     h.prox_at(diag M)                  prox
    h = <b, .>                     z = w - M^{-1} (q + b)             linear
    h = 1/2 ||. - c||^2            one solve with M + I               shifted
    h separable, M block-diagonal  one update per block               blockwise
    h = indicator of a box         coordinate descent (BoxQuadBCD)    box

``sigma`` is the strong-convexity diagonal of the entry (all zeros unless
the function has a quadratic part).
"""

import numpy as np

from .exceptions import ConfigurationError
from .metrics import BlockDiagMetric, BoxQuadBCD, _shifted_solver


def _as_diag(d, dim):
    d = np.asarray(d, dtype=float)
    if d.ndim == 0:
        d = np.full(dim, float(d))
    if d.size != dim:
        raise ValueError(f"metric diagonal has length {d.size}, expected {dim}")
    if not np.all(d > 0):
        raise ValueError("metric diagonal must be strictly positive")
    return d


_SIMPLEX_KS = {}


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based).

    The active set of the sorted thresholding rule is a prefix, so its size
    is the count of indices with k*u_k > cumsum(u)_k - 1.
    """
    if not (type(v) is np.ndarray and v.ndim == 1 and v.dtype == np.float64):
        v = np.asarray(v, dtype=float).ravel()
    n = v.size
    if n < 1:
        raise ValueError("empty input")
    ks = _SIMPLEX_KS.get(n)
    if ks is None:
        ks = _SIMPLEX_KS.setdefault(n, np.arange(1.0, n + 1.0))
    u = v.copy()
    u.sort()
    u = u[::-1]
    css = np.cumsum(u)
    rho = int(np.count_nonzero(u * ks > css - 1.0)) - 1
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def project_simplex_weighted(v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """argmin 1/2||z - v||_D^2 over the simplex, exact breakpoint search."""
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
    return np.maximum(v - lam / d, 0.0)


class Proximable:
    """Base class; subclasses set ``dim`` and ``sigma`` and implement prox_at."""

    dim: int

    def __init__(self, dim):
        self.dim = int(dim)
        self.sigma = np.zeros(self.dim)

    def __call__(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def prox(self, v: np.ndarray, d) -> np.ndarray:
        return self.prox_at(d)(self._v(v))

    def prox_at(self, d):
        """``v -> prox(v, d)`` for weights ``d`` fixed for a whole solve.

        Raises on bad weights here, once; the returned map does no checks.
        """
        raise NotImplementedError

    def step(self, M):
        """The module docstring's subproblem, ``(w, q) -> (z, M (z - w))``."""
        d = M.diagonal()
        if d is None:
            return self.metric_step(M)
        hprox, inv_d = self.prox_at(d), 1.0 / d

        def prox(w, q):
            z = hprox(w - q * inv_d)
            return z, d * (z - w)
        return prox

    def metric_step(self, M):
        """``step`` under a non-diagonal M; raises for an unsupported M."""
        raise ConfigurationError(f"unsupported (h={type(self).__name__}, "
                                 f"M={type(M).__name__}) pair")

    def _v(self, v):
        v = np.asarray(v, dtype=float).ravel()
        if v.size != self.dim:
            raise ValueError(f"expected length {self.dim}, got {v.size}")
        return v


class Linear(Proximable):
    """f(x) = <b, x>."""

    def __init__(self, b):
        b = np.asarray(b, dtype=float).ravel()
        super().__init__(b.size)
        self.b = b

    def __call__(self, x):
        return float(np.dot(self.b, self._v(x)))

    def prox_at(self, d):
        shift = self.b / _as_diag(d, self.dim)
        return lambda v: v - shift

    def metric_step(self, M):
        b = self.b

        def linear(w, q):
            s = q + b  # M (z - w) = -s
            return w - M.solve(s), -s
        return linear


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
        return 0.5 * float(np.sum((self._v(x) - self.c) ** 2))

    def prox_at(self, d):
        d = _as_diag(d, self.dim)
        c, d1 = self.c, d + 1.0
        return lambda v: (d * v + c) / d1

    def metric_step(self, M):
        # (M + I) z = M w - q + c
        _, shifted_solve = _shifted_solver(M, 2.0 * np.ones(self.dim))
        c = self.c

        def shifted(w, q):
            z = shifted_solve(M.apply(w) - q + c)
            return z, M.apply(z - w)
        return shifted


class QuadraticShiftNonneg(Proximable):
    """f(x) = 1/2 ||x - c||^2 + indicator(x >= 0)."""

    def __init__(self, c):
        c = np.asarray(c, dtype=float).ravel()
        super().__init__(c.size)
        self.c = c
        self.sigma = np.ones(self.dim)

    def __call__(self, x):
        x = self._v(x)
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
        x = self._v(x)
        if np.any(x < -1e-12) or abs(x.sum() - 1.0) > 1e-9:
            return np.inf
        return 0.0

    def prox_at(self, d):
        d = _as_diag(d, self.dim)
        if np.all(d == d[0]):
            return project_simplex
        return lambda v: project_simplex_weighted(v, d)


class IndicatorNonneg(Proximable):
    """Indicator of the nonnegative orthant."""

    def __call__(self, x):
        return 0.0 if np.all(self._v(x) >= 0) else np.inf

    def prox_at(self, d):
        return lambda v: np.maximum(v, 0.0)


class IndicatorLinfBall(Proximable):
    """Indicator of the box {||x||_inf <= radius}."""

    def __init__(self, dim, radius, epochs=2):
        super().__init__(dim)
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        self.epochs = epochs  # of metric_step's coordinate descent

    def __call__(self, x):
        return 0.0 if np.max(np.abs(self._v(x))) <= self.radius else np.inf

    def prox_at(self, d):
        return lambda v: np.clip(v, -self.radius, self.radius)

    def metric_step(self, M):
        bcd = BoxQuadBCD(M.to_sparse(), self.radius, self.epochs)

        def box(w, q):
            z = bcd.solve(w, -q)
            return z, M.apply(z - w)
        return box


class IndicatorSingleton(Proximable):
    """Indicator of the single point {b}; its conjugate is <b, .>."""

    def __init__(self, b):
        b = np.asarray(b, dtype=float).ravel()
        super().__init__(b.size)
        self.b = b

    def __call__(self, x):
        return 0.0 if np.array_equal(self._v(x), self.b) else np.inf

    def prox_at(self, d):
        return lambda v: self.b.copy()


class L1Norm(Proximable):
    """f(x) = weight * ||x||_1; prox is soft thresholding."""

    def __init__(self, dim, weight=1.0):
        super().__init__(dim)
        if weight < 0:
            raise ValueError("weight must be nonnegative")
        self.weight = float(weight)

    def __call__(self, x):
        return self.weight * float(np.sum(np.abs(self._v(x))))

    def prox_at(self, d):
        t = self.weight / _as_diag(d, self.dim)
        return lambda v: np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


class GroupL12(Proximable):
    """Sum of Euclidean norms of paired flux components on an M-by-N grid.

    The argument stacks two row-major (M, N) components; entry (i, j) of
    each forms one group.  The structural zeros of the grid flux (last row
    of the first component, last column of the second) are part of the
    domain, and the prox is blockwise vector soft thresholding.
    """

    def __init__(self, M, N):
        self.M, self.N = int(M), int(N)
        super().__init__(2 * self.M * self.N)
        mask = np.zeros((2, self.M, self.N), dtype=bool)
        mask[0, self.M - 1, :] = True
        mask[1, :, self.N - 1] = True
        self.zero_mask = mask.reshape(-1)

    def _pairs(self, x):
        mn = self.M * self.N
        return x[:mn], x[mn:]

    def __call__(self, x):
        x = self._v(x)
        if np.any(x[self.zero_mask] != 0.0):
            return np.inf
        a, b = self._pairs(x)
        return float(np.sum(np.hypot(a, b)))

    def prox_at(self, d):
        da, db = self._pairs(_as_diag(d, self.dim))
        if not np.array_equal(da, db):
            raise ConfigurationError(
                "group-l12 prox needs equal metric weights within each pair")
        return lambda v: self._shrink(v, da)

    def _shrink(self, v, da):
        # the structural zeros are fixed, so they take no part in a group norm
        a, b = self._pairs(np.where(self.zero_mask, 0.0, v))
        norms = np.hypot(a, b)
        scale = np.zeros_like(norms)
        pos = norms > 0
        scale[pos] = np.maximum(0.0, 1.0 - 1.0 / (da[pos] * norms[pos]))
        return np.concatenate([a * scale, b * scale])


class SeparableSum(Proximable):
    """Direct sum of proximable blocks; prox applies blockwise."""

    def __init__(self, children):
        self.children = list(children)
        super().__init__(sum(c.dim for c in self.children))
        ends = np.cumsum([c.dim for c in self.children])
        self._slices = [slice(e - c.dim, e) for c, e in zip(self.children, ends)]
        self.sigma = np.concatenate([c.sigma for c in self.children])

    def blocks(self, x):
        x = self._v(x)
        return [x[sl] for sl in self._slices]

    def __call__(self, x):
        return float(sum(c(xb) for c, xb in zip(self.children, self.blocks(x))))

    def prox_at(self, d):
        d = _as_diag(d, self.dim)
        maps = [(c.prox_at(d[sl]), sl) for c, sl in zip(self.children, self._slices)]
        return lambda v: np.concatenate([p(v[sl]) for p, sl in maps])

    def metric_step(self, M):
        if not isinstance(M, BlockDiagMetric):
            return super().metric_step(M)
        if [c.dim for c in self.children] != [m.dim for m in M.metrics]:
            raise ConfigurationError("blocks of h and M do not conform")
        parts = [(sl, c.step(m))
                 for c, m, sl in zip(self.children, M.metrics, self._slices)]

        def blockwise(w, q):
            z, mdz = np.empty_like(w), np.empty_like(w)
            for sl, step in parts:
                z[sl], mdz[sl] = step(w[sl], q[sl])
            return z, mdz
        return blockwise


def moreau_conjugate_prox(f: Proximable, x, d) -> np.ndarray:
    """prox of the conjugate f* under diag(d)^{-1} evaluated at diag(d) x.

    Computed through the generalized Moreau identity, so that
    x = prox_f^D(x) + D^{-1} * result holds by construction.
    """
    x = np.asarray(x, dtype=float).ravel()
    d = _as_diag(d, f.dim)
    return d * (x - f.prox(x, d))
