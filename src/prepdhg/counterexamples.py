"""Exact 2x2 dynamics certifying the 4/3 and 1/2 constants are unimprovable.

Two scalar saddle problems have closed-form iteration maps:

  bilinear  min-max x*y:            G  = [[1, -tau], [sigma, 1 - 2*tau*sigma]]
  quadratic min-max x^2/2 + x*y:    Gt = [[1, -tau], [sigma*(1-tau),
                                          1 + tau - 2*tau*sigma]] / (1 + tau)

At tau*sigma = 4/3 the bilinear map has eigenvalues (-1, 1/3): iterates
starting off the stable eigenline oscillate forever, so the 4/3 threshold
cannot be weakened to allow equality.  For the quadratic map with
sigma = 4/3*(1/tau + rho), the dominant eigenvalue crosses 1 exactly at
rho = 1/2, which pins the strong-convexity weight the same way.
"""

import math
from dataclasses import dataclass

import numpy as np

from .metrics import ScalarMetric
from .operators import DenseOperator
from .prox import QuadraticShift, Zero
from .solver import BLOWUP, SaddleProblem, SolverConfig


@dataclass
class ToyDynamics:
    kind: str  # "bilinear" | "quadratic"
    tau: float
    sigma: float

    def __post_init__(self):
        if self.kind not in ("bilinear", "quadratic"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.tau <= 0 or self.sigma <= 0:
            raise ValueError("tau and sigma must be positive")

    @property
    def G(self) -> np.ndarray:
        t, s = self.tau, self.sigma
        if self.kind == "bilinear":
            return np.array([[1.0, -t], [s, 1.0 - 2.0 * t * s]])
        return np.array([[1.0, -t],
                         [s * (1.0 - t), 1.0 + t - 2.0 * t * s]]) / (1.0 + t)

    def saddle_problem(self):
        """The 1D saddle instance whose solver step multiplies by G."""
        K = DenseOperator([[1.0]])
        f = Zero(1) if self.kind == "bilinear" else QuadraticShift([0.0])
        p = SaddleProblem(f=f, gstar=Zero(1), K=K)
        cfg = SolverConfig(M1=ScalarMetric(1.0 / self.tau, 1),
                           M2=ScalarMetric(1.0 / self.sigma, 1),
                           override=True)
        return p, cfg


def eig2(G) -> tuple:
    """Eigenvalues of a 2x2 matrix by the quadratic formula, |mu1| >= |mu2|."""
    G = np.asarray(G, dtype=float)
    tr = G[0, 0] + G[1, 1]
    det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0:
        r = np.sqrt(disc)
        mu1, mu2 = complex((tr + r) / 2.0), complex((tr - r) / 2.0)
    else:
        r = np.sqrt(-disc)
        mu1, mu2 = complex(tr / 2.0, r / 2.0), complex(tr / 2.0, -r / 2.0)
    if abs(mu1) < abs(mu2):
        mu1, mu2 = mu2, mu1
    return mu1, mu2


def stable_eigenline(dyn: ToyDynamics) -> np.ndarray:
    """Eigenvector of the smaller-magnitude eigenvalue (the set S)."""
    mu1, mu2 = eig2(dyn.G)
    G = dyn.G
    # (G - mu2 I) v = 0; take v from the first row unless it degenerates
    a, b = G[0, 0] - mu2.real, G[0, 1]
    if abs(a) + abs(b) < 1e-300:
        a, b = G[1, 0], G[1, 1] - mu2.real
    v = np.array([-b, a])
    n = np.linalg.norm(v)
    return v / n if n > 0 else np.array([1.0, 0.0])


def in_stable_line(dyn: ToyDynamics, x0, tol: float = 1e-12) -> bool:
    """Membership of x0 in S up to angular tolerance."""
    v = stable_eigenline(dyn)
    x0 = np.asarray(x0, dtype=float).ravel()
    n = np.linalg.norm(x0)
    if n == 0:
        return True
    return abs(x0[0] * v[1] - x0[1] * v[0]) / n <= tol


@dataclass
class ClassifyResult:
    verdict: str  # converges-to-zero | oscillates | diverges
    radius: float
    final_norm: float
    iterations: int


def classify(dyn: ToyDynamics, x0, max_iter: int = 100000) -> ClassifyResult:
    """Spectral classification of the trajectory, cross-checked by simulation.

    Simulation runs in plain floats and exits early on reaching norm 1e-8
    (convergence) or past ``BLOWUP``; a definitive simulated outcome wins
    over the spectral prediction near the unit-radius boundary.
    """
    mu1, mu2 = eig2(dyn.G)
    radius = abs(mu1)
    G = dyn.G
    g00, g01, g10, g11 = G[0, 0], G[0, 1], G[1, 0], G[1, 1]
    a, b = float(x0[0]), float(x0[1])
    norm0 = max(abs(a), abs(b))
    it = 0
    final = math.hypot(a, b)
    for it in range(1, max_iter + 1):
        a, b = g00 * a + g01 * b, g10 * a + g11 * b
        final = math.hypot(a, b)
        if final <= 1e-8:
            return ClassifyResult("converges-to-zero", radius, final, it)
        if final > BLOWUP:
            return ClassifyResult("diverges", radius, final, it)
    if radius < 1.0 - 1e-9:
        verdict = "converges-to-zero"
    elif radius > 1.0 + 1e-9:
        verdict = "diverges" if not in_stable_line(dyn, x0) else "converges-to-zero"
    else:
        if norm0 == 0 or in_stable_line(dyn, x0):
            verdict = "converges-to-zero"
        else:
            verdict = "oscillates"
    return ClassifyResult(verdict, radius, final, it)


def rho2_boundary_scan(tau: float, rho3_grid) -> np.ndarray:
    """Dominant |eigenvalue| of the quadratic map at sigma = 4/3*(1/tau+rho3).

    Rows are (rho3, sigma, dominant_abs); the dominant magnitude crosses 1
    exactly at rho3 = 1/2.
    """
    rows = []
    for rho3 in rho3_grid:
        sigma = (4.0 / 3.0) * (1.0 / tau + rho3)
        dyn = ToyDynamics("quadratic", tau, sigma)
        mu1, _ = eig2(dyn.G)
        rows.append((float(rho3), sigma, abs(mu1)))
    return np.array(rows)
