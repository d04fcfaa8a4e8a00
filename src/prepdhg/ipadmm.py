"""Indefinite-proximal ADMM twin of the preconditioned primal-dual iteration.

The splitting form of min f(x) + g(Kx) introduces u = Kx and scales the
constraint by M2^{-1/2}:

    min f(x) + g(u)  s.t.  M2^{-1/2} (Kx - u) = 0.

With the proximal matrix M1 - K^T M2^{-1} K (possibly indefinite) attached
to the second subproblem, the resulting iteration maps exactly onto the
primal-dual recursion through y_k = M2^{-1}(M2^{1/2} lam_k + K x_k - u_{k+1}).
The harness here replays both algorithms and certifies the equivalence on
small dense instances; it is a test fixture, never a production path.
"""

from dataclasses import dataclass

import numpy as np

from .metrics import Metric, dense_sqrt
from .solver import SaddleProblem, SolverConfig, _Engine


@dataclass
class AdmmState:
    u: np.ndarray
    x: np.ndarray
    lam: np.ndarray


class AdmmDriver:
    """Caches M2^{1/2} factors and the engine's two proximal updates."""

    def __init__(self, p: SaddleProblem, M1: Metric, M2: Metric):
        self.p, self.M1, self.M2 = p, M1, M2
        self.S, self.Sinv = dense_sqrt(M2)
        self.eng = _Engine(p, [SolverConfig(M1=M1, M2=M2, override=True)])

    def initial_state(self, x0=None, lam0=None) -> AdmmState:
        x0 = np.zeros(self.p.K.cols) if x0 is None else np.asarray(x0, float).ravel()
        lam0 = np.zeros(self.p.K.rows) if lam0 is None else np.asarray(lam0, float).ravel()
        return AdmmState(u=np.zeros(self.p.K.rows), x=x0.copy(), lam=lam0.copy())

    def step(self, st: AdmmState) -> AdmmState:
        K = self.p.K
        v = self.S @ st.lam + K.apply(st.x)
        # u-update through the Moreau route: the dual update started from
        # y = 0 with q = -v gives y = prox_{g*}^{M2}(M2^{-1} v) and M2 y, so
        # that u = v - M2 y and y = M2^{-1}(v - u), the transform value
        eng, w, q = self.eng, np.zeros(v.size), -v
        y = eng.ypoint(w, q)
        u_new = v - eng.ydiff(w, q, y)
        x_new = eng.xpoint(st.x, K.apply_adjoint(y))
        lam_new = st.lam + self.Sinv @ (K.apply(x_new) - u_new)
        return AdmmState(u=u_new, x=x_new, lam=lam_new)

    def run(self, steps: int, x0=None, lam0=None):
        """States [s_0, ..., s_steps]; s_k holds (u_k, x_k, lam_k), u_0 unused."""
        states = [self.initial_state(x0=x0, lam0=lam0)]
        for _ in range(steps):
            states.append(self.step(states[-1]))
        return states

    def recover(self, states) -> list:
        """Map splitting states to the primal-dual pairs they generate.

        y_k needs u_{k+1}, so a list of T+1 states yields T pairs (x_k, y_k),
        k = 0..T-1.
        """
        K = self.p.K
        return [(st.x.copy(), self.M2.solve(self.S @ st.lam + K.apply(st.x) - nxt.u))
                for st, nxt in zip(states[:-1], states[1:])]


@dataclass
class HarnessResult:
    passed: bool
    max_deviation: float
    iterations: int


def equivalence_harness(p: SaddleProblem, M1: Metric, M2: Metric,
                        iters: int = 100, tol: float = 1e-10,
                        x0=None, lam0=None,
                        transform_perturbation: float = 0.0) -> HarnessResult:
    """Certify that the two recursions generate the same trajectory.

    Runs the splitting form, recovers the induced primal-dual pairs, then
    replays the primal-dual recursion from the induced start and reports the
    largest infinity-norm deviation over the horizon.  A nonzero
    ``transform_perturbation`` corrupts the recovered duals, which must make
    the certificate fail (self-test of the harness).
    """
    admm = AdmmDriver(p, M1, M2)
    states = admm.run(iters + 1, x0=x0, lam0=lam0)
    pairs = admm.recover(states)
    if transform_perturbation:
        pairs = [(x, y + transform_perturbation) for x, y in pairs]
    x, y = pairs[0]
    max_dev = 0.0
    for k in range(1, len(pairs)):
        x, y = admm.eng.step(x, y)
        xa, ya = pairs[k]
        dev = max(np.max(np.abs(x - xa)), np.max(np.abs(y - ya)))
        max_dev = max(max_dev, float(dev))
    return HarnessResult(passed=max_dev <= tol, max_deviation=max_dev,
                         iterations=iters)
