import itertools

import numpy as np
import pytest

from prepdhg.exceptions import ConfigurationError
from prepdhg.prox import (GroupL12, IndicatorLinfBall, IndicatorNonneg,
                          IndicatorSimplex, IndicatorSingleton, L1Norm,
                          Linear, QuadraticShift, QuadraticShiftNonneg,
                          SeparableSum, Zero, moreau_conjugate_prox,
                          project_simplex, project_simplex_weighted)


def simplex_qp_oracle(v):
    """Projection onto the simplex by active-set enumeration (n <= 4).

    For each candidate support solve the equality-constrained least-squares
    projection and keep the feasible KKT point.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    best = None
    for r in range(1, n + 1):
        for supp in itertools.combinations(range(n), r):
            s = list(supp)
            lam = (v[s].sum() - 1.0) / r
            z = np.zeros(n)
            z[s] = v[s] - lam
            if np.any(z[s] < -1e-12):
                continue
            # KKT: multipliers on the zero set must be nonnegative
            if np.any(v[np.setdiff1d(np.arange(n), s)] - lam > 1e-12):
                continue
            obj = np.sum((z - v) ** 2)
            if best is None or obj < best[0]:
                best = (obj, z)
    return best[1]


class TestProjectSimplex:
    def test_fixed_point(self):
        assert np.allclose(project_simplex([0.5, 0.5]), [0.5, 0.5])

    def test_vertex(self):
        assert np.allclose(project_simplex([2.0, 0.0]), [1.0, 0.0])
        assert np.allclose(project_simplex([2.0, 0.0]),
                           simplex_qp_oracle([2.0, 0.0]))

    def test_symmetry(self):
        assert np.allclose(project_simplex([0.3, 0.3, 0.3]),
                           np.ones(3) / 3.0)

    def test_against_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.standard_normal(4) * 2.0
            assert np.allclose(project_simplex(v), simplex_qp_oracle(v),
                               atol=1e-12)

    def test_feasibility(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = project_simplex(rng.standard_normal(30) * 5)
            assert abs(z.sum() - 1.0) <= 1e-14 * 30
            assert np.all(z >= 0)


def project_simplex_weighted_reference(v, d):
    """The earlier breakpoint search, one candidate per loop step."""
    bp = d * v
    order = np.argsort(bp)[::-1]
    vs, ws, bps = v[order], 1.0 / d[order], bp[order]
    S, T = np.cumsum(vs), np.cumsum(ws)
    lam = None
    for k in range(v.size):
        cand = (S[k] - 1.0) / T[k]
        lo = bps[k + 1] if k + 1 < v.size else -np.inf
        if lo < cand <= bps[k] + 1e-15:
            lam = cand
            break
    if lam is None:
        lam = (S[-1] - 1.0) / T[-1]
    return np.maximum(v - lam / d, 0.0)


def test_weighted_simplex_matches_the_loop_search():
    rng = np.random.default_rng(43)
    for trial in range(3000):
        n = int(rng.integers(1, 12))
        if trial % 3 == 0:  # small integers: tied breakpoints and candidates
            v = rng.integers(-3, 4, n) / 2.0
            d = rng.integers(1, 4, n).astype(float)
        else:
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 3)
            d = rng.random(n) * 10.0 ** rng.integers(-1, 2) + 1e-3
        assert np.array_equal(project_simplex_weighted(v, d),
                              project_simplex_weighted_reference(v, d))


class TestProxExamples:
    def test_soft_threshold(self):
        f = L1Norm(1, 1.0)
        assert f.prox([3.0], 1.0) == pytest.approx([2.0])

    def test_simplex_prox(self):
        f = IndicatorSimplex(2)
        assert np.allclose(f.prox([2.0, 0.0], 1.0), [1.0, 0.0])

    def test_simplex_prox_weighted_metric(self):
        f = IndicatorSimplex(3)
        rng = np.random.default_rng(3)
        for _ in range(30):
            v = rng.standard_normal(3)
            d = rng.random(3) + 0.2
            z = f.prox(v, d)
            # optimality against random feasible perturbations
            base = 0.5 * np.dot(d, (z - v) ** 2)
            for _ in range(20):
                w = project_simplex(z + 0.1 * rng.standard_normal(3))
                assert 0.5 * np.dot(d, (w - v) ** 2) >= base - 1e-10

    def test_simplex_prox_nearly_uniform_weights_are_weighted(self):
        f = IndicatorSimplex(20)
        rng = np.random.default_rng(8)
        v = rng.standard_normal(20)
        d = 1.0 + 1e-6 * rng.random(20)
        assert np.array_equal(f.prox_at(d)(v), project_simplex_weighted(v, d))
        assert not np.array_equal(f.prox_at(d)(v), project_simplex(v))
        assert f.prox_at(np.full(20, 2.5)) is project_simplex

    def test_quadratic_shift_nonneg_closed_form(self):
        # prox under scalar 1/tau equals max(0, v + tau*c)/(1 + tau)
        c = np.array([2.0, -5.0, 0.3])
        f = QuadraticShiftNonneg(c)
        v = np.array([1.0, 1.0, -1.0])
        for tau in (0.5, 2.0):
            got = f.prox(v, 1.0 / tau)
            assert np.allclose(got, np.maximum(0.0, v + tau * c) / (1 + tau))

    def test_linear_and_zero(self):
        b = np.array([1.0, -2.0])
        assert np.allclose(Linear(b).prox([0.0, 0.0], 2.0), -b / 2.0)
        assert np.allclose(Zero(2).prox([3.0, 4.0], 5.0), [3.0, 4.0])


class TestMoreauIdentity:
    """x = prox_f^D(x) + D^{-1} prox_{f*}^{D^{-1}}(Dx), both sides computed
    from independent closed forms."""

    CASES = {
        "l1": (lambda n: L1Norm(n, 0.7),
               lambda v, dinv: np.clip(v, -0.7, 0.7)),
        "nonneg": (lambda n: IndicatorNonneg(n),
                   lambda v, dinv: np.minimum(v, 0.0)),
        # conjugate of 0.5||x-c||^2 is 0.5||y||^2 + <c, y>; its prox under
        # diag(dinv) is argmin 0.5 z^2 + c z + (dinv/2)(z - v)^2
        "quadratic": (lambda n: QuadraticShift(np.linspace(-1, 1, n)),
                      lambda v, dinv: (dinv * v - np.linspace(-1, 1, v.size))
                      / (dinv + 1.0)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_identity_random(self, name):
        make, conj_prox = self.CASES[name]
        rng = np.random.default_rng(17)
        n = 6
        f = make(n)
        for _ in range(1000):
            x = 3.0 * rng.standard_normal(n)
            d = rng.random(n) + 0.05
            lhs = x - f.prox(x, d) - conj_prox(d * x, 1.0 / d) / d
            assert np.linalg.norm(lhs) <= 1e-10 * (1.0 + np.linalg.norm(x))


class TestMoreauConjugateProx:
    def test_l1_gives_box_projection(self):
        f = L1Norm(4, 1.5)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4) * 3
        d = rng.random(4) + 0.5
        assert np.allclose(moreau_conjugate_prox(f, x, d),
                           np.clip(d * x, -1.5, 1.5))

    def test_zero_function(self):
        f = Zero(3)
        x = np.array([1.0, -2.0, 0.5])
        assert np.allclose(moreau_conjugate_prox(f, x, 2.0), 0.0)

    def test_singleton(self):
        b = np.array([0.2, -0.4])
        f = IndicatorSingleton(b)
        x = np.array([1.0, 1.0])
        d = np.array([2.0, 3.0])
        assert np.allclose(moreau_conjugate_prox(f, x, d), d * (x - b))

    def test_identity_by_construction(self):
        rng = np.random.default_rng(9)
        f = IndicatorSimplex(5)
        for _ in range(50):
            x = rng.standard_normal(5)
            d = rng.random(5) + 0.1
            r = moreau_conjugate_prox(f, x, d)
            assert np.allclose(x, f.prox(x, d) + r / d, atol=1e-14)


def catalog_for_properties(n=6):
    rng = np.random.default_rng(23)
    return [
        Zero(n),
        Linear(rng.standard_normal(n)),
        QuadraticShift(rng.standard_normal(n)),
        QuadraticShiftNonneg(rng.standard_normal(n)),
        IndicatorSimplex(n),
        IndicatorNonneg(n),
        IndicatorLinfBall(n, 0.8),
        IndicatorSingleton(rng.standard_normal(n)),
        L1Norm(n, 1.3),
    ]


@pytest.mark.parametrize("f", catalog_for_properties(),
                         ids=lambda f: type(f).__name__)
def test_firm_nonexpansiveness_in_metric_norm(f):
    rng = np.random.default_rng(31)
    n = f.dim
    for _ in range(50):
        d = rng.random(n) + 0.2
        u = 2.0 * rng.standard_normal(n)
        v = 2.0 * rng.standard_normal(n)
        pu, pv = f.prox(u, d), f.prox(v, d)
        lhs = np.dot(d, (pu - pv) ** 2)
        rhs = np.dot(d, (u - v) ** 2)
        assert lhs <= rhs * (1 + 1e-12) + 1e-14


@pytest.mark.parametrize("f", catalog_for_properties(),
                         ids=lambda f: type(f).__name__)
def test_prox_optimality_against_feasible_perturbations(f):
    rng = np.random.default_rng(37)
    n = f.dim
    for _ in range(5):
        v = 2.0 * rng.standard_normal(n)
        d = rng.random(n) + 0.2
        z = f.prox(v, d)
        base = f(z) + 0.5 * np.dot(d, (z - v) ** 2)
        assert np.isfinite(base)
        for _ in range(20):
            w = f.prox(z + 0.5 * rng.standard_normal(n), d)  # feasible point
            val = f(w) + 0.5 * np.dot(d, (w - v) ** 2)
            assert val >= base - 1e-10


class TestGroupL12:
    def test_blockwise_vector_soft_threshold(self):
        g = GroupL12(2, 2)
        rng = np.random.default_rng(41)
        v = rng.standard_normal(8)
        v[g.zero_mask] = 0.0
        tau = 0.7
        z = g.prox(v, 1.0 / tau)
        a, b = v[:4], v[4:]
        norms = np.hypot(a, b)
        scale = np.maximum(0.0, 1.0 - tau / np.where(norms > 0, norms, 1.0))
        expect = np.concatenate([a * scale, b * scale])
        expect[g.zero_mask] = 0.0
        assert np.allclose(z, expect)

    def test_reduces_to_scalar_soft_threshold(self):
        # when one pair component is zero the block rule is the scalar rule
        g = GroupL12(3, 1)  # m2 entirely structural zeros
        v = np.array([2.0, -0.5, 0.0, 0.0, 0.0, 0.0])
        z = g.prox(v, 1.0)
        soft = np.sign(v[:3]) * np.maximum(np.abs(v[:3]) - 1.0, 0.0)
        assert np.allclose(z[:3], soft)
        assert np.all(z[3:] == 0.0)

    def test_eval_infinite_off_domain(self):
        g = GroupL12(2, 2)
        x = np.zeros(8)
        x[np.nonzero(g.zero_mask)[0][0]] = 1.0
        assert g(x) == np.inf

    def test_rejects_unequal_pair_weights(self):
        g = GroupL12(2, 2)
        d = np.ones(8)
        d[0] = 2.0
        with pytest.raises(ConfigurationError):
            g.prox(np.ones(8), d)

    def test_rejects_nearly_equal_pair_weights(self):
        # shrinking by the first weight alone would miss the exact prox,
        # (2.16795006, -1.44530204) here, by 2.2e-6
        g = GroupL12(2, 2)
        v = np.zeros(8)
        v[0], v[4] = 3.0, -2.0
        d = np.ones(8)
        d[4] = 1.0 + 5e-6
        with pytest.raises(ConfigurationError):
            g.prox(v, d)

    def test_structural_zeros_take_no_part_in_group_norm(self):
        # entries fixed at zero do not enlarge their pair's norm
        g = GroupL12(2, 2)
        z = g.prox(np.ones(8), 1.0)
        s = 1.0 - 1.0 / np.sqrt(2.0)
        assert np.allclose(z, [s, 0.0, 0.0, 0.0, s, 0.0, 0.0, 0.0])

    def test_prox_at_checks_once_and_matches_prox(self):
        g = GroupL12(3, 4)
        rng = np.random.default_rng(42)
        d = np.tile(rng.uniform(0.5, 2.0, 12), 2)
        v = rng.standard_normal(24)
        assert np.array_equal(g.prox_at(d)(v), g.prox(v, d))
        d[1] = 5.0
        with pytest.raises(ConfigurationError):
            g.prox_at(d)


def test_separable_sum_concatenates():
    f1 = L1Norm(2, 1.0)
    f2 = IndicatorNonneg(3)
    f = SeparableSum([f1, f2])
    assert f.dim == 5
    v = np.array([3.0, -2.0, 1.0, -1.0, 0.5])
    d = np.array([1.0, 1.0, 2.0, 2.0, 2.0])
    got = f.prox(v, d)
    assert np.allclose(got[:2], f1.prox(v[:2], d[:2]))
    assert np.allclose(got[2:], f2.prox(v[2:], d[2:]))
    assert f(np.array([1.0, 1.0, 0.0, 0.0, 1.0])) == pytest.approx(2.0)
    assert f(np.array([1.0, 1.0, -0.1, 0.0, 1.0])) == np.inf


def test_sigma_descriptors():
    assert np.all(QuadraticShift(np.zeros(3)).sigma == 1.0)
    assert np.all(QuadraticShiftNonneg(np.zeros(3)).sigma == 1.0)
    for f in (Zero(3), L1Norm(3, 1.0), IndicatorSimplex(3)):
        assert np.all(f.sigma == 0.0)
    s = SeparableSum([QuadraticShift(np.zeros(2)), Zero(3)])
    assert np.allclose(s.sigma, [1, 1, 0, 0, 0])


def test_sigma_subgradient_inequality_for_quadratic_kinds():
    # <xi1 - xi2, x1 - x2> >= ||x1 - x2||^2_Sigma with xi = gradient
    rng = np.random.default_rng(53)
    c = rng.standard_normal(4)
    f = QuadraticShift(c)
    for _ in range(100):
        x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
        lhs = np.dot((x1 - c) - (x2 - c), x1 - x2)
        rhs = np.dot(f.sigma, (x1 - x2) ** 2)
        assert lhs >= rhs - 1e-12
