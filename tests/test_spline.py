import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gelwarp.spline import (
    BSplineBasis,
    WarpField,
    eval_warp,
    eval_warp_grid,
    identity_coefficients,
    identity_warp,
    make_basis,
)


@pytest.fixture
def basis():
    return make_basis(np.linspace(0.0, 1.0, 200), 10)


def random_monotone_beta(rng, basis_nu, basis_u):
    """Column-monotone coefficients with pinned boundary rows."""
    T_nu, T_u = basis_nu.T, basis_u.T
    beta = np.empty((T_nu, T_u))
    for t in range(T_u):
        inc = rng.random(T_nu - 1) + 0.05
        vals = np.concatenate([[0.0], np.cumsum(inc)])
        vals = vals / vals[-1]
        beta[:, t] = basis_nu.lo + (basis_nu.hi - basis_nu.lo) * vals
    return beta


class TestMakeBasis:
    def test_minimal_T(self):
        b = make_basis(np.linspace(0, 1, 50), 4)
        assert b.T == 4
        # no internal knots: a single cubic segment
        assert len(b.knots) == 8

    def test_quantile_internal_knots(self, basis):
        assert basis.T == 10
        internal = basis.knots[4:-4]
        np.testing.assert_allclose(internal, np.arange(1, 7) / 7, atol=0.01)

    def test_partition_of_unity(self, basis):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 1.0, size=100)
        D = basis.design_matrix(x)
        assert np.all(D >= -1e-12)
        np.testing.assert_allclose(D.sum(axis=1), 1.0, atol=1e-10)

    def test_T_too_small(self):
        with pytest.raises(ValueError):
            make_basis(np.linspace(0, 1, 50), 3)

    def test_tied_data_duplicate_knots(self):
        data = np.array([0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0])
        with pytest.raises(ValueError, match="fewer than"):
            make_basis(data, 10)

    def test_out_of_support(self, basis):
        with pytest.raises(ValueError, match="support"):
            basis.design_matrix(np.array([1.5]))


class TestIdentityCoefficients:
    def test_reproduces_identity(self, basis):
        beta = identity_coefficients(basis)
        x = np.linspace(0.0, 1.0, 1000)
        fitted = basis.design_matrix(x) @ beta
        np.testing.assert_allclose(fitted, x, atol=1e-6)

    def test_strictly_increasing(self, basis):
        beta = identity_coefficients(basis)
        assert np.all(np.diff(beta) > 0)

    def test_endpoints(self, basis):
        beta = identity_coefficients(basis)
        D = basis.design_matrix(np.array([0.0, 1.0]))
        np.testing.assert_allclose(D @ beta, [0.0, 1.0], atol=1e-6)

    def test_greville_abscissae(self):
        # the exact coefficients are the knot averages (Marsden's identity),
        # for quantile knots of any spacing
        rng = np.random.default_rng(2)
        for T in range(4, 11):
            basis = make_basis(rng.gamma(2.0, size=400), T)
            greville = [np.mean(basis.knots[i + 1 : i + basis.order]) for i in range(T)]
            beta = identity_coefficients(basis)
            np.testing.assert_array_equal(beta, greville)
            x = np.linspace(basis.lo, basis.hi, 2001)
            np.testing.assert_allclose(basis.design_matrix(x) @ beta, x, rtol=0, atol=1e-12)

    def test_constant_increments_on_equispaced_knots(self):
        basis = make_basis(np.linspace(0, 1, 500), 9)
        beta = identity_coefficients(basis)
        inc = np.diff(beta)
        # interior increments equal the knot spacing; boundary ones are
        # shorter because the end knots are repeated
        np.testing.assert_allclose(inc[2:-2], inc[2], atol=1e-8)


class TestWarpField:
    def setup_method(self):
        self.rng = np.random.default_rng(5)
        self.basis_nu = make_basis(np.linspace(0, 1, 300), 8)
        self.basis_u = make_basis(np.linspace(0, 1, 300), 5)

    def field(self, beta):
        return WarpField(
            beta=beta,
            basis_nu=self.basis_nu,
            basis_u=self.basis_u,
            bounds=(0.0, 1.0),
        )

    def test_identity_warp(self):
        f = identity_warp(self.basis_nu, self.basis_u, (0.0, 1.0))
        nus = np.linspace(0, 1, 40)
        us = np.linspace(0, 1, 7)
        np.testing.assert_allclose(
            eval_warp_grid(f, nus, us), np.tile(nus[:, None], (1, 7)), atol=1e-6
        )

    def test_boundary_pinned(self):
        beta = random_monotone_beta(self.rng, self.basis_nu, self.basis_u)
        f = self.field(beta)
        us = np.linspace(0, 1, 9)
        np.testing.assert_allclose(eval_warp_grid(f, [0.0], us), 0.0, atol=1e-9)
        np.testing.assert_allclose(eval_warp_grid(f, [1.0], us), 1.0, atol=1e-9)

    def test_monotone_in_nu(self):
        # column-monotone coefficients are sufficient for monotonicity of
        # the evaluated warp, at every lane position
        for _ in range(200):
            beta = random_monotone_beta(self.rng, self.basis_nu, self.basis_u)
            f = self.field(beta)
            us = self.rng.uniform(0, 1, size=5)
            nus = np.sort(self.rng.uniform(0, 1, size=30))
            vals = eval_warp_grid(f, nus, us)
            assert np.all(np.diff(vals, axis=0) > -1e-12)

    def test_constraint_checker(self):
        beta = random_monotone_beta(self.rng, self.basis_nu, self.basis_u)
        self.field(beta).validate()
        bad = beta.copy()
        bad[2, 0], bad[3, 0] = bad[3, 0], bad[2, 0]
        with pytest.raises(ValueError, match="not strictly increasing"):
            self.field(bad).validate()

    def test_invalid_field_rejected(self):
        beta = random_monotone_beta(self.rng, self.basis_nu, self.basis_u)
        beta[0, 1] = 0.2
        with pytest.raises(ValueError):
            self.field(beta).validate()

    def test_bilinear_in_beta(self):
        b1 = random_monotone_beta(self.rng, self.basis_nu, self.basis_u)
        b2 = random_monotone_beta(self.rng, self.basis_nu, self.basis_u)
        nus = np.linspace(0.1, 0.9, 11)
        us = np.linspace(0.1, 0.9, 4)
        f = lambda b: (
            self.basis_nu.design_matrix(nus) @ b @ self.basis_u.design_matrix(us).T
        )
        np.testing.assert_allclose(
            f(0.3 * b1 + 0.7 * b2), 0.3 * f(b1) + 0.7 * f(b2), atol=1e-12
        )

    def test_eval_warp_scalar(self):
        f = identity_warp(self.basis_nu, self.basis_u, (0.0, 1.0))
        assert eval_warp(f, 0.37, 0.5) == pytest.approx(0.37, abs=1e-6)


@given(st.integers(min_value=4, max_value=14))
@settings(max_examples=20, deadline=None)
def test_partition_of_unity_any_T(T):
    basis = make_basis(np.linspace(0.0, 1.0, 400), T)
    x = np.linspace(0.0, 1.0, 73)
    np.testing.assert_allclose(basis.design_matrix(x).sum(axis=1), 1.0, atol=1e-10)
