"""Kernel values and derivatives against finite differences and hand values."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hrbfsurf import kernel

from conftest import random_unit_vectors
from oracles import kernel_evaluate


def _sample_offsets(rho, n, rng, shell=1e-3):
    """Random offsets inside the support, away from the r=0 and r=rho shells."""
    r = rng.uniform(shell * rho, (1.0 - shell) * rho, n)
    return r[:, None] * random_unit_vectors(n, rng)


def test_value_hand_cases():
    assert kernel.value(np.zeros((1, 3)), 1.0)[0] == pytest.approx(1.0)
    # halfway along x with unit support: (1/2)^4 * 3
    assert kernel.value(np.array([[0.5, 0.0, 0.0]]), 1.0)[0] == pytest.approx(0.1875)
    assert kernel.value(np.array([[1.0, 0.0, 0.0]]), 1.0)[0] == 0.0
    assert kernel.value(np.array([[2.0, 0.0, 0.0]]), 1.0)[0] == 0.0


def test_gradient_hand_case():
    g = kernel.gradient(np.array([[0.5, 0.0, 0.0]]), 1.0)[0]
    assert g[0] == pytest.approx(-1.25)
    assert g[1] == g[2] == 0.0


@pytest.mark.parametrize("rho", [0.3, 1.0, 2.5])
def test_gradient_matches_finite_differences(rho):
    rng = np.random.default_rng(7)
    offs = _sample_offsets(rho, 400, rng)
    grad = kernel.gradient(offs, rho)
    h = 1e-6 * rho
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        fd = (kernel.value(offs + e, rho) - kernel.value(offs - e, rho)) / (2 * h)
        scale = np.maximum(np.abs(grad[:, a]), 1e-9 / rho)
        assert np.max(np.abs(fd - grad[:, a]) / scale) < 1e-5


@pytest.mark.parametrize("rho", [0.3, 1.0, 2.5])
def test_hessian_matches_finite_differences(rho):
    rng = np.random.default_rng(8)
    offs = _sample_offsets(rho, 300, rng)
    hess = kernel.hessian(offs, rho)
    h = 1e-5 * rho
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        fd = (kernel.gradient(offs + e, rho) - kernel.gradient(offs - e, rho)) / (2 * h)
        err = np.abs(fd - hess[:, a, :])
        scale = np.maximum(np.abs(hess[:, a, :]), 1e-6 / rho**2)
        assert np.max(err / scale) < 1e-5


def test_hessian_center_limit():
    h = kernel.hessian(np.zeros((1, 3)), 2.0)[0]
    assert np.allclose(np.diag(h), -20.0 / 4.0)
    assert np.allclose(h - np.diag(np.diag(h)), 0.0)


def test_hessian_symmetry():
    rng = np.random.default_rng(9)
    offs = _sample_offsets(1.3, 100, rng)
    h = kernel.hessian(offs, 1.3)
    assert np.allclose(h, np.swapaxes(h, 1, 2))


def test_evaluate_scalar_inside_and_outside():
    ev = kernel_evaluate(np.zeros(3), 1.0, np.array([0.5, 0.0, 0.0]))
    assert ev.inside_support
    assert ev.value == pytest.approx(0.1875)
    assert ev.gradient[0] == pytest.approx(-1.25)
    out = kernel_evaluate(np.zeros(3), 1.0, np.array([1.5, 0.0, 0.0]))
    assert not out.inside_support
    assert out.value == 0.0
    assert np.all(out.gradient == 0.0)


@pytest.mark.parametrize(
    "rho,expected",
    [(1.0, (135.0 / 64.0, 20.0, 7.5)), (2.0, (135.0 / 128.0, 5.0, 1.875))],
)
def test_derivative_bound_constants(rho, expected):
    db = kernel.derivative_bounds(rho)
    assert (db.first, db.second_diag, db.second_mixed) == pytest.approx(expected)


def test_second_diag_bound_is_an_envelope():
    # |d2 phi / dx2| along any axis is maximized at the center: 20 / rho^2
    rho = 1.7
    rng = np.random.default_rng(10)
    offs = _sample_offsets(rho, 20000, rng, shell=0.0)
    diag = np.abs(kernel.hessian(offs, rho)[:, 0, 0])
    assert diag.max() <= 20.0 / rho**2 + 1e-12


def test_first_derivative_maximum_exceeds_reported_constant():
    # the true maximum of |d phi / dx| along an axis sits at t = 1/4 and
    # equals 135/(64 rho), above the paper's constant 5/(4 rho), which is the
    # value at t = 1/2; derivative_bounds reports the true maximum
    rho = 1.0
    t = np.linspace(0.0, 1.0, 200001)[:-1]
    env = 20.0 / rho * t * (1.0 - t) ** 3
    assert env.max() == pytest.approx(135.0 / 64.0 / rho, rel=1e-8)
    g = kernel.gradient(np.array([[0.25 * rho, 0.0, 0.0]]), rho)[0, 0]
    assert abs(g) == pytest.approx(135.0 / 64.0 / rho)
    assert abs(g) > 5.0 / (4.0 * rho)
    assert kernel.derivative_bounds(rho).first == pytest.approx(135.0 / 64.0 / rho)


def test_invalid_rho():
    with pytest.raises(ValueError):
        kernel_evaluate(np.zeros(3), 0.0, np.zeros(3))
    with pytest.raises(ValueError):
        kernel.derivative_bounds(-1.0)


@given(st.floats(0.0, 0.999), st.floats(0.0, 0.999))
def test_value_monotone_decreasing(t1, t2):
    lo, hi = sorted([t1, t2])
    v = kernel.value(np.array([[lo, 0.0, 0.0], [hi, 0.0, 0.0]]), 1.0)
    assert v[0] >= v[1]


@given(st.floats(1e-3, 5.0), st.floats(0.0, 2.0))
def test_value_scale_invariance(rho, t):
    # phi depends on r / rho only
    v1 = kernel.value(np.array([[t * rho, 0.0, 0.0]]), rho)[0]
    v2 = kernel.value(np.array([[t, 0.0, 0.0]]), 1.0)[0]
    assert v1 == pytest.approx(v2, abs=1e-12)
