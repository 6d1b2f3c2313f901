"""Tests for the nested trapezoidal rule behind every quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkinq import kernels, numerics, qspecial
from motzkinq.errors import ConvergenceError
from motzkinq.kernels import KernelQuery
from motzkinq.numerics import _nested_trapezoid

from oracles import nested_trapezoid_level_by_level


def test_nested_trapezoid_gaussian_cosine_transform():
    # int_0^inf exp(-t^2/2) cos(u t) dt = sqrt(pi/2) exp(-u^2/2), one row per u
    us = np.array([0.0, 0.5, 1.0, 2.0, 3.5])
    total, l1 = _nested_trapezoid(lambda t: np.cos(np.outer(us, t)) * np.exp(-t * t / 2),
                                  12.0, 64.0, "gaussian")
    want = math.sqrt(math.pi / 2) * np.exp(-us**2 / 2)
    assert np.allclose(total, want, rtol=0.0, atol=1e-14)
    assert l1[0] == pytest.approx(want[0], rel=1e-14)  # positive row: L1 = integral
    assert np.all(l1 >= np.abs(total))


def test_nested_trapezoid_bessel_k0_against_scipy():
    # int_0^inf exp(-a cosh t) dt = K_0(a)
    scipy_special = pytest.importorskip("scipy.special")
    for a in (0.05, 1.0, 6.0):
        total, _ = _nested_trapezoid(lambda t: np.exp(-a * np.cosh(t)),
                                     math.acosh(1.0 + 40.0 / a), 64.0, "K0")
        assert float(total) == pytest.approx(float(scipy_special.k0(a)), rel=1e-13)


def test_nested_trapezoid_evaluates_each_node_once():
    seen, calls = [], []

    def counting(t):
        seen.extend(t.tolist())
        calls.append(t.size)
        return np.exp(-t * t)

    T, start = 7.0, numerics.MIN_NODES // 2
    _nested_trapezoid(counting, T, 64.0, "counting")
    # the first call takes the first two levels, each later call one level
    n = 2 * start * 2 ** (len(calls) - 1)  # final interval count
    assert calls == [2 * start + 1] + [2 * start * 2**k for k in range(len(calls) - 1)]
    assert len(seen) == n + 1
    assert len(set(seen)) == len(seen)
    assert np.allclose(np.sort(seen), T * np.arange(n + 1) / n, rtol=0.0, atol=1e-14)


def _same_bits(got, want):
    return all(np.asarray(g).tobytes() == np.asarray(w).tobytes() for g, w in zip(got, want, strict=True))


def _gaussian_cosine(us, width):
    return lambda t: np.cos(np.outer(us, t)) * np.exp(-t * t / (2.0 * width * width))


@pytest.mark.parametrize("f, T, noise", [
    (_gaussian_cosine(np.array([0.0, 0.5, 1.0, 2.0, 3.5]), 1.0), 12.0, 64.0),
    (lambda t: np.exp(-0.05 * np.cosh(t)), math.acosh(1.0 + 40.0 / 0.05), 64.0),
    (lambda t: np.exp(-6.0 * np.cosh(t)), math.acosh(1.0 + 40.0 / 6.0), 4096.0),
], ids=["gaussian-cosine", "k0-small-x", "k0-large-x"])
def test_nested_trapezoid_matches_level_by_level_oracle_bit_for_bit(f, T, noise):
    # on an elementwise f the two-level first call changes no bit
    assert _same_bits(_nested_trapezoid(f, T, noise, "f"),
                      nested_trapezoid_level_by_level(f, T, noise, "f"))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(width=st.floats(0.05, 8.0), span=st.floats(9.0, 40.0))
def test_nested_trapezoid_matches_oracle_on_random_gaussians(width, span):
    # T = span widths, so the integrand is below e^-40 at T
    f, T = _gaussian_cosine(np.array([0.0, 0.3, 1.0, 4.0]), width), span * width
    assert _same_bits(_nested_trapezoid(f, T, 64.0, "gaussian"),
                      nested_trapezoid_level_by_level(f, T, 64.0, "gaussian"))


@pytest.mark.parametrize("x", [math.exp(-2.0), 1.0, math.e])
def test_bessel_grid_matches_level_by_level_oracle_bit_for_bit(monkeypatch, x):
    us = np.linspace(0.0, 12.0, 41)
    got = qspecial.bessel_k_imag_grid(us, x)
    monkeypatch.setattr(qspecial, "_nested_trapezoid", nested_trapezoid_level_by_level)
    assert _same_bits([got], [qspecial.bessel_k_imag_grid(us, x)])


def test_kernels_match_level_by_level_oracle(monkeypatch):
    # the u-ladder's f is a Bessel grid with one stopping rule over all its
    # orders, so taking two levels in one call may move the last bits
    axis = (-1.0, 0.0, 1.0, 2.0)  # the (t, x, y) set of the kernel benchmark
    queries = [(t, x, y) for t in (0.25, 0.5, 1.0, 2.0) for x in axis for y in axis]

    def values():
        return np.array([(kernels.zeta_transition(KernelQuery(t=t, x=x, y=y, sigma=1.0)),
                          kernels.yakubovich_kernel(KernelQuery(t=t, x=x, y=y)))
                         for t, x, y in queries])

    got = values()
    with monkeypatch.context() as m:
        m.setattr(qspecial, "_nested_trapezoid", nested_trapezoid_level_by_level)
        m.setattr(kernels, "_nested_trapezoid", nested_trapezoid_level_by_level)
        want = values()
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)


def test_nested_trapezoid_raises_when_nodes_run_out(monkeypatch):
    monkeypatch.setattr(numerics, "MIN_NODES", 4)
    monkeypatch.setattr(numerics, "MAX_NODES", 16)
    with pytest.raises(ConvergenceError, match=r"oscillator did not converge within 16 intervals"):
        _nested_trapezoid(lambda t: np.cos(40.0 * t) * np.exp(-t * t / 2), 12.0, 64.0,
                          "oscillator")


def test_nested_trapezoid_raises_when_max_nodes_leaves_no_second_level(monkeypatch):
    monkeypatch.setattr(numerics, "MIN_NODES", 64)
    monkeypatch.setattr(numerics, "MAX_NODES", 16)
    with pytest.raises(ConvergenceError, match=r"gaussian has no second level: MAX_NODES = 16 "
                                               r"is below twice the 32 starting intervals of "
                                               r"MIN_NODES = 64"):
        _nested_trapezoid(lambda t: np.exp(-t * t / 2), 12.0, 64.0, "gaussian")
