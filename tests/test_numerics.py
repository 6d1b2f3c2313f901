"""Tests for the nested trapezoidal rule behind the Bessel-K integrals."""

import math

import numpy as np
import pytest

from motzkinq import numerics
from motzkinq.errors import ConvergenceError
from motzkinq.numerics import _nested_trapezoid


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
    n = start * 2 ** (len(calls) - 1)  # final interval count, one call per level
    assert calls == [start + 1] + [start * 2**k for k in range(len(calls) - 1)]
    assert len(seen) == n + 1
    assert len(set(seen)) == len(seen)
    assert np.allclose(np.sort(seen), T * np.arange(n + 1) / n, rtol=0.0, atol=1e-14)


def test_nested_trapezoid_raises_when_nodes_run_out(monkeypatch):
    monkeypatch.setattr(numerics, "MIN_NODES", 4)
    monkeypatch.setattr(numerics, "MAX_NODES", 16)
    with pytest.raises(ConvergenceError, match=r"oscillator did not converge within 16 intervals"):
        _nested_trapezoid(lambda t: np.cos(40.0 * t) * np.exp(-t * t / 2), 12.0, 64.0,
                          "oscillator")
