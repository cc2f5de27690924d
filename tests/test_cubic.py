"""The numpy cubic helpers against SciPy's splines, their oracle."""

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from opendecay._cubic import hermite, not_a_knot_slopes


def _data(n, seed):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.2, 1.0, n))  # unequal steps
    return rng, x, rng.normal(size=n), rng.normal(size=(3, n))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 101])
def test_not_a_knot_slopes_are_the_cubic_splines(n):
    # n = 2 is SciPy's line and n = 3 its parabola; from 4 on the tridiagonal
    # system, for one series and for a (3, n) stack
    _, x, y, stack = _data(n, n)
    for got, want in ((not_a_knot_slopes(x, y), CubicSpline(x, y)(x, 1)),
                      (not_a_knot_slopes(x, stack), CubicSpline(x, stack, axis=1)(x, 1))):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("nu", [0, 1, 2])
def test_hermite_is_the_cubic_hermite_spline_to_the_bit(nu):
    rng, x, y, stack = _data(40, 1)
    dydx, dstack = rng.normal(size=40), rng.normal(size=(3, 40))
    # every node, both ends, and random times between them
    t = np.concatenate([x, np.sort(rng.uniform(x[0], x[-1], 200))])
    assert np.array_equal(hermite(x, y, dydx, t, nu), CubicHermiteSpline(x, y, dydx)(t, nu))
    got = hermite(x, stack, dstack, t, nu)
    assert got.shape == (3, t.size)
    assert np.array_equal(got, CubicHermiteSpline(x, stack, dstack, axis=1)(t, nu))
    assert hermite(x, y, dydx, t[5], nu).shape == ()
    assert hermite(x, stack, dstack, t[:6].reshape(2, 3), nu).shape == (3, 2, 3)
