"""Gauss-Legendre rules, panel edges and the Filon sum of the shared quadrature module."""

import numpy as np
import pytest

from opendecay._quad import _leggauss, filon_sum, panel_nodes, split_edges


def test_rule_is_numpys_bit_for_bit():
    def same(n):
        x, w = _leggauss(n)
        want_x, want_w = np.polynomial.legendre.leggauss(n)
        return np.array_equal(x, want_x) and np.array_equal(w, want_w)

    assert [n for n in [*range(1, 257), 512, 1024] if not same(n)] == []


def test_empty_interval_has_no_panels():
    assert np.array_equal(split_edges(2.0, 2.0, 0.5), [2.0])
    assert np.array_equal(split_edges(3.0, 2.0, 0.5), [3.0])
    nodes, weights = panel_nodes(split_edges(3.0, 2.0, 0.5), 8)
    assert nodes.size == weights.size == 0


@pytest.mark.parametrize("theta", [0.0, 1e-3, 1.0, 1e3, 1e6])
def test_filon_sum_integrates_a_real_integrand_at_any_frequency(theta):
    # int_0^5 e^{-w} e^{i w theta} dw in closed form; the panels resolve
    # e^{-w} alone, whatever theta
    edges = split_edges(0.0, 5.0, 0.5)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    w = mid[:, None] + half[:, None] * _leggauss(16)[0]
    got = filon_sum(np.array([theta]), mid, half, np.exp(-w)[None])
    z = 1.0 - 1j * theta
    want = ((1.0 - np.exp(-5.0 * z)) / z).real
    assert got.shape == (1, 1)
    assert abs(got[0, 0] - want) <= 1e-13
