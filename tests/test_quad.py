"""Gauss-Legendre rules and panel edges of the shared quadrature module."""

import math

import numpy as np
import pytest

from opendecay._quad import _leggauss, integrate_to_tolerance, panel_nodes, split_edges
from opendecay.errors import AccuracyError


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


def _columns(w):
    # a smooth column settles at once, a fast cosine needs several doublings
    return np.stack([np.exp(w), np.cos(40.0 * w)], axis=1)


def test_vector_integral_converges_every_component():
    got = integrate_to_tolerance([(_columns, [0.0, 1.0])], rel_tol=1e-13, n0=4, max_doublings=5)
    want = [math.e - 1.0, math.sin(40.0) / 40.0]
    assert np.max(np.abs(got - want)) < 1e-14


def test_vector_refusal_names_the_worst_component():
    with pytest.raises(AccuracyError, match=r"^column 1: .* at 16 nodes/panel"):
        integrate_to_tolerance([(_columns, [0.0, 1.0])], rel_tol=1e-13, n0=4,
                               max_doublings=2, what=lambda i: f"column {i}")
