"""Gauss-Legendre rules, panel edges and the Filon sum of the shared quadrature module."""

import re

import numpy as np
import pytest

from opendecay._quad import (
    _leggauss,
    filon_sum,
    integrate_to_tolerance,
    panel_nodes,
    split_edges,
)
from opendecay.errors import AccuracyError


def test_node_doubling_refusal_reports_the_last_change():
    # sqrt is not smooth at 0, so two doublings cannot reach 1e-12; the
    # refusal must name the change of the final doubling, not the zero left
    # by prev = cur
    with pytest.raises(AccuracyError, match=r"^sqrt: node doubling did not converge "
                       r"to rel_tol=1e-12 \(last change \S+ at 16 nodes/panel\)$") as err:
        integrate_to_tolerance([(np.sqrt, split_edges(0.0, 1.0, 0.5))], rel_tol=1e-12,
                               n0=4, max_doublings=2, what="sqrt")
    change = float(re.search(r"last change (\S+)", str(err.value)).group(1))
    assert change > 0.0


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
