"""The constant-generator propagator against the matrix exponential, and the DOPRI stepper."""

import math
import re

import numpy as np
import pytest
import scipy.sparse

from opendecay import _integrate
from opendecay._integrate import integrate, propagate_constant
from opendecay.bloch import propagate_bloch, rapid_generator
from opendecay.errors import IntegratorAccuracyError, StiffnessError, ValidationError
from opendecay.lindblad import bloch_density_bridge, propagate_density, spin_liouvillian
from opendecay.model import GaussianState, OscillatorParams, make_spin_params
from opendecay.qbm import fock
from opendecay.qbm.coefficients import QBMCoefficients
from opendecay.qbm.moments import propagate_moments


def test_theta_table_is_the_largest_theta_within_the_round_off_bound():
    # theta^(m+1) e^theta / (m+1)! <= 2^-53 in logs, bisected down to the float
    # spacing; the table keeps the largest theta that meets it, m = 1..30
    def excess(theta, m):
        return (m + 1) * math.log(theta) + theta - math.lgamma(m + 2) + 53 * math.log(2.0)

    assert len(_integrate._THETA) == 30
    for m, theta in zip(_integrate._DEGREES, _integrate._THETA):
        lo, hi = 0.0, 64.0
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if excess(mid, m) <= 0.0 else (lo, mid)
        assert theta == pytest.approx(lo, rel=1e-14)


def _general_route(matrix, y0, tau):
    return integrate(lambda t, y: matrix @ y, y0, tau)


def _assert_routes_agree(matrix, y0, tau):
    # the Taylor route is exact to round-off against the matrix exponential;
    # the general DOPRI route at rtol 1e-10 agrees with it to 100 rtol
    taylor = propagate_constant(matrix, y0, tau)
    reference = propagate_constant(matrix, y0, tau, method="expm")
    general = _general_route(matrix, y0, tau)
    assert taylor.shape == general.shape and taylor.dtype == general.dtype
    assert np.max(np.abs(taylor - reference)) <= 1e-13 * np.max(np.abs(reference))
    assert np.max(np.abs(general - taylor)) <= 1e-8 * np.max(np.abs(taylor))


@pytest.mark.parametrize("eps, delta, gamma", [
    (0.6, 0.8, 10.0),  # rapid generator, gamma_theta / omega0 = 10
    (0.0, 1.0, 2.0),   # zero bias at the flip: a defective generator
])
def test_triple_generator_matches_the_general_route(eps, delta, gamma):
    gen = rapid_generator(make_spin_params(eps, delta), gamma)
    c0 = np.array([0.3 + 0.1j, -0.2, 0.5j])
    _assert_routes_agree(gen, c0, np.linspace(0.0, 6.0, 31))


def test_liouvillian_on_a_matrix_of_columns_matches_the_general_route():
    liouv = spin_liouvillian(make_spin_params(1.0, 2.0), 0.7)
    rng = np.random.default_rng(5)
    y0 = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    _assert_routes_agree(liouv, y0, np.linspace(0.0, 8.0, 17))


def test_propagator_matrix_matches_the_general_route():
    gen = rapid_generator(make_spin_params(0.5, 1.5), 0.4)
    _assert_routes_agree(gen, np.eye(3, dtype=complex), np.linspace(0.0, 5.0, 11))


def test_real_matrix_and_real_state_stay_real():
    matrix = np.array([[-0.3, 1.0], [-1.0, -0.1]])
    tau = np.linspace(0.0, 10.0, 21)
    assert propagate_constant(matrix, np.array([1.0, 0.5]), tau).dtype == float
    _assert_routes_agree(matrix, np.array([1.0, 0.5]), tau)
    # a list of lists is no ndarray, so scipy.sparse decides it is dense
    for method in ("taylor", "expm"):
        assert np.array_equal(propagate_constant(matrix.tolist(), [1.0, 0.5], tau, method=method),
                              propagate_constant(matrix, np.array([1.0, 0.5]), tau, method=method))


def _banded_generator(n=30):
    # a damped, driven chain: tridiagonal and complex, like a ladder generator
    k = np.arange(n)
    return scipy.sparse.diags(
        [np.sqrt(k[1:] + 1.0) * (0.4 + 0.1j), -0.05 * k - 0.3j * k,
         -np.sqrt(k[1:] + 1.0) * (0.4 - 0.1j)],
        offsets=[-1, 0, 1], format="csr",
    )


@pytest.mark.parametrize("columns", [None, 3])
def test_sparse_generator_matches_the_dense_one_and_expm(columns):
    matrix = _banded_generator()
    rng = np.random.default_rng(7)
    shape = (matrix.shape[0],) if columns is None else (matrix.shape[0], columns)
    y0 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    tau = np.linspace(0.0, 4.0, 9)
    sparse = propagate_constant(matrix, y0, tau)
    dense = propagate_constant(matrix.toarray(), y0, tau)
    assert sparse.shape == dense.shape and sparse.dtype == dense.dtype
    assert np.max(np.abs(sparse - dense)) <= 1e-13 * np.max(np.abs(dense))
    reference = propagate_constant(matrix, y0, tau, method="expm")
    assert np.array_equal(reference, propagate_constant(matrix.toarray(), y0, tau,
                                                        method="expm"))
    # both Taylor routes are exact to round-off
    assert np.max(np.abs(sparse - reference)) <= 1e-13 * np.max(np.abs(reference))


class _CountingCSR(scipy.sparse.csr_array):
    """A CSR generator that records each product it takes."""

    products = 0

    def __matmul__(self, other):
        type(self).products += 1
        return super().__matmul__(other)


def _fock_generator(n_max=9):
    osc = OscillatorParams(1.0, 1.0)
    offsets, parts = fock._generator_parts(*fock.ladder_operators(n_max, osc), osc.mass)
    weights = (1.0, 1.2, 0.05, 0.01, 0.03)
    return fock._csr(offsets, sum(w * part for w, part in zip(weights, parts)))


def test_sparse_route_takes_the_planned_products(monkeypatch):
    # m products for each of the s substeps of every interval, no more: the
    # plan is a priori, with no early stop
    matrix = _fock_generator()
    monkeypatch.setattr(_CountingCSR, "products", 0)
    counting = _CountingCSR(matrix)
    tau = np.array([0.0, 0.1, 0.2, 1.7, 5.0])
    out = propagate_constant(counting, np.eye(matrix.shape[0], dtype=complex)[0], tau)
    norms = np.diff(tau) * np.max(np.sum(np.abs(matrix.toarray()), axis=0))
    degrees, steps = _integrate._taylor_plan(norms)
    assert np.all(norms / steps <= _integrate._THETA[degrees - 1])
    assert _CountingCSR.products == np.sum(degrees * steps)
    assert np.all(np.isfinite(out))


def test_constant_route_refuses_past_its_step_budget(monkeypatch):
    matrix = -np.eye(2)
    out = propagate_constant(matrix, np.ones(2), [0.0, 10.0])
    assert out[-1] == pytest.approx(np.exp(-10.0) * np.ones(2), rel=1e-14)
    # ||10 M||_1 = 10 takes three substeps of degree 30
    monkeypatch.setattr(_integrate, "_MAX_SUBSTEPS", 2)
    monkeypatch.setattr(_CountingCSR, "products", 0)
    for m in (matrix, _CountingCSR(matrix)):
        with pytest.raises(StiffnessError, match="substep budget of 2 exceeded"):
            propagate_constant(m, np.ones(2), [0.0, 10.0])
    assert _CountingCSR.products == 0


def test_constant_route_refuses_a_stiff_system(monkeypatch):
    # refused a priori, before a product with M or an exponential is formed
    def no_exponential(*args):
        raise AssertionError("an exponential was formed")

    monkeypatch.setattr(_integrate, "_taylor_exp", no_exponential)
    monkeypatch.setattr(_CountingCSR, "products", 0)
    matrix = -1e16 * np.eye(2)
    for m in (matrix, _CountingCSR(matrix)):
        with pytest.raises(StiffnessError,
                           match=r"substep budget of 1000000 exceeded: \|\|M\|\|_1 = 1\.000e\+16"):
            propagate_constant(m, np.ones(2), [0.0, 1.0])
    assert _CountingCSR.products == 0


def test_general_route_refuses_a_non_finite_error_estimate_at_once():
    # a NaN estimate is neither accepted nor shrinks the step, so without
    # the check a call would spin through its whole step budget
    def rhs(t, y):
        return -y if t < 0.5 else np.full_like(y, np.nan)

    with pytest.raises(IntegratorAccuracyError,
                       match=r"error estimate is nan .*t=0\.4.*not finite"):
        integrate(rhs, np.ones(2), [0.0, 1.0])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_constant_route_refuses_a_non_finite_matrix(value):
    matrix = np.diag([value, -1.0])
    for method in ("taylor", "expm"):
        with pytest.raises(ValidationError, match=r"^matrix must be finite; entry \(0, 0\)"):
            propagate_constant(matrix, np.ones(2), [0.0, 1.0], method=method)
        with pytest.raises(ValidationError, match=r"^matrix\.data must be finite; node 0"):
            propagate_constant(scipy.sparse.csr_array(matrix), np.ones(2), [0.0, 1.0],
                               method=method)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_constant_route_names_the_first_node_that_overflows(sparse):
    # exp(1000 t) passes the largest float between t = 0.5 and t = 1
    matrix = 1e3 * np.eye(2)
    if sparse:
        matrix = scipy.sparse.csr_array(matrix)
    with pytest.raises(IntegratorAccuracyError, match=r"not finite at t=1 \(node 2\)"):
        propagate_constant(matrix, np.ones(2), [0.0, 0.5, 1.0, 2.0])


@pytest.mark.parametrize("matrix, y0", [
    (np.ones((3, 2)), np.ones(3)),        # not square
    (np.ones((2, 2, 2)), np.ones(2)),     # not 2-d
    (np.eye(3), np.ones(4)),              # size does not match y0
    (np.eye(3), np.ones((3, 2, 2))),      # y0 neither a vector nor a matrix
])
def test_constant_route_validates_its_matrix(matrix, y0):
    shapes = re.escape(str(matrix.shape)) + ".*" + re.escape(str(y0.shape))
    matrices = [matrix] + ([scipy.sparse.csr_array(matrix)] if matrix.ndim == 2 else [])
    for m in matrices:
        for method in ("taylor", "expm"):
            with pytest.raises(ValueError, match=shapes):
                propagate_constant(m, y0, [0.0, 1.0], method=method)


@pytest.mark.parametrize("grid, message", [
    ([0.0, np.nan], "finite; node 1 is nan"),
    ([0.0, np.inf], "finite; node 1 is inf"),
    ([np.nan, 1.0], "finite; node 0 is nan"),
    ([1.0, 0.0], "strictly increasing"),
    ([0.0, 1.0, 1.0], "strictly increasing"),
    ([], "at least one node"),
    ([[0.0, 1.0]], "1-d"),
])
def test_every_route_refuses_a_bad_time_grid(grid, message):
    # one check for all three routes: a non-finite grid is refused by name
    # before a step is taken, not blamed on stiffness or on the state
    matrix = -np.eye(2)
    pattern = "t_grid must .*" + re.escape(message)
    with pytest.raises(ValueError, match=pattern):
        integrate(lambda t, y: -y, np.ones(2), grid)
    for m in (matrix, scipy.sparse.csr_array(matrix)):
        for method in ("taylor", "expm"):
            with pytest.raises(ValueError, match=pattern):
                propagate_constant(m, np.ones(2), grid, method=method)


_SPIN = make_spin_params(1.0, 0.5)
_RHO = np.diag([0.7, 0.3])
_CALLERS = {
    "propagate_bloch": lambda grid: propagate_bloch(
        rapid_generator(_SPIN, 0.3), [1.0, 0.0, 0.0], grid),
    "propagate_density": lambda grid: propagate_density(spin_liouvillian(_SPIN, 0.3), _RHO, grid),
    "bloch_density_bridge": lambda grid: bloch_density_bridge(_SPIN, 0.3, _RHO, grid),
    "propagate_moments": lambda grid: propagate_moments(
        QBMCoefficients(np.array([0.0]), 1.0, 0.0, 0.0, 0.0), OscillatorParams(1.0, 1.0),
        GaussianState(1.0, 0.0, 0.5, 0.5), grid),
    "truncated_basis_propagate": lambda grid: fock.truncated_basis_propagate(
        QBMCoefficients(np.array([0.0]), 1.0, 0.0, 0.0, 0.0), OscillatorParams(1.0, 1.0),
        fock.coherent_density(OscillatorParams(1.0, 1.0), 0.5, 0.0, 5), grid),
}


@pytest.mark.parametrize("grid, message", [
    ([0.0, np.nan, 1.0], "be finite; node 1 is nan"),
    ([0.0, 1.0, 0.5], "be strictly increasing; node 2 is 0.5 after 1.0"),
])
@pytest.mark.parametrize("caller", list(_CALLERS))
def test_every_caller_of_the_stepper_names_its_own_tau_grid(caller, grid, message):
    # checked where it enters, so the refusal names the caller's argument,
    # not the stepper's t_grid
    with pytest.raises(ValidationError, match=f"^tau_grid must {re.escape(message)}$"):
        _CALLERS[caller](grid)


@pytest.mark.parametrize("rtol", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("route", [
    lambda rtol: integrate(lambda t, y: -y, np.ones(2), [0.0, 1.0], rtol=rtol),
    lambda rtol: integrate(lambda t, y: -y, np.ones(2), [0.0], rtol=rtol),
], ids=["integrate", "integrate-one-node"])
def test_every_stepping_route_refuses_a_bad_rtol(route, rtol):
    # NaN would pass every error test, inf accepts any step, and a negative
    # rtol acts as its absolute value; each is refused by name, also on a
    # one-node grid that takes no step (the constant route reads no rtol)
    with pytest.raises(ValidationError, match=r"^rtol must be finite and > 0"):
        route(rtol)


def test_general_route_on_one_node_returns_y0_without_calling_f():
    def f(t, y):
        raise AssertionError("f called on a grid with no step")

    y0 = np.array([1.0, -2.0])
    out = integrate(f, y0, [0.5])
    assert out.shape == (1, 2) and np.array_equal(out[0], y0)
    out[0, 0] = 7.0  # a copy: y0 is not written through
    assert y0[0] == 1.0


def test_general_route_refuses_a_complex_rhs_on_a_real_state():
    rhs = lambda t, y: 1j * y  # noqa: E731
    with pytest.raises(ValueError, match="complex128.*float64"):
        integrate(rhs, np.ones(1), [0.0, 1.0])
    out = integrate(rhs, np.ones(1, dtype=complex), [0.0, 1.0])
    assert out[-1, 0] == pytest.approx(np.exp(1j), rel=1e-9)


def test_general_route_reuses_its_last_stage_as_the_next_first():
    # first same as last: one evaluation at the start, then six per trial
    # step, at t + c h for c = 1/5, 3/10, 4/5, 8/9, 1, 1. Evaluating stage 0
    # again at each step would put a seventh, at t, into every group.
    matrix = _banded_generator(6)
    y0 = np.arange(12.0).reshape(6, 2) + 1j
    times, shapes = [], []

    def rhs(t, y):
        times.append(t)
        shapes.append((y.shape, y.dtype))
        return matrix @ y

    out = integrate(rhs, y0, np.linspace(0.0, 3.0, 4))
    assert np.all(np.isfinite(out)) and times[0] == 0.0
    assert (len(times) - 1) % 6 == 0
    trials = np.reshape(times[1:], (-1, 6))
    h = (trials[:, 5] - trials[:, 0]) / 0.8
    start = trials[:, 5] - h
    assert len(trials) > 3 and np.all(h > 0.0)
    want = start[:, None] + h[:, None] * np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
    assert np.allclose(trials, want, rtol=0.0, atol=1e-12)
    assert set(shapes) == {(y0.shape, y0.dtype)}


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("columns", [None, 3])
def test_the_memory_order_of_y0_does_not_change_a_bit(sparse, columns):
    # a transposed block (as propagate_density passes) is Fortran-ordered and a
    # column of a C-ordered matrix is strided; the error norm reads flat views
    # of its buffers, which would go stale if they took y0's order
    matrix = _banded_generator(8)
    if not sparse:
        matrix = matrix.toarray()
    rng = np.random.default_rng(3)
    base = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
    y0 = base[:, 0] if columns is None else np.asfortranarray(base[:, :columns])
    assert not y0.flags.c_contiguous
    tau = np.linspace(0.0, 4.0, 5)
    for route in (lambda y: propagate_constant(matrix, y, tau),
                  lambda y: integrate(lambda t, x: matrix @ x, y, tau)):
        assert np.array_equal(route(y0), route(np.ascontiguousarray(y0)))


@pytest.mark.parametrize("y0", [np.ones(0), np.ones((2, 0))], ids=["vector", "columns"])
def test_every_route_refuses_an_empty_state(y0):
    # the error norm is a root mean square over the components: there are none
    matrix = -np.eye(y0.shape[0])
    pattern = r"^y0 must be an array of at least one dimension and one component, got shape"
    with pytest.raises(ValidationError, match=pattern):
        integrate(lambda t, y: -y, y0, [0.0, 1.0])
    for m in (matrix, scipy.sparse.csr_array(matrix)):
        for method in ("taylor", "expm"):
            with pytest.raises(ValidationError, match=pattern):
                propagate_constant(m, y0, [0.0, 1.0], method=method)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("route", ["integrate", "taylor", "expm"])
def test_every_route_refuses_a_non_finite_state_by_name(route, value):
    # without the check the Taylor route blames an overflow at t=0, the
    # expm route returns NaN and the general route blames its error estimate
    y0 = np.array([1.0, value])
    pattern = rf"^y0 must be finite; node 1 is {value}"
    with pytest.raises(ValidationError, match=pattern):
        if route == "integrate":
            integrate(lambda t, y: -y, y0, [0.0, 1.0])
        else:
            propagate_constant(-np.eye(2), y0, [0.0, 1.0], method=route)
    if route != "integrate":
        with pytest.raises(ValidationError, match=r"^y0 must be finite; entry \(1, 0\)"):
            propagate_constant(scipy.sparse.csr_array(-np.eye(2)), y0[:, None], [0.0, 1.0],
                               method=route)


def test_general_route_refuses_a_scalar_state():
    with pytest.raises(ValidationError, match=r"^y0 must be an array .* got shape \(\)"):
        integrate(lambda t, y: -y, 1.0, [0.0, 1.0])


@pytest.mark.parametrize("rhs", [
    lambda t, y: np.ones(3),                 # wrong length
    lambda t, y: np.ones((2, 1)),            # would broadcast
    lambda t, y: -1.0,                       # a scalar
    lambda t, y: -y if t == 0.0 else -1.0,   # a scalar from the second stage on
], ids=["length", "broadcast", "scalar", "later-stage"])
def test_general_route_refuses_a_rhs_of_another_shape(rhs):
    y0 = np.ones(2)
    shape = np.shape(rhs(0.5, y0))
    pattern = "shape " + re.escape(str(shape)) + ".*shape " + re.escape(str(y0.shape))
    with pytest.raises(ValueError, match=pattern):
        integrate(rhs, y0, [0.0, 1.0])
