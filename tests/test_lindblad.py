import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from opendecay import _superop as so
from opendecay import lindblad
from opendecay._integrate import propagate_constant
from opendecay.bloch import (
    propagate_bloch,
    rapid_generator,
)
from opendecay.errors import (
    ConventionMismatchError,
    IntegratorAccuracyError,
    StructuralError,
    ValidationError,
)
from opendecay.lindblad import (
    bloch_density_bridge,
    gks_check,
    propagate_density,
    random_density_matrix,
    spin_liouvillian,
)
from opendecay.model import make_spin_params

RNG = np.random.default_rng(1234)


def _rand_matrix(d):
    return RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))


# ----------------------------------------------------------------- superop


def test_vec_unvec_roundtrip_row_major():
    a = np.arange(4.0).reshape(2, 2)
    v = so.vec(a)
    assert np.allclose(v, [0.0, 1.0, 2.0, 3.0])  # rows concatenated
    assert np.allclose(v.reshape(2, 2), a)


@pytest.mark.parametrize("d", [2, 3])
def test_left_right_represents_sandwich(d):
    a, b, x = _rand_matrix(d), _rand_matrix(d), _rand_matrix(d)
    assert np.allclose(so.left_right(a, b) @ so.vec(x), so.vec(a @ x @ b))


def test_commutator_super_action():
    h, x = _rand_matrix(2), _rand_matrix(2)
    got = (so.commutator_super(h) @ so.vec(x)).reshape(2, 2)
    assert np.allclose(got, h @ x - x @ h)


def test_reshuffle_is_an_involution():
    m = _rand_matrix(4)
    assert np.allclose(so.reshuffle(so.reshuffle(m, 2), 2), m)


def test_choi_of_identity_channel_is_maximally_entangled():
    choi = so.reshuffle(np.eye(4), 2)
    v = so.vec(np.eye(2))
    assert np.allclose(choi, np.outer(v, v.conj()))


# --------------------------------------------------------------- liouvillian


def _spin_parts(spin, gamma_theta):
    """The Hamiltonian part -i[H, .] of the rapid-decay Liouvillian and its dissipator."""
    ham = -1j * so.commutator_super(spin.hamiltonian())
    return ham, spin_liouvillian(spin, gamma_theta) - ham


def test_spin_liouvillian_structure_checks():
    spin = make_spin_params(1.0, 2.0)
    liouv = spin_liouvillian(spin, 0.5)
    assert liouv.shape == (4, 4) and liouv.dtype == complex
    assert not liouv.flags.writeable
    assert so.trace_dual_defect(liouv, 2) < 1e-14
    assert so.hermiticity_involution_defect(liouv, 2) < 1e-14
    ham, diss = _spin_parts(spin, 0.5)
    for check in (gks_check, lambda m: propagate_density(m, 0.5 * np.eye(2), [0.0, 1.0])):
        with pytest.raises(StructuralError, match="does not preserve the trace"):
            check(ham + diss + 0.01 * np.eye(4))
        # i[H, .] keeps the trace but maps Hermitian states to anti-Hermitian
        # ones; its GKS block is the dissipator's, which alone reads as Lindblad
        with pytest.raises(StructuralError,
                           match="^liouv does not commute with Hermitian conjugation$"):
            check(1j * ham + diss)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_liouvillian_is_refused_by_name(value, monkeypatch):
    liouv = np.array(spin_liouvillian(make_spin_params(1.0, 2.0), 0.5))
    liouv[1, 2] = value

    def no_lapack(*args, **kwargs):
        raise AssertionError("a non-finite liouv reached LAPACK")

    # refused before any LAPACK call
    for name in ("eigvalsh", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, no_lapack)
    pattern = rf"^liouv must be finite; entry \(1, 2\) is \(?{value}"
    with pytest.raises(ValidationError, match=pattern):
        gks_check(liouv)
    with pytest.raises(ValidationError, match=pattern):
        propagate_density(liouv, 0.5 * np.eye(2), [0.0, 1.0])


@pytest.mark.parametrize("shape", [(4,), (2, 2), (4, 5), (9, 9), (2, 4, 4)])
def test_a_liouvillian_of_another_shape_is_refused(shape):
    pattern = rf"^liouv must be a 4x4 superoperator, got shape {re.escape(str(shape))}$"
    with pytest.raises(StructuralError, match=pattern):
        gks_check(np.zeros(shape))
    with pytest.raises(StructuralError, match=pattern):
        propagate_density(np.zeros(shape), 0.5 * np.eye(2), [0.0, 1.0])


def test_spin_liouvillian_rejects_a_negative_or_non_finite_gamma():
    for g in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="gamma_theta"):
            spin_liouvillian(make_spin_params(1.0, 2.0), g)


def test_propagation_conserves_trace_and_positivity():
    liouv = spin_liouvillian(make_spin_params(1.0, 1.0), 0.8)
    rho0 = np.array([[0.9, 0.1j], [-0.1j, 0.1]])
    tau = np.linspace(0.0, 8.0, 33)
    states = propagate_density(liouv, rho0, tau)
    traces = np.trace(states, axis1=1, axis2=2)
    assert np.max(np.abs(traces - 1.0)) < 1e-10
    assert np.min(np.linalg.eigvalsh(states)) > -1e-10


def test_propagation_matches_the_expm_route():
    liouv = spin_liouvillian(make_spin_params(0.5, 1.5), 0.3)
    rho0 = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    tau = np.linspace(0.0, 3.0, 7)
    taylor = propagate_density(liouv, rho0, tau)
    exact = propagate_constant(liouv, so.vec(rho0), tau,
                               method="expm").reshape(-1, 2, 2)
    assert np.max(np.abs(taylor - exact)) < 1e-13


def _null_space(liouv):
    """The Liouvillian's null vectors as 2x2 matrices, by SVD."""
    _, s, vh = np.linalg.svd(liouv)
    return [v.conj().reshape(2, 2) for v, si in zip(vh, s) if si <= 1e-10 * s[0]]


def test_generic_steady_state_is_maximally_mixed():
    liouv = spin_liouvillian(make_spin_params(1.0, 2.0), 0.6)
    basis = _null_space(liouv)
    assert len(basis) == 1
    rho = basis[0] / np.trace(basis[0])
    assert np.allclose(rho, 0.5 * np.eye(2), atol=1e-10)


def test_zero_tunneling_has_two_conserved_directions():
    # delta = 0: populations decouple and are individually conserved
    liouv = spin_liouvillian(make_spin_params(2.0, 0.0), 0.6)
    basis = _null_space(liouv)
    assert len(basis) == 2
    for b in basis:
        assert np.allclose(b - np.diag(np.diag(b)), 0.0, atol=1e-12)


def test_gks_matrix_of_spin_dissipator():
    spin = make_spin_params(3.0, 4.0)
    report = gks_check(spin_liouvillian(spin, 1.2))
    eigs = np.linalg.eigvalsh(report.gks_matrix)
    assert report.is_lindblad
    assert eigs[-1] == pytest.approx(0.6, abs=1e-12)
    assert np.max(np.abs(eigs[:-1])) < 1e-12
    # the single unit-rank direction is the coupling vector itself
    vec = np.array([spin.delta_tilde, 0.0, spin.eps_tilde])
    assert np.allclose(report.gks_matrix @ vec, 0.6 * vec, atol=1e-12)


def test_gks_check_accepts_raw_matrix_and_rejects_nontrace():
    liouv = spin_liouvillian(make_spin_params(1.0, 1.0), 0.4)
    report = gks_check(liouv)
    assert report.is_lindblad
    with pytest.raises(StructuralError):
        gks_check(np.eye(4))


@settings(max_examples=25, deadline=None)
@given(
    st.floats(-3.0, 3.0),
    st.floats(0.1, 3.0),
    st.floats(0.0, 4.0),
    st.floats(0.01, 3.0),
)
def test_evolution_is_completely_positive(eps, delta, g, tau):
    liouv = spin_liouvillian(make_spin_params(eps, delta), g)
    channel = scipy.linalg.expm(liouv * tau)
    choi = so.reshuffle(channel, 2)
    assert np.min(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))) > -1e-10


def test_random_density_matrix_is_valid():
    rng = np.random.default_rng(7)
    for _ in range(10):
        rho = random_density_matrix(rng)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-14
        assert np.allclose(rho, rho.conj().T)


def test_bridge_consistency_small_case():
    spin = make_spin_params(1.0, 2.0)
    rho0 = np.array([[0.8, 0.1 + 0.2j], [0.1 - 0.2j, 0.2]])
    dev = bloch_density_bridge(spin, 0.7, rho0, np.linspace(0.0, 5.0, 21))
    assert dev < 1e-9


def test_bridge_on_a_stack_agrees_with_the_per_state_calls():
    # a stack is stepped as one block of columns, so it agrees with the
    # per-state solves to round-off rather than bit for bit
    spin = make_spin_params(3.0, 4.0)
    rng = np.random.default_rng(606)
    states = np.stack([random_density_matrix(rng) for _ in range(4)])
    tau = np.linspace(0.0, 10.0, 51)
    liouv = spin_liouvillian(spin, 1.0)
    stacked = propagate_density(liouv, states, tau)
    assert stacked.shape == (51, 4, 2, 2)
    single = np.stack([propagate_density(liouv, rho, tau) for rho in states], axis=1)
    assert np.max(np.abs(stacked - single)) <= 1e-10
    # one state is the plain 4-vector solve, bit for bit
    flat = propagate_constant(liouv, so.vec(states[0]), tau)
    assert np.array_equal(single[:, 0], flat.reshape(-1, 2, 2))

    devs = bloch_density_bridge(spin, 1.0, states, tau)
    assert isinstance(devs, np.ndarray) and devs.shape == (4,)
    singles = [bloch_density_bridge(spin, 1.0, rho, tau) for rho in states]
    assert all(isinstance(d, float) for d in singles)
    assert np.max(np.abs(devs - singles)) <= 1e-10
    with pytest.raises(ValueError, match="rho0 must have shape"):
        bloch_density_bridge(spin, 1.0, states[:, :1], tau)


def test_propagate_density_refuses_a_bad_shape_or_a_non_state():
    liouv = spin_liouvillian(make_spin_params(1.0, 1.0), 0.4)
    tau = [0.0, 1.0]
    for bad in (np.eye(2)[:1], np.zeros((0, 2, 2)), np.ones(4) / 2,
                np.ones((2, 2, 2, 2)) / 2):
        with pytest.raises(ValueError, match="rho0 must have shape"):
            propagate_density(liouv, bad, tau)
    # every state of a stack is checked, not only the first
    stack = np.stack([0.5 * np.eye(2), np.diag([1.5, -0.5])])
    with pytest.raises(ValidationError, match="^rho0 state 1 is not a density matrix: "):
        propagate_density(liouv, stack, tau)
    with pytest.raises(ValidationError, match="^rho0 is not a density matrix: "):
        propagate_density(liouv, stack[1], tau)


def test_constant_generator_routes_reject_bad_method():
    # the two entry points that take a method refuse an unknown one
    gen = rapid_generator(make_spin_params(1.0, 1.0), 0.4)
    tau = [0.0, 1.0]
    for propagate in (
        lambda: propagate_bloch(gen, [0.0, 1.0, 0.0], tau, method="euler"),
        lambda: propagate_constant(gen, np.eye(3), tau, method="euler"),
    ):
        with pytest.raises(ValueError, match="unknown method"):
            propagate()


def test_non_cp_generator_is_refused_by_the_physicality_check():
    # flipping the dissipator's sign keeps trace and Hermiticity but not
    # complete positivity, so an excited state grows a negative eigenvalue
    ham, diss = _spin_parts(make_spin_params(1.0, 1.0), 0.4)
    bad = ham - diss
    excited = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(IntegratorAccuracyError, match="negative eigenvalue") as single:
        propagate_density(bad, excited, np.linspace(0.0, 2.0, 9))
    tau = str(single.value).split(" at tau=")[1].split()[0]
    # I/2 is a fixed point of either sign, so in a stack only state 1 fails,
    # at the same tau as on its own
    stack = np.stack([0.5 * np.eye(2, dtype=complex), excited])
    with pytest.raises(IntegratorAccuracyError,
                       match=f"negative eigenvalue .* at tau={tau} in state 1 "):
        propagate_density(bad, stack, np.linspace(0.0, 2.0, 9))


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e200, 1e300])
def test_a_trace_leak_is_refused_however_large_the_generator(scale):
    # past ~1e154 the Frobenius norm of the raw matrix overflowed, and a
    # defect of inf/inf = nan passed the structural check
    leak = np.zeros((4, 4), dtype=complex)
    leak[0, 0] = 0.5
    liouv = scale * (spin_liouvillian(make_spin_params(1.0, 2.0), 0.8) + leak)
    for check in (gks_check, lambda m: propagate_density(m, 0.5 * np.eye(2), [0.0, 1.0])):
        with pytest.raises(StructuralError,
                           match=r"^liouv does not preserve the trace \(defect 1\.493e-01\)$"):
            check(liouv)


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e160, 1e300])
def test_a_non_cp_generator_is_not_lindblad_however_large(scale):
    # the sign-flipped dissipator: an overflowing GKS scale of inf accepted it
    ham, diss = _spin_parts(make_spin_params(1.0, 1.0), 0.4)
    report = gks_check(scale * (ham - diss))
    assert not report.is_lindblad
    assert report.min_eigenvalue == pytest.approx(-0.2 * scale)


def test_trace_leak_below_the_structural_check_is_refused_by_the_trace_check():
    # a 1e-10 loss rate of the excited population is 3.5e-14 of this
    # generator's scale, below the structural tolerance, but it leaks 5e-9
    # of state 0's trace by tau = 50; the ground state keeps its trace
    leak = np.zeros((4, 4), dtype=complex)
    leak[0, 0] = -1e-10
    liouv = -1j * so.commutator_super(np.diag([1e3, -1e3])) + leak
    assert so.trace_dual_defect(liouv, 2) < lindblad._STRUCT_TOL
    stack = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    with pytest.raises(IntegratorAccuracyError,
                       match=r"^trace defect 5\.00\de-09 at tau=50 in state 0 exceeds 1e-9$"):
        propagate_density(liouv, stack, np.linspace(0.0, 50.0, 11))


def test_bridge_refuses_mismatched_conventions(monkeypatch):
    def conjugated(spin, gamma_theta):
        return rapid_generator(spin, gamma_theta).conj()

    monkeypatch.setattr(lindblad, "rapid_generator", conjugated)
    rho0 = np.array([[0.8, 0.1 + 0.2j], [0.1 - 0.2j, 0.2]])
    with pytest.raises(ConventionMismatchError, match="disagree"):
        bloch_density_bridge(make_spin_params(1.0, 2.0), 0.7, rho0,
                             np.linspace(0.0, 5.0, 21))
    # one mismatched state in a stack is enough; the maximally mixed one
    # carries no coherence or inversion and agrees under either convention
    stack = np.stack([0.5 * np.eye(2, dtype=complex), rho0])
    with pytest.raises(ConventionMismatchError, match="disagree"):
        bloch_density_bridge(make_spin_params(1.0, 2.0), 0.7, stack,
                             np.linspace(0.0, 5.0, 21))


@pytest.mark.parametrize("rtol", [0.0, -1.0, float("nan"), float("inf")])
def test_bridge_refuses_a_bad_rtol(rtol):
    # the routes read no tolerance, but NaN would pass the 100 * rtol bound
    # and inf would accept any mismatch
    rho0 = np.array([[0.8, 0.1 + 0.2j], [0.1 - 0.2j, 0.2]])
    with pytest.raises(ValidationError, match=r"^rtol must be finite and > 0"):
        bloch_density_bridge(make_spin_params(1.0, 2.0), 0.7, rho0, [0.0, 1.0], rtol=rtol)
