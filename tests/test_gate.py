import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from mstomo import cli, config, core, gate
from conftest import ginibre_states

TWO_PI = 2.0 * math.pi
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def destroy(dim):
    """Truncated annihilation operator on Fock levels 0 .. dim-1."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def operating_point(khz=6.4, m=1):
    return gate.gate_operating_point(TWO_PI * khz * 1e3, m)


def coherent_state(alpha, dim):
    """Amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) of a coherent state."""
    if alpha == 0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        return amps
    n = np.arange(dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim)))))
    return np.exp(-abs(alpha) ** 2 / 2.0 + n * cmath.log(alpha) - log_fact / 2.0)


@pytest.mark.parametrize("code", [
    "import mstomo.gate",
    f"import mstomo.cli; mstomo.cli.load_config({str(CONFIGS / 'noisy.cfg')!r})",
], ids=["gate", "cli"])
def test_imports_load_no_scipy(code):
    # scan, budget and analyze never fit, so they must not pay for scipy
    paths = [str(Path(gate.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code += ("; import sys; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_displacement_starts_at_zero():
    assert gate.displacement_alpha(0.0, 1.0, 0.5) == 0.0


def test_displacement_closes_after_full_loop():
    delta = TWO_PI * 12.8e3
    assert abs(gate.displacement_alpha(TWO_PI / delta, delta, 0.5)) < 1e-12


def test_displacement_at_half_loop():
    delta = 2.0
    assert gate.displacement_alpha(math.pi / delta, delta, 0.5) == pytest.approx(1.0)


def test_trajectory_phase_values():
    assert gate.trajectory_phase(0.0, 1.0, 0.7) == 0.0
    delta = TWO_PI * 12.8e3
    assert gate.trajectory_phase(TWO_PI / delta, delta, 0.5) == pytest.approx(
        math.pi / 2, abs=1e-12)
    # m closed loops leave 2 pi m alpha_o^2
    assert gate.trajectory_phase(2 * TWO_PI / delta, delta, 0.5) == pytest.approx(
        math.pi, abs=1e-12)


def test_operating_point_numbers():
    params = operating_point(6.4)
    assert params.delta / (TWO_PI * 1e3) == pytest.approx(12.8, abs=1e-9)
    assert params.tau_g * 1e6 == pytest.approx(78.125, abs=1e-6)
    params63 = operating_point(6.3)
    assert params63.delta / (TWO_PI * 1e3) == pytest.approx(12.6, abs=1e-9)


def test_operating_point_closure_and_phase():
    for m in (1, 2, 4):
        params = operating_point(6.4, m=m)
        assert abs(gate.displacement_alpha(params.tau_g, params.delta,
                                           params.alpha_o)) < 1e-12
        phase = gate.trajectory_phase(params.tau_g, params.delta, params.alpha_o)
        assert phase == pytest.approx(math.pi / 2, abs=1e-12)


def test_operating_point_scaling_with_loops():
    one = operating_point(6.4, m=1)
    four = operating_point(6.4, m=4)
    assert four.delta == pytest.approx(2 * one.delta)
    assert four.tau_g == pytest.approx(2 * one.tau_g)


def test_gate_params_validation():
    with pytest.raises(ValueError):
        gate.GateParams(eta_omega=1.0, delta=0.0)
    with pytest.raises(ValueError):
        gate.GateParams(eta_omega=-1.0, delta=1.0)
    with pytest.raises(ValueError):
        gate.gate_operating_point(1.0, m=0)


def test_far_detuned_phase_matches_effective_coupling():
    # closed-loop phase equals the effective coupling (eta_omega)^2 / delta
    # times t deep in the far-detuned regime
    for alpha_o in (0.05, 0.02, 0.01):
        eta_omega = TWO_PI * 6.4e3
        delta = eta_omega / alpha_o
        params = gate.GateParams(eta_omega=eta_omega, delta=delta)
        for m in (1, 3):
            t = TWO_PI * m / delta
            phase = gate.trajectory_phase(t, delta, params.alpha_o)
            assert abs(phase - eta_omega ** 2 / delta * t) < 1e-10


# ---------------------------------------------------------------------------
# ideal entangling map
# ---------------------------------------------------------------------------

def test_ideal_gate_on_basis_states():
    psi = gate.apply_ideal_gate(core.basis_state("uu"), phi_e=0.3)
    expected = (core.basis_state("uu")
                + 1j * np.exp(1j * 0.3) * core.basis_state("dd")) / math.sqrt(2)
    assert np.allclose(psi, expected, atol=1e-12)

    psi = gate.apply_ideal_gate(core.basis_state("du"), phi_o=0.43)
    expected = (core.basis_state("du")
                + 1j * np.exp(-1j * 0.43) * core.basis_state("ud")) / math.sqrt(2)
    assert np.allclose(psi, expected, atol=1e-12)


def test_ideal_gate_twice_acts_as_double_flip():
    # oracle: squaring the 4x4 matrix directly
    u = gate.ideal_gate_unitary(0.0, 0.0)
    twice = u @ u @ core.basis_state("uu")
    assert np.allclose(twice, 1j * core.basis_state("dd"), atol=1e-12)
    assert np.allclose(gate.apply_ideal_gate(
        gate.apply_ideal_gate(core.basis_state("uu"))),
        1j * core.basis_state("dd"), atol=1e-12)


@given(st.floats(min_value=-7, max_value=7), st.floats(min_value=-7, max_value=7))
def test_ideal_gate_unitary_for_any_phases(phi_e, phi_o):
    u = gate.ideal_gate_unitary(phi_e, phi_o)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


def test_ideal_gate_on_density_matrix(rng):
    rho = core.random_density(rng)
    out = gate.apply_ideal_gate(rho, 0.2, -0.4)
    assert core.validate_density(out).ok


# ---------------------------------------------------------------------------
# spin-motion propagation
# ---------------------------------------------------------------------------

def test_displacement_operator_matches_matrix_exponential(rng):
    for dim in (2, 40, 120):
        a = destroy(dim)
        for alpha in (0.0, 1.3 - 0.4j, complex(*rng.uniform(-3, 3, 2))):
            expected = expm(alpha * a.conj().T - np.conjugate(alpha) * a)
            assert np.abs(gate.displacement_operator(alpha, dim) - expected).max() < 1e-12


@pytest.mark.parametrize("kind, solves", [("time", 1), ("detuning", 2)])
def test_scan_solves_one_eigenproblem_per_register_size(monkeypatch, kind, solves):
    # the time scan keeps one register; the detuning scan's points need 84 to
    # 121 levels and share two registers
    cfg = config.load_config(CONFIGS / "noisy.cfg")
    gate._quadrature_eigh.cache_clear()
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(matrix):
        calls.append(matrix.shape[0])
        return real_eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rows = cli.run_scan(cfg, kind)
    assert len(rows) == cfg.scan_points
    assert len(calls) == len(set(calls)) == solves


def test_propagation_at_zero_time_is_identity():
    params = operating_point()
    state = gate.spin_motion_product(core.basis_state("ud"), 2, 20)
    out = gate.propagate_spin_motion(state, params, 0.0)
    assert np.abs(out.amps - state.amps).max() < 1e-12


def test_propagation_reaches_the_entangled_target():
    # cross-check against the closed 4x4 map
    params = operating_point()
    state = gate.spin_motion_product(core.basis_state("uu"), 0, 20)
    out = gate.propagate_spin_motion(state, params, params.tau_g)
    target = gate.target_state("uu")
    overlap = (target.conj() @ out.spin_density() @ target).real
    assert overlap >= 1 - 1e-8
    assert abs(out.norm - 1.0) < 1e-9


def test_propagation_fidelity_independent_of_initial_fock_level():
    params = operating_point()
    target = gate.target_state("uu")
    fids = []
    for n in range(4):
        state = gate.spin_motion_product(core.basis_state("uu"), n, 24)
        out = gate.propagate_spin_motion(state, params, params.tau_g)
        fids.append((target.conj() @ out.spin_density() @ target).real)
    assert np.ptp(fids) < 1e-8


def test_propagation_displaces_antialigned_x_states():
    # |up_x down_x> x |0> picks up the trajectory phase on a coherent state
    params = operating_point()
    spin_x = np.array([1, -1, 1, -1], dtype=complex) / 2.0
    state = gate.spin_motion_product(spin_x, 0, 30)
    t = math.pi / params.delta
    out = gate.propagate_spin_motion(state, params, t)
    phase = np.exp(-1j * gate.trajectory_phase(t, params.delta, params.alpha_o))
    expected = np.outer(spin_x, phase * coherent_state(2 * params.alpha_o, 31))
    assert np.abs(out.amps - expected).max() < 1e-10


def test_propagation_norm_preserved_off_closure(rng):
    params = operating_point()
    for _ in range(5):
        spin = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        spin /= np.linalg.norm(spin)
        state = gate.spin_motion_product(spin, 0, 30)
        t = rng.uniform(0.0, 2.0) * params.tau_g
        out = gate.propagate_spin_motion(state, params, t)
        assert abs(out.norm - 1.0) < 1e-9


def test_truncation_health_is_enforced():
    params = operating_point()
    state = gate.spin_motion_product(core.basis_state("uu"), 0, 3)
    with pytest.raises(gate.TruncationError, match="top"):
        gate.propagate_spin_motion(state, params, 0.4 * params.tau_g)
    with pytest.raises(gate.TruncationError):
        gate.propagate_spin_motion(
            gate.spin_motion_product(core.basis_state("uu"), 3, 3), params, 0.0)


def test_spin_motion_state_validation():
    with pytest.raises(ValueError, match="norm"):
        gate.SpinMotionState(np.ones((4, 5), dtype=complex))
    with pytest.raises(ValueError, match="shape"):
        gate.SpinMotionState(np.ones((3, 5), dtype=complex))
    with pytest.raises(ValueError):
        gate.spin_motion_product(core.basis_state("uu"), 9, 5)


# ---------------------------------------------------------------------------
# brightness and parity
# ---------------------------------------------------------------------------

def test_brightness_zero_at_start():
    assert gate.brightness_closed(0.0, TWO_PI * 12.8e3, 0.5) == pytest.approx(0.0)


def test_brightness_one_at_operating_point():
    params = operating_point()
    value = gate.brightness_closed(params.tau_g, params.delta, params.alpha_o)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_parity_at_closed_trajectories():
    params = operating_point()
    for k in (1, 2, 3):
        assert gate.parity_closed(k * params.tau_g, params.delta,
                                  params.alpha_o) == pytest.approx(1.0, abs=1e-12)


def test_parity_at_half_loop():
    delta = TWO_PI * 12.8e3
    value = gate.parity_closed(math.pi / delta, delta, 0.5)
    assert value == pytest.approx(0.5 * (1 + math.exp(-2.0)), abs=1e-12)


def test_closed_forms_match_propagation_on_grid():
    eta_omega = TWO_PI * 6.3e3
    times = np.linspace(8e-6, 150e-6, 5)
    deltas = TWO_PI * 1e3 * np.linspace(8.0, 20.0, 5)
    for t in times:
        for delta in deltas:
            alpha_o = eta_omega / delta
            s_prop, p_prop = gate.propagated_signals(t, delta, alpha_o)
            assert abs(gate.brightness_closed(t, delta, alpha_o) - s_prop) < 1e-8
            assert abs(gate.parity_closed(t, delta, alpha_o) - p_prop) < 1e-8


def test_parity_oracle_at_closures():
    params = operating_point()
    _, parity = gate.propagated_signals(params.tau_g, params.delta, params.alpha_o)
    assert parity >= 1 - 1e-8


def test_thermal_weights_are_geometric():
    w = gate.thermal_weights(0.3, 25)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert w[1] / w[0] == pytest.approx(0.3 / 1.3)
    assert np.array_equal(gate.thermal_weights(0.0, 3), [1.0, 0.0, 0.0])


def test_thermal_signals_match_scaled_closed_form():
    # candidate closed form: decay exponent scaled by (2 nbar + 1)
    eta_omega = TWO_PI * 6.3e3
    for t, delta_khz in ((75e-6, 10.0), (40e-6, 12.6), (110e-6, 16.0)):
        delta = TWO_PI * 1e3 * delta_khz
        alpha_o = eta_omega / delta
        s, p = gate.thermal_signals(t, delta, alpha_o, 0.3)
        assert abs(s - gate.brightness_closed(t, delta, alpha_o, 0.3)) < 1e-8
        assert abs(p - gate.parity_closed(t, delta, alpha_o, 0.3)) < 1e-8


def thermal_oracle(t, delta, alpha_o, nbar):
    """Amplitude route: propagate uu x |n> for each thermal level, weight populations."""
    levels = gate.thermal_levels(nbar)
    dim = gate.thermal_register_size(alpha_o, nbar)
    p = np.zeros(4)
    for n, w in enumerate(gate.thermal_weights(nbar, levels)):
        start = gate.spin_motion_product(core.basis_state("uu"), n, dim - 1)
        final = gate._force(start.amps, t, delta, alpha_o)
        p += w * np.sum(np.abs(final) ** 2, axis=1)
    return gate.populations_to_brightness(p), gate.populations_to_parity(p)


def random_scan(rng, points):
    """(t, delta, alpha_o) at random times and detunings, eta_omega/2pi = 6.3 kHz."""
    t = rng.uniform(0.0, 150e-6, points)
    delta = TWO_PI * 1e3 * rng.uniform(8.0, 20.0, points) * rng.choice([-1, 1], points)
    return t, delta, TWO_PI * 6.3e3 / delta


@pytest.mark.parametrize("nbar", [0.3, 1.0, 3.0])
def test_thermal_signals_match_amplitude_propagation(rng, nbar):
    t, delta, alpha_o = random_scan(rng, 4)
    brightness, parity = gate.thermal_signals(t, delta, alpha_o, nbar)
    for i in range(len(t)):
        s_ref, p_ref = thermal_oracle(t[i], delta[i], alpha_o[i], nbar)
        assert abs(brightness[i] - s_ref) < 1e-13
        assert abs(parity[i] - p_ref) < 1e-13


@pytest.mark.parametrize("nbar", [0.3, 10.0])
def test_scan_registers_bound_each_point_and_stay_few(nbar):
    # a wide detuning grid: its points need registers spanning a factor of 8-10
    alpha_o = TWO_PI * 6.3e3 / (TWO_PI * 1e3 * np.linspace(0.6, 22.0, 69))
    own = np.array([gate.thermal_register_size(a, nbar) for a in alpha_o])
    registers = gate.scan_registers(alpha_o, nbar)
    assert np.all(own <= registers) and np.all(registers <= 1.25 * own)
    assert registers.max() == own.max()
    span = own.max() / own.min()
    assert len(set(registers)) <= math.log(span) / math.log(1.25) + 1


def test_thermal_scan_matches_pointwise_calls(rng):
    # the array call shares registers between neighbouring points
    t, delta, alpha_o = random_scan(rng, 12)
    brightness, parity = gate.thermal_signals(t, delta, alpha_o, 0.3)
    for i in range(len(t)):
        s, p = gate.thermal_signals(t[i], delta[i], alpha_o[i], 0.3)
        assert isinstance(s, float) and isinstance(p, float)
        assert abs(brightness[i] - s) < 1e-12
        assert abs(parity[i] - p) < 1e-12


def test_thermal_scan_rejects_a_register_too_small_for_its_grid(monkeypatch):
    params = gate.GateParams(eta_omega=TWO_PI * 6.3e3, delta=TWO_PI * 12.6e3)
    grid = [(75e-6, TWO_PI * 1e3 * d) for d in np.linspace(6.0, 20.0, 5)]
    levels = gate.thermal_levels(0.3)
    monkeypatch.setattr(gate, "thermal_register_size",
                        lambda alpha_o, nbar: levels + 2)
    with pytest.raises(gate.TruncationError, match="top"):
        gate.signal_curves(params, grid, 0.3)


def test_thermal_averaging_reduces_contrast():
    params = gate.GateParams(eta_omega=TWO_PI * 6.3e3, delta=TWO_PI * 12.6e3)
    grid = [(75e-6, TWO_PI * 1e3 * d) for d in np.linspace(6.0, 20.0, 30)]
    cold = gate.brightness_curve(params, grid, nbar=0.0)
    warm = gate.brightness_curve(params, grid, nbar=0.3)
    assert np.ptp(warm) < np.ptp(cold)


def test_brightness_curve_dispatch_handles_both_temperatures():
    params = operating_point(6.3)
    grid = [(75e-6, params.delta)]
    warm = gate.brightness_curve(params, grid, nbar=0.3)
    cold = gate.brightness_curve(params, grid, nbar=0.0)
    s_ref, p_ref = gate.thermal_signals(75e-6, params.delta, params.alpha_o, 0.3)
    assert warm[0] == pytest.approx(s_ref, abs=1e-12)
    assert cold[0] == pytest.approx(
        gate.brightness_closed(75e-6, params.delta, params.alpha_o), abs=1e-12)
    assert gate.signal_curves(params, grid, nbar=0.3)[1][0] == pytest.approx(
        p_ref, abs=1e-12)


def test_contrast_and_offset_factors():
    values = np.array([0.0, 1.0, 2.0])
    assert np.allclose(gate.apply_contrast(values, 0.9, 0.05),
                       [0.05, 0.95, 1.85])


# ---------------------------------------------------------------------------
# noise channels
# ---------------------------------------------------------------------------

def test_scattering_channel_identity_at_zero():
    target = gate.target_state("uu")
    rho = core.projector(target)
    assert np.abs(gate.scattering_channel(rho, 0.0, 0.27, target) - rho).max() == 0


def test_scattering_channel_fidelity_contract():
    target = gate.target_state("uu")
    rho = core.projector(target)
    out = gate.scattering_channel(rho, 0.3, 0.27, target)
    f = (target.conj() @ out @ target).real
    assert f == pytest.approx(0.781, abs=1e-12)
    assert 1 - f == pytest.approx(0.73 * 0.3, abs=1e-12)


def test_scattering_channel_perfect_overlap():
    target = gate.target_state("dd")
    rho = core.projector(target)
    out = gate.scattering_channel(rho, 0.8, 1.0, target)
    assert (target.conj() @ out @ target).real == pytest.approx(1.0, abs=1e-12)


def test_scattering_channel_rejects_bad_probabilities():
    target = gate.target_state("uu")
    with pytest.raises(ValueError):
        gate.scattering_channel(core.projector(target), 1.2, 0.27, target)
    with pytest.raises(ValueError):
        gate.scattering_channel(core.projector(target), 0.3, -0.1, target)


def test_prep_error_channel_limits():
    rho = core.projector(core.basis_state("ud"))
    assert np.abs(gate.prep_error_channel(rho, 1.0) - rho).max() < 1e-15
    assert np.abs(gate.prep_error_channel(rho, 0.25) - np.eye(4) / 4).max() < 1e-15
    with pytest.raises(ValueError):
        gate.prep_error_channel(rho, 0.2)


def test_prep_error_then_gate_keeps_fidelity_accounting():
    # direct 4x4 evaluation: depolarized input through the unitary keeps
    # the input fidelity as the target fidelity
    rho_in = gate.prep_error_channel(core.projector(core.basis_state("ud")), 0.85)
    rho_out = gate.apply_ideal_gate(rho_in, phi_o=0.43)
    target = gate.target_state("ud", phi_o=0.43)
    assert (target.conj() @ rho_out @ target).real == pytest.approx(0.85, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_channels_preserve_trace_and_positivity(seed, p_sc, kappa):
    rho = ginibre_states(seed, 1)[0]
    target = gate.target_state("uu", phi_e=-1.1)
    out = gate.scattering_channel(rho, p_sc, kappa, target)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] > -1e-12
    out = gate.prep_error_channel(rho, 0.25 + 0.75 * kappa)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] > -1e-12


# ---------------------------------------------------------------------------
# error budget
# ---------------------------------------------------------------------------

def reference_budget(**overrides):
    values = dict(gamma=TWO_PI * 60e6, delta_raman=TWO_PI * 200e9,
                  epsilon=0.2, zeta=0.5, eta_ld=0.1,
                  omega_hf=TWO_PI * 14.53e9, dnu_st=TWO_PI * 75e3, tau_g=80e-6)
    values.update(overrides)
    return gate.ErrorBudget(**values)


def test_error_budget_beta():
    done = gate.error_budget(reference_budget())
    assert done.beta == pytest.approx(math.sqrt(2) * math.pi / 0.01, abs=1e-9)
    assert done.beta == pytest.approx(444.3, abs=0.1)


def test_error_budget_stark_phase():
    done = gate.error_budget(reference_budget())
    assert done.phi_st == pytest.approx(12 * math.pi, rel=1e-12)
    assert done.phi_st_measured == done.phi_st


def test_error_budget_inferred_scattering():
    done = gate.error_budget(reference_budget())
    assert done.p_sc_inferred == pytest.approx(0.3113, abs=5e-4)
    assert done.p_sc == done.p_sc_inferred
    assert done.infidelity == pytest.approx(0.73 * done.p_sc, rel=1e-12)
    assert done.gamma_sc == pytest.approx(done.p_sc / (2 * 80e-6), rel=1e-12)


def test_error_budget_theory_only_without_measured_shift():
    done = gate.error_budget(reference_budget(dnu_st=None, tau_g=None))
    assert done.p_sc_inferred is None
    assert done.p_sc == done.p_sc_theory
    assert done.gamma_sc is None
    assert done.phi_st == done.phi_st_theory


def test_error_budget_scales_with_detuning():
    base = gate.error_budget(reference_budget(dnu_st=None, tau_g=None))
    wide = gate.error_budget(reference_budget(dnu_st=None, tau_g=None,
                                          delta_raman=TWO_PI * 2000e9))
    assert wide.p_sc == pytest.approx(base.p_sc / 10)
    assert wide.phi_st == pytest.approx(base.phi_st / 10)


def test_error_budget_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="epsilon"):
        reference_budget(epsilon=0.0)
    with pytest.raises(ValueError, match="linewidth"):
        reference_budget(delta_raman=TWO_PI * 10e6)
    with pytest.raises(ValueError, match="kappa"):
        reference_budget(kappa=1.5)
    # p_sc 415 from the measured shift, 2.7 from the theory
    with pytest.raises(ValueError, match=r"scattering probability 415\.\d+ from dnu_st"):
        reference_budget(dnu_st=TWO_PI * 1e8)
    with pytest.raises(ValueError, match=r"scattering probability 2\.\d+ from epsilon"):
        reference_budget(dnu_st=None, epsilon=0.02)


def test_error_budget_takes_no_derived_figures():
    with pytest.raises(TypeError):
        reference_budget(p_sc=0.5)
    budget = reference_budget()
    assert gate.error_budget(budget) is budget
