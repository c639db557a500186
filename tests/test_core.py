import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mstomo import core
from conftest import ginibre_states, haar_unitary

BELL_PHI = (core.basis_state("uu") + core.basis_state("dd")) / math.sqrt(2)


def test_kron_flips_both_qubits():
    flipped = core.kron(core.SIGMA_X, core.SIGMA_X) @ core.basis_state("uu")
    assert np.allclose(flipped, core.basis_state("dd"))


def test_kron_identity_and_entry():
    assert np.array_equal(core.kron(core.SIGMA_0, core.SIGMA_0), np.eye(4))
    a = np.arange(4, dtype=complex).reshape(2, 2) + 1j
    b = np.arange(4, 8, dtype=complex).reshape(2, 2)
    assert core.kron(a, b)[0, 3] == a[0, 1] * b[0, 1]


def test_herm_eig_sigma_z():
    values, vectors = core.herm_eig(core.SIGMA_Z)
    assert np.allclose(values, [-1.0, 1.0])
    assert np.allclose(vectors @ vectors.conj().T, np.eye(2), atol=1e-12)


def test_herm_eig_maximally_mixed():
    values, _ = core.herm_eig(np.eye(4) / 4)
    assert np.allclose(values, 0.25)


def test_herm_eig_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        core.herm_eig(bad)


def test_herm_eig_bell_partial_transpose_spectrum():
    spectrum, _ = core.herm_eig(core.partial_transpose(core.projector(BELL_PHI)))
    assert np.allclose(spectrum, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_pauli_expansion_maximally_mixed():
    r = core.pauli_expansion(np.eye(4) / 4)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(r, expected, atol=1e-12)


def test_pauli_expansion_up_up_projector():
    r = core.pauli_expansion(core.projector(core.basis_state("uu")))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 1.0
    assert np.allclose(r, expected, atol=1e-12)


def test_pauli_expansion_bell_state():
    # oracle: direct trace evaluation of Tr(rho sigma_i x sigma_j)
    rho = core.projector(BELL_PHI)
    direct = {
        (i, j): np.trace(rho @ np.kron(core.PAULIS[i], core.PAULIS[j])).real
        for i in range(4) for j in range(4)
    }
    assert direct[(1, 1)] == pytest.approx(1.0)
    assert direct[(2, 2)] == pytest.approx(-1.0)
    assert direct[(3, 3)] == pytest.approx(1.0)
    r = core.pauli_expansion(rho)
    assert r[0, 0] == pytest.approx(1.0)
    assert r[1, 1] == pytest.approx(1.0)
    assert r[2, 2] == pytest.approx(-1.0)
    assert r[3, 3] == pytest.approx(1.0)
    for (i, j), value in direct.items():
        assert r[i, j] == pytest.approx(value, abs=1e-12)


def test_pauli_round_trip_for_1000_random_states():
    for rho in ginibre_states(101, 1000):
        back = core.pauli_reconstruct(core.pauli_expansion(rho))
        assert np.abs(back - rho).max() < 1e-12


def test_eigenvalues_sum_to_trace():
    for rho in ginibre_states(7, 50):
        values, vectors = core.herm_eig(rho)
        assert abs(values.sum() - np.trace(rho).real) < 1e-9
        assert np.abs(vectors @ vectors.conj().T - np.eye(4)).max() < 1e-9


def test_partial_transpose_explicit_blocks():
    rho = np.arange(16, dtype=complex).reshape(4, 4)
    expected = np.array([[0, 1, 8, 9],
                         [4, 5, 12, 13],
                         [2, 3, 10, 11],
                         [6, 7, 14, 15]], dtype=complex)
    assert np.array_equal(core.partial_transpose(rho), expected)


def test_partial_transpose_involution_exact():
    for rho in ginibre_states(11, 100):
        back = core.partial_transpose(core.partial_transpose(rho))
        assert np.array_equal(back, rho)


def _qubit(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_partial_transpose_product_states_stay_psd(rng):
    for _ in range(50):
        rho = np.kron(_qubit(rng), _qubit(rng))
        spectrum, _ = core.herm_eig(core.partial_transpose(rho))
        assert spectrum[0] >= -1e-12


def test_partial_transpose_preserves_hermiticity_and_trace():
    for rho in ginibre_states(13, 20):
        pt = core.partial_transpose(rho)
        assert np.abs(pt - pt.conj().T).max() < 1e-12
        assert abs(np.trace(pt) - 1.0) < 1e-12


def test_quoted_spectrum_reconstruction():
    # a Bell-like state built to carry the partial-transpose spectrum
    # {-0.42, 0.40, 0.49, 0.53}: populations (0.40, 0.035, 0.035, 0.53)
    # and uu-dd coherence 0.455 put the transposed inner block at
    # 0.035 +/- 0.455 while keeping rho itself positive
    rho = np.diag([0.40, 0.035, 0.035, 0.53]).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.455
    assert core.validate_density(rho).ok
    recovered, _ = core.herm_eig(core.partial_transpose(rho))
    assert np.allclose(recovered, [-0.42, 0.40, 0.49, 0.53], atol=1e-12)


def test_rotation_pi_flips():
    r = core.single_qubit_rotation(math.pi, 0.0)
    flipped = core.kron(r, r) @ core.basis_state("uu")
    overlap = abs(core.basis_state("dd").conj() @ flipped)
    assert overlap == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_rotation_zero_angle_is_identity(phi):
    assert np.allclose(core.single_qubit_rotation(0.0, phi), np.eye(2), atol=1e-15)


@given(st.floats(min_value=-10, max_value=10), st.floats(min_value=-10, max_value=10))
def test_rotation_unitarity(theta, phi):
    r = core.single_qubit_rotation(theta, phi)
    assert np.abs(r.conj().T @ r - np.eye(2)).max() < 1e-12


def test_apply_rotations_preserves_trace_and_positivity(rng):
    rho = core.random_density(rng)
    rotated = core.apply_rotations(rho, haar_unitary(rng), haar_unitary(rng))
    assert abs(np.trace(rotated) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rotated)[0] > -1e-12


def test_validate_density_ideal_bell():
    report = core.validate_density(core.projector(BELL_PHI))
    assert report.ok
    assert report.hermiticity_defect == 0.0
    assert report.trace_defect < 1e-15
    assert report.min_eigenvalue > -1e-12


def test_validate_density_flags_trace_defect():
    report = core.validate_density(0.9 * core.projector(BELL_PHI))
    assert not report.ok
    assert report.trace_defect == pytest.approx(0.1, abs=1e-12)


def test_validate_density_reports_negative_eigenvalue():
    # mimics a finite-statistics linear inversion: unit trace, slightly non-PSD
    rho = core.projector(BELL_PHI) + 0.05 * np.diag([1.0, -1.0, 0.0, 0.0])
    report = core.validate_density(rho)
    assert report.min_eigenvalue < 0
    assert not report.ok


def test_random_density_is_physical(rng):
    for rank in (1, 2, 4):
        rho = core.random_density(rng, rank=rank)
        assert core.validate_density(rho).ok


def test_density_json_round_trip(rng):
    rho = core.random_density(rng)
    doc = json.loads(json.dumps(core.density_to_dict(rho)))
    assert doc["dim"] == 4
    assert doc["basis_order"] == "uu,ud,du,dd"
    back = core.density_from_dict(doc)
    assert np.abs(back - rho).max() < 1e-15
    with pytest.raises(ValueError):
        core.density_from_dict({**doc, "dim": 2})
