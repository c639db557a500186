import math

import numpy as np
import pytest

from mstomo import core, gate
from mstomo import tomography as tomo
from conftest import ginibre_states, trace_distance

PERFECT = tomo.DetectionModel.perfect()
CAMERA97 = tomo.DetectionModel.symmetric(0.97)
ASYMMETRIC = tomo.DetectionModel.symmetric(0.97, 0.95)


def exact_records(rho, detection=PERFECT):
    """Infinite-statistics records: frequencies fed as fractional counts."""
    return [tomo.CountsRecord(s, tomo.outcome_probabilities(rho, s, detection), 1.0)
            for s in tomo.SETTINGS]


def bell_truth(phi_e=-1.1):
    return core.projector(gate.target_state("uu", phi_e=phi_e))


# ---------------------------------------------------------------------------
# settings and outcome probabilities
# ---------------------------------------------------------------------------

def test_nine_distinct_settings():
    assert len(tomo.SETTINGS) == 9
    assert len(set(tomo.SETTINGS)) == 9


def test_zz_setting_needs_no_rotation():
    r1, r2 = tomo.setting_rotations(("z", "z"))
    assert np.array_equal(r1, np.eye(2))
    assert np.array_equal(r2, np.eye(2))
    with pytest.raises(ValueError):
        tomo.setting_rotations(("z", "w"))


def test_xx_on_x_eigenstate_is_deterministic():
    up_x = np.array([1, 1], dtype=complex) / math.sqrt(2)
    rho = core.projector(np.kron(up_x, up_x))
    p = tomo.outcome_probabilities(rho, ("x", "x"), PERFECT)
    assert np.allclose(p, [1, 0, 0, 0], atol=1e-12)


def test_xy_on_bell_state_is_uniform():
    bell = (core.basis_state("uu") + core.basis_state("dd")) / math.sqrt(2)
    p = tomo.outcome_probabilities(core.projector(bell), ("x", "y"), PERFECT)
    assert np.allclose(p, 0.25, atol=1e-12)


def test_outcome_probabilities_perfect_detection():
    rho = core.projector(core.basis_state("uu"))
    assert np.allclose(tomo.outcome_probabilities(rho, ("z", "z"), PERFECT),
                       [1, 0, 0, 0], atol=1e-14)


def test_outcome_probabilities_with_camera_fidelity():
    rho = core.projector(core.basis_state("uu"))
    p = tomo.outcome_probabilities(rho, ("z", "z"), CAMERA97)
    assert p[0] == pytest.approx(0.9409, abs=1e-12)


def test_outcome_probabilities_maximally_mixed(rng):
    for setting in tomo.SETTINGS:
        p = tomo.outcome_probabilities(np.eye(4) / 4, setting, CAMERA97)
        assert np.allclose(p, 0.25, atol=1e-12)
    rho = core.random_density(rng)
    for setting in tomo.SETTINGS:
        p = tomo.outcome_probabilities(rho, setting, CAMERA97)
        assert (p >= 0).all() and abs(p.sum() - 1) < 1e-12


def test_measurement_matrix_rows_match_outcome_probabilities():
    model = tomo.measurement_matrix(ASYMMETRIC)
    for rho in ginibre_states(41, 20) + ginibre_states(43, 20, rank=2):
        for s, setting in enumerate(tomo.SETTINGS):
            p = (model[s] @ rho.reshape(16)).real
            expected = tomo.outcome_probabilities(rho, setting, ASYMMETRIC)
            assert np.abs(p - expected).max() < 1e-15


def test_detection_model_validation():
    with pytest.raises(ValueError, match="sum"):
        tomo.DetectionModel(np.array([[0.9, 0.0], [0.0, 0.9]]), np.eye(2))


# ---------------------------------------------------------------------------
# counts simulation
# ---------------------------------------------------------------------------

def test_simulate_counts_shape_and_totals():
    records = tomo.simulate_counts(bell_truth(), tomo.SETTINGS, 200, CAMERA97, 1)
    assert len(records) == 9
    for record in records:
        assert record.counts.sum() == 200
        assert record.shots == 200


def test_simulate_counts_deterministic_state():
    rho = core.projector(core.basis_state("uu"))
    record = tomo.simulate_counts(rho, [("z", "z")], 200, PERFECT, 5)[0]
    assert np.array_equal(record.counts, [200, 0, 0, 0])


def test_simulate_counts_seed_reproducibility():
    a = tomo.simulate_counts(bell_truth(), tomo.SETTINGS, 200, CAMERA97, 42)
    b = tomo.simulate_counts(bell_truth(), tomo.SETTINGS, 200, CAMERA97, 42)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.counts, rb.counts)


def test_simulate_counts_rejects_bad_shots():
    with pytest.raises(ValueError, match="shots"):
        tomo.simulate_counts(bell_truth(), tomo.SETTINGS, 0, PERFECT, 0)


def test_counts_record_validation():
    with pytest.raises(ValueError):
        tomo.CountsRecord(("z", "z"), np.array([1.0, 2.0, 3.0, 4.0]), 9.0)
    with pytest.raises(ValueError):
        tomo.CountsRecord(("z", "z"), np.array([-1.0, 2.0, 3.0, 6.0]), 10.0)


def test_counts_csv_round_trip(tmp_path):
    records = tomo.simulate_counts(bell_truth(), tomo.SETTINGS, 150, CAMERA97, 9)
    path = tmp_path / "counts.csv"
    tomo.write_counts_csv(path, records)
    back = tomo.read_counts_csv(path)
    assert [r.setting for r in back] == [r.setting for r in records]
    for ra, rb in zip(records, back):
        assert np.array_equal(ra.counts, rb.counts)


# ---------------------------------------------------------------------------
# linear inversion
# ---------------------------------------------------------------------------

_SIGN1 = np.array([1.0, 1.0, -1.0, -1.0])  # z eigenvalue of qubit 1 per outcome
_SIGN2 = np.array([1.0, -1.0, 1.0, -1.0])


def sign_table_inversion(records, detection):
    """Oracle: Pauli coefficients from sign sums over corrected frequencies.

    Two-qubit coefficients come from the matching setting; single-qubit ones
    average the marginal over the three settings that measure it.
    """
    joint = detection.joint()
    by_setting = {rec.setting: rec for rec in records}
    r = np.zeros((4, 4))
    r[0, 0] = 1.0
    for (b1, b2) in tomo.SETTINGS:
        f = np.linalg.solve(joint, by_setting[(b1, b2)].frequencies)
        i, j = tomo.BASES.index(b1) + 1, tomo.BASES.index(b2) + 1
        r[i, j] = np.sum(_SIGN1 * _SIGN2 * f)
        r[i, 0] += np.sum(_SIGN1 * f) / 3.0
        r[0, j] += np.sum(_SIGN2 * f) / 3.0
    return r


def test_linear_inversion_matches_sign_table_oracle():
    states = ginibre_states(47, 30) + ginibre_states(53, 30, rank=1)
    for seed, rho in enumerate(states):
        records = tomo.simulate_counts(rho, tomo.SETTINGS, 200, ASYMMETRIC, seed)
        result = tomo.linear_inversion(records, ASYMMETRIC)
        expected = sign_table_inversion(records, ASYMMETRIC)
        assert np.abs(result.r - expected).max() < 1e-14
        assert np.abs(result.rho - core.pauli_reconstruct(expected)).max() < 1e-14


def test_linear_inversion_identity_on_exact_input(rng):
    for rho in ginibre_states(23, 10):
        result = tomo.linear_inversion(exact_records(rho), PERFECT)
        assert np.abs(result.rho - rho).max() < 1e-12


def test_linear_inversion_with_detection_correction(rng):
    rho = core.random_density(rng)
    result = tomo.linear_inversion(exact_records(rho, CAMERA97), CAMERA97)
    assert np.abs(result.rho - rho).max() < 1e-12


def test_linear_inversion_maximally_mixed():
    result = tomo.linear_inversion(exact_records(np.eye(4) / 4), PERFECT)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(result.r, expected, atol=1e-12)


def test_linear_inversion_missing_settings():
    records = exact_records(np.eye(4) / 4)[:5]
    with pytest.raises(tomo.ReconstructionError, match="missing"):
        tomo.linear_inversion(records, PERFECT)


@pytest.mark.parametrize("reconstruct", [
    tomo.linear_inversion,
    lambda records, detection: tomo.mle_fit(
        records, detection, initial_guess=np.eye(4) / 4, restarts=0),
], ids=["linear_inversion", "mle_fit"])
def test_linear_inversion_duplicate_settings(reconstruct):
    records = exact_records(np.eye(4) / 4)
    with pytest.raises(tomo.ReconstructionError, match="duplicate"):
        reconstruct(records + records[:1], PERFECT)


def test_unknown_setting_is_rejected():
    records = exact_records(np.eye(4) / 4)
    records[0] = tomo.CountsRecord(("z", "w"), records[0].counts, 1.0)
    with pytest.raises(tomo.ReconstructionError, match="unknown"):
        tomo.linear_inversion(records, PERFECT)


def test_linear_inversion_singular_confusion():
    blind = tomo.DetectionModel(np.array([[1.0, 1.0], [0.0, 0.0]]), np.eye(2))
    records = exact_records(np.eye(4) / 4)
    with pytest.raises(tomo.ReconstructionError, match="singular"):
        tomo.linear_inversion(records, blind)


def test_linear_inversion_flags_finite_shot_nonphysicality():
    flagged = 0
    for seed in range(10):
        records = tomo.simulate_counts(bell_truth(), tomo.SETTINGS, 200,
                                       CAMERA97, seed)
        result = tomo.linear_inversion(records, CAMERA97)
        flagged += not result.physical
    assert flagged > 0


def test_linear_inversion_detection_round_trip_is_unbiased():
    # simulate with confusion C, invert with the same C: r_ij unbiased
    rho = bell_truth(phi_e=0.4)
    truth = core.pauli_expansion(rho)
    shots = 200
    seeds = 200
    estimates = np.zeros((seeds, 4, 4))
    for seed in range(seeds):
        records = tomo.simulate_counts(rho, tomo.SETTINGS, shots, CAMERA97, seed)
        estimates[seed] = tomo.linear_inversion(records, CAMERA97).r
    mean = estimates.mean(axis=0)
    stderr = estimates.std(axis=0, ddof=1) / math.sqrt(seeds)
    for i in range(4):
        for j in range(4):
            if (i, j) == (0, 0):
                continue
            bound = 3.0 * max(stderr[i, j], 1e-3)
            assert abs(mean[i, j] - truth[i, j]) < bound, (i, j)


# ---------------------------------------------------------------------------
# maximum-likelihood fit
# ---------------------------------------------------------------------------

def test_mle_recovers_exact_probabilities(rng):
    rho = core.random_density(rng)
    fit = tomo.mle_fit(exact_records(rho), PERFECT)
    assert trace_distance(fit.rho, rho) < 1e-6
    assert fit.converged
    assert fit.objective < 1e-10


def test_mle_exact_with_detection_bias(rng):
    rho = core.random_density(rng)
    fit = tomo.mle_fit(exact_records(rho, CAMERA97), CAMERA97)
    assert trace_distance(fit.rho, rho) < 1e-6


def test_mle_monte_carlo_bell_fidelity():
    # lighter version of the acceptance run (which uses 100 seeds)
    target = gate.target_state("uu", phi_e=-1.1)
    truth = core.projector(target)
    fids = []
    for seed in range(20):
        records = tomo.simulate_counts(truth, tomo.SETTINGS, 200, CAMERA97, seed)
        fit = tomo.mle_fit(records, CAMERA97)
        fids.append((target.conj() @ fit.rho @ target).real)
    assert np.median(fids) >= 0.95


def test_mle_output_is_physical_for_adversarial_counts():
    # wildly inconsistent data still yields a physical estimate
    counts = [np.array([200.0, 0, 0, 0]), np.array([0, 200.0, 0, 0]),
              np.array([0, 0, 200.0, 0]), np.array([0, 0, 0, 200.0]),
              np.array([100.0, 100.0, 0, 0]), np.array([0, 0, 100.0, 100.0]),
              np.array([50.0, 50.0, 50.0, 50.0]), np.array([200.0, 0, 0, 0]),
              np.array([0, 0, 0, 200.0])]
    records = [tomo.CountsRecord(s, c, 200.0)
               for s, c in zip(tomo.SETTINGS, counts)]
    fit = tomo.mle_fit(records, CAMERA97)
    assert core.validate_density(fit.rho, tol=1e-9, psd_tol=1e-9).ok


def test_mle_consistency_at_large_shots():
    truth = bell_truth()
    records = tomo.simulate_counts(truth, tomo.SETTINGS, 10 ** 6, PERFECT, 11)
    fit = tomo.mle_fit(records, PERFECT)
    assert trace_distance(fit.rho, truth) <= 5e-3


def test_mle_invariant_under_record_permutation(rng):
    records = tomo.simulate_counts(bell_truth(), tomo.SETTINGS, 200, CAMERA97, 3)
    fit_a = tomo.mle_fit(records, CAMERA97)
    shuffled = list(records)
    rng.shuffle(shuffled)
    fit_b = tomo.mle_fit(shuffled, CAMERA97)
    assert np.abs(fit_a.rho - fit_b.rho).max() < 1e-10


def test_mle_accepts_initial_guess():
    records = tomo.simulate_counts(bell_truth(), tomo.SETTINGS, 200, CAMERA97, 8)
    reference = tomo.mle_fit(records, CAMERA97)
    warm = tomo.mle_fit(records, CAMERA97, initial_guess=reference.rho, restarts=1)
    assert abs(warm.objective - reference.objective) < 1e-6


def test_mle_requires_full_setting_coverage():
    records = exact_records(np.eye(4) / 4)[:8]
    with pytest.raises(tomo.ReconstructionError):
        tomo.mle_fit(records, PERFECT)


def test_triangular_parameterization_round_trip(rng):
    for rho in ginibre_states(31, 20):
        params = tomo._params_from_density(rho)
        back = tomo._rho_from_params(params)
        assert np.abs(back - rho).max() < 1e-9
        tri = tomo._t_matrix(params)
        assert np.abs(np.triu(tri, k=1)).max() == 0.0  # lower triangular


# ---------------------------------------------------------------------------
# detection calibration
# ---------------------------------------------------------------------------

def control_records(detection, shots, seed):
    uu = tomo.simulate_counts(core.projector(core.basis_state("uu")),
                              [("z", "z")], shots, detection, (seed, 0))[0]
    dd = tomo.simulate_counts(core.projector(core.basis_state("dd")),
                              [("z", "z")], shots, detection, (seed, 1))[0]
    return uu, dd


def test_calibration_perfect_controls():
    uu = tomo.CountsRecord(("z", "z"), np.array([1000.0, 0, 0, 0]), 1000.0)
    dd = tomo.CountsRecord(("z", "z"), np.array([0, 0, 0, 1000.0]), 1000.0)
    result = tomo.calibrate_detection(uu, dd)
    assert not result.degenerate
    assert np.allclose(result.model.c1, np.eye(2))
    assert np.allclose(result.model.c2, np.eye(2))


def test_calibration_recovers_symmetric_crossover():
    truth = tomo.DetectionModel.symmetric(0.97)
    uu, dd = control_records(truth, 10_000, 7)
    model = tomo.calibrate_detection(uu, dd).model
    assert np.abs(model.c1 - truth.c1).max() < 0.01
    assert np.abs(model.c2 - truth.c2).max() < 0.01


def test_calibration_recovers_asymmetric_crossover():
    c1 = np.array([[0.98, 0.04], [0.02, 0.96]])  # 2% up loss, 4% down loss
    c2 = np.array([[0.96, 0.02], [0.04, 0.98]])
    truth = tomo.DetectionModel(c1, c2)
    errors = []
    for seed in range(30):
        uu, dd = control_records(truth, 10_000, seed)
        model = tomo.calibrate_detection(uu, dd).model
        errors.append(max(np.abs(model.c1 - c1).max(), np.abs(model.c2 - c2).max()))
    assert np.mean(errors) < 0.005
    assert max(errors) < 0.02


def test_calibration_degenerate_controls():
    stuck = tomo.CountsRecord(("z", "z"), np.array([500.0, 0, 0, 0]), 500.0)
    result = tomo.calibrate_detection(stuck, stuck)
    assert result.degenerate
    assert np.allclose(result.model.c1, np.eye(2))


def test_calibration_requires_zz_controls():
    record = tomo.CountsRecord(("x", "z"), np.array([500.0, 0, 0, 0]), 500.0)
    with pytest.raises(ValueError, match="z, z"):
        tomo.calibrate_detection(record, record)
