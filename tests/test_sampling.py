import json
import math

import numpy as np
import pytest

from mstomo import core, gate, sampling
from mstomo import tomography as tomo


def test_multinomial_deterministic_distribution():
    counts = sampling.multinomial([1.0, 0.0, 0.0, 0.0], 200,
                                  np.random.default_rng(1))
    assert np.array_equal(counts, [200, 0, 0, 0])


def test_multinomial_law_of_large_numbers():
    n = 10 ** 6
    counts = sampling.multinomial([0.25] * 4, n, np.random.default_rng(2))
    sigma = math.sqrt(n * 0.25 * 0.75)
    assert np.abs(counts - n / 4).max() < 4 * sigma
    assert counts.sum() == n


def test_multinomial_seed_reproducibility():
    a = sampling.multinomial([0.1, 0.2, 0.3, 0.4], 500, np.random.default_rng(77))
    b = sampling.multinomial([0.1, 0.2, 0.3, 0.4], 500, np.random.default_rng(77))
    assert np.array_equal(a, b)


def test_multinomial_validates_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="sum"):
        sampling.multinomial([0.5, 0.4], 10, rng)
    with pytest.raises(ValueError, match="negative"):
        sampling.multinomial([1.2, -0.2], 10, rng)


def test_substreams_are_stable_and_distinct():
    a = sampling.substreams(9, 3)
    b = sampling.substreams(9, 3)
    draws_a = [rng.integers(0, 2 ** 32) for rng in a]
    draws_b = [rng.integers(0, 2 ** 32) for rng in b]
    assert draws_a == draws_b
    assert len(set(draws_a)) == 3


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def frequency_statistic(records):
    return records[0].frequencies[0]


def make_record(counts):
    counts = np.asarray(counts, dtype=float)
    return tomo.CountsRecord(("z", "z"), counts, counts.sum())


def test_bootstrap_zero_variance_data():
    records = [make_record([200, 0, 0, 0])]
    report = sampling.bootstrap(records, 200, frequency_statistic, seed=1)
    assert report.std_error == 0.0
    assert report.estimate == 1.0
    assert report.ci_low == report.ci_high == 1.0
    assert report.valid


def test_bootstrap_matches_binomial_standard_error():
    records = [make_record([100, 100, 0, 0])]
    report = sampling.bootstrap(records, 1000, frequency_statistic, seed=3)
    analytic = math.sqrt(0.5 * 0.5 / 200)
    assert abs(report.std_error - analytic) < 0.15 * analytic


def test_bootstrap_interval_contains_median():
    records = [make_record([120, 50, 20, 10])]
    report = sampling.bootstrap(records, 500, frequency_statistic, seed=4,
                                keep_samples=True)
    median = np.median(report.samples)
    assert report.ci_low <= median <= report.ci_high
    assert report.std_error >= 0


def test_bootstrap_reproducibility_bit_identical():
    records = [make_record([120, 50, 20, 10]), make_record([10, 20, 80, 90])]
    a = sampling.bootstrap(records, 250, frequency_statistic, seed=5,
                           keep_samples=True)
    b = sampling.bootstrap(records, 250, frequency_statistic, seed=5,
                           keep_samples=True)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def test_bootstrap_resample_marginals_match_empirical():
    counts = np.array([120.0, 50.0, 20.0, 10.0])
    records = [make_record(counts)]
    totals = np.zeros(4)
    n = 1000

    def collect(resampled):
        totals[:] += resampled[0].counts
        return 0.0

    sampling.bootstrap(records, n, collect, seed=6)
    # first call sees the original record; remove it
    mean = (totals - counts) / n
    p = counts / counts.sum()
    stderr = np.sqrt(counts.sum() * p * (1 - p) / n)
    assert (np.abs(mean - counts) <= 3 * np.maximum(stderr, 1e-9)).all()


def test_bootstrap_counts_statistic_failures():
    records = [make_record([100, 100, 0, 0])]

    def flaky(resampled):
        if resampled[0].counts[0] % 2:
            raise ValueError("odd count")
        return resampled[0].frequencies[0]

    report = sampling.bootstrap(records, 200, flaky, seed=7)
    assert report.n_failures > 10
    assert not report.valid


def test_bootstrap_propagates_programming_errors():
    records = [make_record([100, 100, 0, 0])]

    calls = []

    def buggy(resampled):  # fine on the data, a TypeError on every resample
        calls.append(resampled)
        return resampled[0].frequencies[0] + ("1" if len(calls) > 1 else 0)

    with pytest.raises(TypeError):
        sampling.bootstrap(records, 100, buggy, seed=7)


def test_bootstrap_needs_two_successful_resamples():
    records = [make_record([100, 100, 0, 0])]

    calls = []

    def failing(resampled):  # fine on the data, fails on every resample
        calls.append(resampled)
        if len(calls) > 1:
            raise tomo.ReconstructionError("no fit")
        return 0.5

    with pytest.raises(ValueError, match="0 of 100 .*100 ReconstructionError"):
        sampling.bootstrap(records, 100, failing, seed=7)


def test_bootstrap_requires_enough_resamples():
    with pytest.raises(ValueError, match="100"):
        sampling.bootstrap([make_record([10, 0, 0, 0])], 50,
                           frequency_statistic, seed=0)


def test_bootstrap_fidelity_scaling_with_shots():
    # linear-inversion fidelity statistic: standard error should shrink
    # like 1/sqrt(shots) when shots quadruple
    target = gate.target_state("uu", phi_e=-1.1)
    truth = core.projector(target)
    detection = tomo.DetectionModel.symmetric(0.97)

    def fidelity_statistic(records):
        rho = tomo.linear_inversion(records, detection).rho
        return float((target.conj() @ rho @ target).real)

    errors = {}
    for shots in (200, 800):
        records = tomo.simulate_counts(truth, tomo.SETTINGS, shots, detection,
                                       seed=(10, shots))
        report = sampling.bootstrap(records, 400, fidelity_statistic, seed=11)
        errors[shots] = report.std_error
    ratio = errors[200] / errors[800]
    assert 1.4 <= ratio <= 2.6  # 2 +/- 30%
