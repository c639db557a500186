"""Projective-measurement simulation and density-matrix reconstruction.

Measurements run in the nine two-qubit Pauli bases ``{x, y, z} x {x, y, z}``
(27 independent outcomes after normalization). Every route reads one
measurement map, built from the nine analysis unitaries ``_U``: the
reported probabilities of all settings are ``p = (I_9 x C) K vec(rho)``,
with ``K`` the constant 36x16 matrix of rotated projectors and ``C`` the
4x4 joint detection confusion. Reconstruction comes in two flavours: linear
inversion, the constant pseudo-inverse of the real Pauli-coefficient map
``A = K . vec(sigma_i x sigma_j) / 4`` applied to the confusion-corrected
frequencies (James, Kwiat, Munro & White, PRA 64, 052312, 2001), which can
leave the estimate unphysical at finite statistics; and a constrained fit
through a triangular-factor parameterization ``rho = T^dag T / Tr(T^dag T)``
that is Hermitian, normalized and positive semidefinite by construction.
The fit minimizes a Pearson-weighted least-squares objective with a simplex
search.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import sampling
from .core import (PAULI_STACK, SIGMA_0, ReconstructionError, kron,
                   pauli_reconstruct, single_qubit_rotation)

BASES = ("x", "y", "z")
SETTINGS = tuple((b1, b2) for b1 in BASES for b2 in BASES)

# lower-triangle layout of the 16 real fit parameters
_DIAG = tuple(range(4))
_LOWER = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))

_W_FLOOR = 0.5  # floor of the expected counts in the Pearson weights
_RESTART_SEED = 20250813  # fixed stream for restart perturbations


def setting_rotations(setting: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """Analysis pulses mapping a Pauli-basis setting onto the z readout.

    Applying the returned single-qubit unitaries to the state makes the
    computational-basis populations equal the outcome probabilities of the
    requested ``sigma_i x sigma_j`` measurement, with the up label carrying
    the +1 eigenvalue: x via R(pi/2, -pi/2), y via R(pi/2, 0), z unrotated.
    """
    pulses = []
    for basis in setting:
        if basis == "x":
            pulses.append(single_qubit_rotation(math.pi / 2, -math.pi / 2))
        elif basis == "y":
            pulses.append(single_qubit_rotation(math.pi / 2, 0.0))
        elif basis == "z":
            pulses.append(SIGMA_0)
        else:
            raise ValueError(f"unknown basis {basis!r}")
    return pulses[0], pulses[1]


# analysis unitaries r1 x r2 of the nine settings, in SETTINGS order
_U = np.array([kron(*setting_rotations(s)) for s in SETTINGS])
# row 4 s + k: vec of U_s^dag |k><k| U_s, so that p_sk = K[4 s + k] . vec(rho)
_K = np.einsum("ski,skj->skij", _U, _U.conj()).reshape(36, 16)
# real map of the Pauli coefficients r (row-major) onto the 36 probabilities;
# its columns are orthogonal, so its pseudo-inverse is A^T with each row
# divided by the squared norm of the matching column
_A = (_K @ PAULI_STACK.reshape(16, 16).T).real / 4.0
_A_PINV = _A.T / (_A ** 2).sum(axis=0)[:, None]


@dataclass(frozen=True)
class DetectionModel:
    """Per-qubit readout confusion matrices of resolved per-ion detection.

    ``c1[reported, true]`` and ``c2`` are column-stochastic 2x2 matrices
    (columns: true up, true down).
    """

    c1: np.ndarray
    c2: np.ndarray

    def __post_init__(self):
        for name in ("c1", "c2"):
            c = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, c)
            if c.shape != (2, 2) or (c < -1e-12).any() or (c > 1 + 1e-12).any():
                raise ValueError(f"{name} must be a 2x2 matrix of probabilities")
            if np.abs(c.sum(axis=0) - 1.0).max() > 1e-9:
                raise ValueError(f"{name} columns must sum to 1")

    @classmethod
    def perfect(cls) -> "DetectionModel":
        return cls(np.eye(2), np.eye(2))

    @classmethod
    def symmetric(cls, fidelity: float,
                  fidelity2: float | None = None) -> "DetectionModel":
        """Symmetric per-qubit crossover, e.g. 0.97 camera fidelity per ion."""
        f2 = fidelity if fidelity2 is None else fidelity2
        c1 = np.array([[fidelity, 1 - fidelity], [1 - fidelity, fidelity]])
        c2 = np.array([[f2, 1 - f2], [1 - f2, f2]])
        return cls(c1, c2)

    def joint(self) -> np.ndarray:
        """4x4 confusion on joint outcomes (uu, ud, du, dd)."""
        return kron(self.c1, self.c2).real


def outcome_probabilities(rho: np.ndarray, setting: tuple[str, str],
                          detection: DetectionModel) -> np.ndarray:
    """Outcome probabilities (uu, ud, du, dd) of one setting, detection included."""
    u = _U[SETTINGS.index(tuple(setting))]
    rotated = u @ np.asarray(rho, dtype=complex) @ u.conj().T
    p = np.clip(np.diag(rotated).real, 0.0, None)
    return detection.joint() @ p


@dataclass(frozen=True)
class CountsRecord:
    """Outcome counts of one measurement setting.

    ``counts`` holds the four outcomes (uu, ud, du, dd) and sums to
    ``shots``. Counts are kept as floats so exact probabilities can be fed
    through the estimators in infinite-statistics studies; sampled data is
    integral.
    """

    setting: tuple[str, str]
    counts: np.ndarray
    shots: float

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "setting", (self.setting[0], self.setting[1]))
        if counts.shape != (4,) or not np.isfinite(counts).all() or (counts < 0).any():
            raise ValueError("counts must be 4 finite non-negative numbers")
        if not 0 < self.shots < math.inf:
            raise ValueError(f"shots must be positive and finite, got {self.shots}")
        if abs(counts.sum() - self.shots) > 1e-6 * max(1.0, self.shots):
            raise ValueError(f"counts sum {counts.sum()} != shots {self.shots}")

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.shots


def simulate_counts(rho: np.ndarray, settings, shots: int,
                    detection: DetectionModel, seed) -> list[CountsRecord]:
    """Multinomial measurement records for each setting.

    Deterministic for a fixed ``seed`` (int or ``numpy.random.SeedSequence``):
    every setting draws from its own derived substream, so the records do
    not depend on evaluation order.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    streams = sampling.substreams(seed, len(settings))
    records = []
    for setting, rng in zip(settings, streams):
        p = outcome_probabilities(rho, setting, detection)
        counts = sampling.multinomial(p, shots, rng)
        records.append(CountsRecord(setting, counts, shots))
    return records


def measurement_matrix(detection: DetectionModel) -> np.ndarray:
    """Maps vec(rho) -> reported outcome probabilities, shape (9, 4, 16)."""
    return detection.joint() @ _K.reshape(9, 4, 16)


def _canonical_counts(records) -> tuple[np.ndarray, np.ndarray]:
    """Counts (9, 4) and shots (9,) of records holding each setting once.

    Rows follow ``SETTINGS``; a missing, duplicated or unknown setting
    raises :class:`ReconstructionError`.
    """
    by_setting = {}
    for record in records:
        if record.setting in by_setting:
            raise ReconstructionError(f"duplicate setting {record.setting}")
        if record.setting not in SETTINGS:
            raise ReconstructionError(f"unknown setting {record.setting}")
        by_setting[record.setting] = record
    missing = [s for s in SETTINGS if s not in by_setting]
    if missing:
        raise ReconstructionError(f"missing settings: {missing}")
    ordered = [by_setting[s] for s in SETTINGS]
    return (np.array([rec.counts for rec in ordered]),
            np.array([rec.shots for rec in ordered]))


@dataclass(frozen=True)
class LinearInversionResult:
    """Direct Pauli-coefficient inversion; ``rho`` may be unphysical."""

    r: np.ndarray
    rho: np.ndarray
    min_eigenvalue: float

    @property
    def physical(self) -> bool:
        return self.min_eigenvalue >= -1e-9


def linear_inversion(records, detection: DetectionModel) -> LinearInversionResult:
    """Reconstruct the Pauli coefficients directly from measured frequencies.

    Detection confusion is inverted on the frequencies of all settings at
    once, and the least-squares Pauli coefficients are the constant
    pseudo-inverse of the coefficient map applied to them: a two-qubit
    coefficient comes from its one setting, a single-qubit one is the mean
    over the three settings that measure it, and r_00 is 1 up to rounding.
    The resulting matrix is Hermitian with unit trace but can have negative
    eigenvalues at finite statistics, which is reported, not rejected.
    """
    counts, shots = _canonical_counts(records)
    joint = detection.joint()
    if abs(np.linalg.det(joint)) < 1e-12:
        raise ReconstructionError("detection confusion matrix is singular")
    corrected = np.linalg.solve(joint, (counts / shots[:, None]).T).T
    r = (_A_PINV @ corrected.reshape(36)).reshape(4, 4)

    rho = pauli_reconstruct(r)
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
    return LinearInversionResult(r, rho, min_eig)


# ---------------------------------------------------------------------------
# constrained Pearson-weighted least-squares fit
# ---------------------------------------------------------------------------

def _t_matrix(params: np.ndarray) -> np.ndarray:
    t = np.zeros((4, 4), dtype=complex)
    t[_DIAG, _DIAG] = params[:4]
    for k, (i, j) in enumerate(_LOWER):
        t[i, j] = params[4 + 2 * k] + 1j * params[5 + 2 * k]
    return t


def _rho_from_params(params: np.ndarray) -> np.ndarray:
    t = _t_matrix(params)
    rho = t.conj().T @ t
    trace = rho.trace().real
    return rho / max(trace, 1e-30)


def _project_psd(rho: np.ndarray) -> np.ndarray:
    herm = (rho + rho.conj().T) / 2.0
    values, vectors = np.linalg.eigh(herm)
    values = np.clip(values, 0.0, None)
    rho = (vectors * values) @ vectors.conj().T
    return rho / rho.trace().real


_FLIP = np.eye(4)[::-1].copy()


def _params_from_density(rho: np.ndarray) -> np.ndarray:
    """Triangular-factor parameters reproducing a (strictly positive) rho."""
    flipped = _FLIP @ rho @ _FLIP
    chol = np.linalg.cholesky(flipped + 1e-12 * np.eye(4))
    t = _FLIP @ chol.conj().T @ _FLIP  # lower triangular, t^dag t = rho
    params = np.empty(16)
    params[:4] = np.diag(t).real
    for k, (i, j) in enumerate(_LOWER):
        params[4 + 2 * k] = t[i, j].real
        params[5 + 2 * k] = t[i, j].imag
    return params


@dataclass(frozen=True)
class TomographyResult:
    """Constrained fit output; ``rho`` is physical by construction."""

    rho: np.ndarray
    objective: float
    iterations: int
    converged: bool


def mle_fit(records, detection: DetectionModel,
            initial_guess: np.ndarray | None = None,
            restarts: int = 3) -> TomographyResult:
    """Fit a physical density matrix to measurement records.

    Minimizes the Pearson-weighted least-squares objective

        sum_k (n_k - N p_k)^2 / max(N p_k, _W_FLOOR)

    over the triangular-factor parameterization using Nelder-Mead simplex
    search. The starting point is the PSD-projected linear inversion (or
    ``initial_guess``); up to ``restarts`` perturbed restarts follow, and
    the fit is converged once a restart improves the objective by less than
    1e-10. Record order does not matter: settings are canonicalized first.
    """
    # imported here so that commands which never fit do not load scipy
    from scipy.optimize import minimize

    counts, shots = _canonical_counts(records)
    counts, shots = counts.reshape(36), np.repeat(shots, 4)
    model = measurement_matrix(detection).reshape(36, 16)

    def objective(params: np.ndarray) -> float:
        p = (model @ _rho_from_params(params).reshape(16)).real
        expected = shots * p
        return float(np.sum((counts - expected) ** 2
                            / np.maximum(expected, _W_FLOOR)))

    if initial_guess is None:
        initial_guess = linear_inversion(records, detection).rho
    x0 = _params_from_density(_project_psd(initial_guess))

    def run(x):
        # seed the polytope at the statistical-uncertainty scale; the
        # adaptive variant keeps 16 dimensions tractable
        simplex = np.tile(x, (17, 1))
        simplex[1:] += 0.1 * np.eye(16)
        return minimize(objective, x, method="Nelder-Mead",
                        options={"xatol": 1e-7, "fatol": 1e-9, "adaptive": True,
                                 "initial_simplex": simplex,
                                 "maxiter": 20000, "maxfev": 20000})

    best = run(x0)
    iterations = best.nit
    converged = False
    rng = np.random.default_rng(_RESTART_SEED)
    for _ in range(restarts):
        scale = np.abs(best.x).mean() + 1e-3
        trial = run(best.x + 0.05 * scale * rng.standard_normal(16))
        iterations += trial.nit
        improvement = best.fun - trial.fun
        if trial.fun < best.fun:
            best = trial
        if improvement < 1e-10:
            converged = True
            break

    rho = _rho_from_params(best.x)
    return TomographyResult(rho=rho, objective=float(best.fun),
                            iterations=iterations, converged=converged)


# ---------------------------------------------------------------------------
# detection calibration from control runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationResult:
    model: DetectionModel
    degenerate: bool = False


def calibrate_detection(uu_record: CountsRecord,
                        dd_record: CountsRecord) -> CalibrationResult:
    """Estimate per-qubit confusion from z-basis control runs.

    The controls prepare uu and dd and are assumed ideal, so any off-target
    marginal frequency is detection crossover. If both controls concentrate
    all counts in one and the same outcome the data carry no information and
    the identity model is returned with the ``degenerate`` flag set.
    """
    for record, label in ((uu_record, "uu"), (dd_record, "dd")):
        if record.setting != ("z", "z"):
            raise ValueError(f"{label} control must be measured in (z, z)")

    def concentrated(record):
        nonzero = np.flatnonzero(record.counts)
        return nonzero[0] if nonzero.size == 1 else None

    uu_peak, dd_peak = concentrated(uu_record), concentrated(dd_record)
    if uu_peak is not None and uu_peak == dd_peak:
        return CalibrationResult(DetectionModel.perfect(), degenerate=True)

    f_uu, f_dd = uu_record.frequencies, dd_record.frequencies
    # P(report down | true up) per qubit, from the uu control
    eps1 = f_uu[2] + f_uu[3]
    eps2 = f_uu[1] + f_uu[3]
    # P(report up | true down) per qubit, from the dd control
    eta1 = f_dd[0] + f_dd[1]
    eta2 = f_dd[0] + f_dd[2]
    c1 = np.array([[1 - eps1, eta1], [eps1, 1 - eta1]])
    c2 = np.array([[1 - eps2, eta2], [eps2, 1 - eta2]])
    return CalibrationResult(DetectionModel(c1, c2))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

COUNTS_HEADER = ("basis_q1", "basis_q2", "n_uu", "n_ud", "n_du", "n_dd")


def write_counts_csv(path, records) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(COUNTS_HEADER)
        for record in records:
            writer.writerow([record.setting[0], record.setting[1],
                             *(f"{c:.10g}" for c in record.counts)])


def read_counts_csv(path) -> list[CountsRecord]:
    records = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if tuple(header) != COUNTS_HEADER:
            raise ValueError(f"unexpected counts header {header}")
        for row in reader:
            counts = np.array([float(x) for x in row[2:6]])
            records.append(CountsRecord((row[0], row[1]), counts, counts.sum()))
    return records
