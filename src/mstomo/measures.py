"""State-quality metrics: fidelity, phase fitting, parity scans, entanglement.

The Bell-like targets carry a free phase on their coherence; fitting it is a
closed-form maximization, so reported fidelities are the best over the
target family. Entanglement is quantified three ways: negativity from the
partial-transpose spectrum, concurrence, and the entanglement of formation
derived from it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (PAULI_STACK, apply_rotations, herm_eig,
                   partial_transpose, single_qubit_rotation)
from .gate import target_state

# density-matrix index pair holding the relevant coherence per parity class
_COHERENCE_BLOCK = {"even": (0, 3), "odd": (1, 2)}
_PARITY_CLASS = {"uu": "even", "dd": "even", "ud": "odd", "du": "odd"}

_SIGMA_YY = PAULI_STACK[2, 2]
_COHERENCE_TOL = 1e-12  # below it the target phase is undefined


def parity_class(input_label: str) -> str:
    """"even" for uu/dd inputs, "odd" for ud/du."""
    try:
        return _PARITY_CLASS[input_label]
    except KeyError:
        raise ValueError(f"unknown input label {input_label!r}") from None


def fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """Overlap <psi| rho |psi> with a pure target."""
    psi = np.asarray(psi, dtype=complex)
    return float((psi.conj() @ np.asarray(rho, dtype=complex) @ psi).real)


@dataclass(frozen=True)
class PhaseFit:
    """Best target phase and the fidelity it attains."""

    phi: float
    fidelity: float
    degenerate: bool = False


def fit_target_phase(rho: np.ndarray, input_label: str) -> PhaseFit:
    """Maximize the fidelity to the Bell-like family of an input label.

    The family fixes two populations and one coherence, so the optimal
    fidelity is (sum of the two populations)/2 + |coherence| and the phase
    follows from the coherence argument in closed form. Zero coherence
    leaves the phase undefined: it is reported as 0 with the degenerate
    flag set.
    """
    rho = np.asarray(rho, dtype=complex)
    i, j = _COHERENCE_BLOCK[parity_class(input_label)]
    coherence = rho[i, j]
    populations = rho[i, i].real + rho[j, j].real
    best = populations / 2.0 + abs(coherence)
    if abs(coherence) < _COHERENCE_TOL:
        return PhaseFit(0.0, best, degenerate=True)
    # uu/ud targets carry +phi on the coherence, dd/du targets -phi
    if input_label in ("uu", "ud"):
        phi = -cmath.phase(coherence) - math.pi / 2.0
    else:
        phi = math.pi / 2.0 - cmath.phase(coherence)
    phi = math.remainder(phi, 2.0 * math.pi)
    return PhaseFit(phi, best)


@dataclass(frozen=True)
class ParityScan:
    """Parity versus analysis-pulse phase with its sinusoidal fit."""

    phases: np.ndarray
    values: np.ndarray
    amplitude: float
    offset: float
    phase0: float

    @property
    def coherence(self) -> float:
        """Magnitude of the even-block coherence, amplitude / 2."""
        return self.amplitude / 2.0


def parity_analysis(rho: np.ndarray, phases: np.ndarray | None = None) -> ParityScan:
    """Scan a global pi/2 analysis pulse and fit the oscillating parity.

    For each phase phi the state is conjugated by R(pi/2, phi) on both
    qubits and the parity (P_uu + P_dd) - (P_ud + P_du) evaluated. The
    curve is fit to A cos(2 phi + phi0) + B by linear least squares on the
    (cos 2phi, sin 2phi, 1) regressors, with A >= 0 by phase convention.
    """
    if phases is None:
        phases = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    phases = np.asarray(phases, dtype=float)
    values = np.empty_like(phases)
    for k, phi in enumerate(phases):
        pulse = single_qubit_rotation(math.pi / 2.0, phi)
        p = np.diag(apply_rotations(rho, pulse, pulse)).real
        values[k] = p[0] + p[3] - p[1] - p[2]
    design = np.column_stack([np.cos(2 * phases), np.sin(2 * phases),
                              np.ones_like(phases)])
    (a, b, offset), *_ = np.linalg.lstsq(design, values, rcond=None)
    amplitude = math.hypot(a, b)
    phase0 = math.atan2(-b, a)
    return ParityScan(phases, values, amplitude, float(offset), phase0)


def negativity(rho: np.ndarray) -> tuple[float, np.ndarray]:
    """Negativity and the full partial-transpose spectrum (ascending).

    N = 2 max(0, -lambda_min) of the partially transposed state; positive
    exactly when the state is entangled (two qubits).
    """
    spectrum, _ = herm_eig(partial_transpose(rho))
    return 2.0 * max(0.0, -float(spectrum[0])), spectrum


def _sqrt_psd(h: np.ndarray, floor: float = -1e-9) -> np.ndarray:
    values, vectors = herm_eig(h)
    if values[0] < floor:
        raise ValueError(f"matrix is not PSD: min eigenvalue {values[0]:.3e}")
    return (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T


def binary_entropy(x: float) -> float:
    """Base-2 entropy of a bit, with h(0) = h(1) = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def concurrence_eof(rho: np.ndarray) -> tuple[float, float]:
    """Concurrence and entanglement of formation of a two-qubit state.

    Uses the spin-flipped state rho~ = (Y x Y) rho* (Y x Y) through the
    Hermitian route sqrt(sqrt(rho) rho~ sqrt(rho)), whose eigenvalues are
    the needed lambda_k; C = max(0, l1 - l2 - l3 - l4) with the lambdas
    descending, and E_F = h((1 + sqrt(1 - C^2)) / 2).
    """
    rho = np.asarray(rho, dtype=complex)
    rho_tilde = _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    sqrt_rho = _sqrt_psd(rho)
    values = herm_eig(sqrt_rho @ rho_tilde @ sqrt_rho)[0]
    if values[0] < -1e-9:
        raise ValueError(f"spin-flip product not PSD: {values[0]:.3e}")
    values = np.clip(values, 0.0, None)
    # the square root amplifies eigenvalue noise (eps -> 1e-8); zero the
    # entries below the relative noise floor first
    values[values < values[-1] * 1e-13] = 0.0
    lambdas = np.sqrt(values)[::-1]
    c = max(0.0, float(lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3]))
    c = min(c, 1.0)
    e_f = binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)
    return c, e_f


@dataclass(frozen=True)
class MeasuresReport:
    """One-call summary of state quality against a Bell-like target family."""

    f: float
    n: float
    c: float
    e_f: float
    pt_spectrum: tuple[float, float, float, float]
    phi_fit: float
    phase_degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "f": self.f,
            "n": self.n,
            "c": self.c,
            "e_f": self.e_f,
            "pt_spectrum": list(self.pt_spectrum),
            "phi_fit": self.phi_fit,
            "phase_degenerate": self.phase_degenerate,
        }


def analyze(rho: np.ndarray, input_label: str) -> MeasuresReport:
    """Fidelity (at the fitted phase), negativity, concurrence and E_F."""
    phase = fit_target_phase(rho, input_label)
    n, spectrum = negativity(rho)
    c, e_f = concurrence_eof(rho)
    return MeasuresReport(
        f=phase.fidelity, n=n, c=c, e_f=e_f,
        pt_spectrum=tuple(float(x) for x in spectrum),
        phi_fit=phase.phi, phase_degenerate=phase.degenerate)


def ideal_target(input_label: str, phi: float = 0.0) -> np.ndarray:
    """Pure Bell-like target ket of an input label at a given phase."""
    if parity_class(input_label) == "even":
        return target_state(input_label, phi_e=phi)
    return target_state(input_label, phi_o=phi)
