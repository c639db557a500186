"""Dense two-qubit linear algebra primitives shared by the whole package.

Conventions, fixed once here and relied on everywhere else:

* two-qubit basis order is ``|uu>, |ud>, |du>, |dd>`` (``u`` = spin up),
  with ``sigma_z |u> = +|u>``;
* states are plain complex numpy arrays: kets of shape (4,), density
  matrices of shape (4, 4);
* Pauli coefficients are ``r[i, j] = Tr(rho . sigma_i x sigma_j)`` with
  ``sigma_0 = I``; the inverse map carries the explicit 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy import kron  # tensor product; re-exported as part of the API

BASIS_LABELS = ("uu", "ud", "du", "dd")
BASIS_ORDER = ",".join(BASIS_LABELS)

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)

# all 16 products sigma_i x sigma_j as one (4, 4, 4, 4) array, indexed [i, j]
PAULI_STACK = np.array([[kron(a, b) for b in PAULIS] for a in PAULIS])

_HERMITICITY_TOL = 1e-10  # relative defect herm_eig accepts


class ReconstructionError(RuntimeError):
    """Raised when inversion or fitting cannot proceed (bad inputs)."""


def basis_state(label: str) -> np.ndarray:
    """Computational basis ket for a label in ``uu, ud, du, dd``."""
    if label not in BASIS_LABELS:
        raise ValueError(f"unknown basis label {label!r}")
    ket = np.zeros(4, dtype=complex)
    ket[BASIS_LABELS.index(label)] = 1.0
    return ket


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |psi><psi|."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    h : array
        Square Hermitian matrix, within a relative defect of 1e-10.

    Returns
    -------
    (eigenvalues, eigenvectors)
        Real eigenvalues in ascending order and the matching orthonormal
        eigenvector columns.

    Raises
    ------
    ValueError
        If the input is not square or fails the Hermiticity check (the
        defect norm is included in the message).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    defect = np.linalg.norm(h - h.conj().T)
    if defect > _HERMITICITY_TOL * max(1.0, np.linalg.norm(h)):
        raise ValueError(f"matrix is not Hermitian: ||H - H^dag|| = {defect:.3e}")
    values, vectors = np.linalg.eigh(h)
    return values, vectors


def pauli_expansion(rho: np.ndarray) -> np.ndarray:
    """Coefficients r[i, j] = Tr(rho . sigma_i x sigma_j) as a real 4x4 array."""
    rho = np.asarray(rho, dtype=complex)
    return np.einsum("kl,ijlk->ij", rho, PAULI_STACK).real


def pauli_reconstruct(r: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pauli_expansion`: rho = (1/4) sum_ij r_ij sigma_i x sigma_j."""
    r = np.asarray(r, dtype=float)
    return np.einsum("ij,ijkl->kl", r, PAULI_STACK) / 4.0


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the indices of the first qubit of a two-qubit operator.

    The map is an involution and preserves Hermiticity and trace; positivity
    may be lost, which is the point of the PPT test.
    """
    rho = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return rho.transpose(2, 1, 0, 3).reshape(4, 4)


def single_qubit_rotation(theta: float, phi: float) -> np.ndarray:
    """Rotation R(theta, phi) = exp(-i theta/2 (cos(phi) X + sin(phi) Y))."""
    axis = math.cos(phi) * SIGMA_X + math.sin(phi) * SIGMA_Y
    return math.cos(theta / 2) * SIGMA_0 - 1j * math.sin(theta / 2) * axis


def apply_rotations(rho: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Conjugate a two-qubit density matrix by single-qubit unitaries r1 x r2."""
    u = kron(r1, r2)
    return u @ np.asarray(rho, dtype=complex) @ u.conj().T


@dataclass(frozen=True)
class DensityReport:
    """Physicality diagnostics of a candidate density matrix."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    ok: bool


def validate_density(rho: np.ndarray, tol: float = 1e-10,
                     psd_tol: float = 1e-9) -> DensityReport:
    """Inspect Hermiticity, trace and positivity of ``rho``.

    Pure inspection: never raises for an unphysical matrix, it only reports.
    ``ok`` is true when the Hermiticity and trace defects are within ``tol``
    and the smallest eigenvalue of the Hermitian part is above ``-psd_tol``.
    """
    rho = np.asarray(rho, dtype=complex)
    herm_defect = float(np.abs(rho - rho.conj().T).max())
    trace_defect = float(abs(np.trace(rho) - 1.0))
    herm_part = (rho + rho.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(herm_part)[0])
    ok = herm_defect <= tol and trace_defect <= tol and min_eig >= -psd_tol
    return DensityReport(herm_defect, trace_defect, min_eig, ok)


def random_density(rng: np.random.Generator, rank: int = 4) -> np.ndarray:
    """Random two-qubit density matrix from the Ginibre construction.

    ``G G^dag / Tr(G G^dag)`` for a complex Gaussian G; covers full-rank
    states for rank=4, pure states for rank=1.
    """
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def density_to_dict(rho: np.ndarray) -> dict:
    """JSON-ready document {"dim", "re", "im", "basis_order"} for a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    return {
        "dim": 4,
        "re": rho.real.tolist(),
        "im": rho.imag.tolist(),
        "basis_order": BASIS_ORDER,
    }


def density_from_dict(doc: dict) -> np.ndarray:
    """Rebuild a density matrix from :func:`density_to_dict` output.

    Raises ValueError, naming the field, when ``dim`` or ``basis_order`` is
    unsupported or when ``re`` or ``im`` is missing, not 4x4 or not finite.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    if doc.get("dim") != 4:
        raise ValueError(f"expected dim 4, got {doc.get('dim')!r}")
    order = doc.get("basis_order", BASIS_ORDER)
    if order != BASIS_ORDER:
        raise ValueError(f"unsupported basis order {order!r}")
    parts = []
    for key in ("re", "im"):
        if key not in doc:
            raise ValueError(f"missing field {key!r}")
        try:
            part = np.asarray(doc[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"field {key!r} is not a numeric matrix") from exc
        if part.shape != (4, 4):
            raise ValueError(f"field {key!r} has shape {part.shape}, expected (4, 4)")
        if not np.isfinite(part).all():
            raise ValueError(f"field {key!r} has non-finite entries")
        parts.append(part)
    return parts[0] + 1j * parts[1]
