"""Molmer-Sorensen two-ion gate dynamics and dominant noise channels.

The bichromatic spin-dependent force is represented two independent ways:

* closed forms for the displacement ``alpha(t, delta)``, the accumulated
  trajectory phase ``Phi(t, delta)`` and the brightness/parity signals;
* a brute-force propagator on a two-qubit spin register tensored with a
  truncated Fock register, built from a displacement operator that is
  exponentiated through the eigendecomposition of its Hermitian generator.
  That generator is a phase rotation of the real position quadrature
  ``a + a^dag``, so one real eigendecomposition per register size serves
  every displacement on that register.

The two routes are kept strictly independent so each can serve as the
oracle for the other. Scans (:func:`signal_curves`) use the closed forms
for ground-state motion. For a thermal mode they build one displacement
operator per grid point, on registers that neighbouring points share
(:func:`scan_registers`), and read both signals
from the diagonals of D(alpha) and D(alpha)^2 (:func:`thermal_signals`)
instead of propagating amplitudes. The entangling action in the
computational basis is exposed as a 4x4 unitary
(:func:`apply_ideal_gate`); spontaneous-scattering and state-preparation
imperfections are end-of-gate convex mixtures.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import basis_state, kron, projector

TWO_PI = 2.0 * math.pi

# spin basis change between the computational (z) and gate-diagonal (x)
# bases; self-inverse, per qubit
_HX = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_HX2 = kron(_HX, _HX)

_HEALTH_TOL = 1e-6  # largest population allowed in the top Fock level
_TAIL_TOL = 1e-12  # largest thermal occupation left out of a thermal average
# largest ratio of a shared Fock register to a scan point's own register; a
# point's D then costs at most 1.25^3, about twice, its own register's
_REGISTER_SHARE = 1.25


class TruncationError(RuntimeError):
    """Raised when the truncated Fock register leaks into its top level."""


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateParams:
    """The bichromatic gate drive, and with it the gate time.

    ``eta_omega`` is the sideband Rabi frequency (rad/s), ``delta`` the
    symmetric sideband detuning (rad/s) and ``m`` the number of closed
    loops. The gate time ``tau_g`` follows from loop closure.
    """

    eta_omega: float
    delta: float
    m: int = 1

    def __post_init__(self):
        if self.eta_omega <= 0:
            raise ValueError("eta_omega must be positive")
        if self.delta == 0:
            raise ValueError("delta must be nonzero")

    @property
    def alpha_o(self) -> float:
        """Displacement scale eta_omega / delta."""
        return self.eta_omega / self.delta

    @property
    def tau_g(self) -> float:
        """Gate time 2 pi m / |delta| (s), closing the m-th loop."""
        return TWO_PI * self.m / abs(self.delta)


def displacement_alpha(t: float, delta: float, alpha_o: float) -> complex:
    """Phase-space displacement alpha_o (1 - exp(-i delta t)) at time t."""
    return alpha_o * (1.0 - cmath.exp(-1j * delta * t))


def trajectory_phase(t: float, delta: float, alpha_o: float) -> float:
    """Phase alpha_o^2 (delta t - sin delta t) accumulated along the trajectory."""
    return alpha_o ** 2 * (delta * t - math.sin(delta * t))


def gate_operating_point(eta_omega: float, m: int = 1) -> GateParams:
    """Parameters closing the trajectory after m loops with geometric phase pi/2.

    The two conditions (closure ``delta tau_g = 2 pi m`` and maximal
    entanglement ``2 pi m alpha_o^2 = pi/2``) give ``delta = 2 eta_omega
    sqrt(m)``.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    return GateParams(eta_omega=eta_omega, delta=2.0 * eta_omega * math.sqrt(m), m=m)


# ---------------------------------------------------------------------------
# ideal entangling map in the computational basis
# ---------------------------------------------------------------------------

def ideal_gate_unitary(phi_e: float = 0.0, phi_o: float = 0.0) -> np.ndarray:
    """4x4 unitary sending each basis state to its Bell-like superposition.

    uu -> (uu + i e^{+i phi_e} dd)/sqrt(2)     dd -> (dd + i e^{-i phi_e} uu)/sqrt(2)
    ud -> (ud + i e^{+i phi_o} du)/sqrt(2)     du -> (du + i e^{-i phi_o} ud)/sqrt(2)
    """
    u = np.array([
        [1, 0, 0, 1j * cmath.exp(-1j * phi_e)],
        [0, 1, 1j * cmath.exp(-1j * phi_o), 0],
        [0, 1j * cmath.exp(1j * phi_o), 1, 0],
        [1j * cmath.exp(1j * phi_e), 0, 0, 1],
    ], dtype=complex)
    return u / math.sqrt(2)


def apply_ideal_gate(state: np.ndarray, phi_e: float = 0.0,
                     phi_o: float = 0.0) -> np.ndarray:
    """Apply the entangling map to a ket (shape (4,)) or density matrix (4x4)."""
    u = ideal_gate_unitary(phi_e, phi_o)
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return u @ state
    return u @ state @ u.conj().T


def target_state(label: str, phi_e: float = 0.0, phi_o: float = 0.0) -> np.ndarray:
    """Bell-like output ket the ideal gate produces from a basis-state input."""
    return apply_ideal_gate(basis_state(label), phi_e, phi_o)


# ---------------------------------------------------------------------------
# truncated Fock register and brute-force propagation
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _quadrature_eigh(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs of the quadrature a + a^dag on levels 0 .. dim-1.

    The matrix is real symmetric tridiagonal with off-diagonal sqrt(n). One
    entry is cached: a thermal scan evaluates the points that share a
    register one after another, and the largest register (nbar = 10) keeps
    about 5 MB alive.
    """
    off = np.sqrt(np.arange(1, dim, dtype=float))
    values, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    values.flags.writeable = False
    vectors.flags.writeable = False
    return values, vectors


def displacement_operator(alpha: complex, dim: int) -> np.ndarray:
    """D(alpha) = exp(alpha a^dag - alpha* a) on the truncated register.

    With ``alpha = r e^{i theta}`` the Hermitian generator ``H = i (alpha
    a^dag - alpha* a)`` equals ``r P X P^dag``, where ``X = a + a^dag`` is
    real symmetric and ``P = diag(e^{i n (theta + pi/2)})``. From the cached
    real eigendecomposition ``X = V diag(lambda) V^T``,
    ``D = exp(-i H) = (P V) diag(e^{-i r lambda}) (P V)^dag``, which is
    unitary; truncation only limits how faithfully it represents the
    infinite-dimensional displacement (guarded by the health check).
    """
    values, vectors = _quadrature_eigh(dim)
    phases = np.exp(1j * (cmath.phase(alpha) + math.pi / 2) * np.arange(dim))
    rotated = phases[:, None] * vectors
    return (rotated * np.exp(-1j * abs(alpha) * values)) @ rotated.conj().T


@dataclass(frozen=True)
class SpinMotionState:
    """Two-qubit spin register tensored with a truncated Fock register.

    ``amps[s, n]`` is the amplitude of computational spin state ``s`` (basis
    order uu, ud, du, dd) with ``n`` motional quanta.
    """

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 2 or amps.shape[0] != 4:
            raise ValueError(f"expected shape (4, n_max+1), got {amps.shape}")
        object.__setattr__(self, "amps", amps)
        norm = self.norm
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-9")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    @property
    def top_population(self) -> float:
        """Population of the highest retained Fock level (truncation health)."""
        return float(np.sum(np.abs(self.amps[:, -1]) ** 2))

    def spin_density(self) -> np.ndarray:
        """Reduced 4x4 spin density matrix (motion traced out)."""
        return self.amps @ self.amps.conj().T


def spin_motion_product(spin: np.ndarray, n: int, n_max: int) -> SpinMotionState:
    """Product state (spin ket) x |n> on a register truncated at n_max."""
    if not 0 <= n <= n_max:
        raise ValueError(f"Fock level {n} outside register 0..{n_max}")
    amps = np.zeros((4, n_max + 1), dtype=complex)
    amps[:, n] = np.asarray(spin, dtype=complex)
    return SpinMotionState(amps)


def _force(amps: np.ndarray, t: float, delta: float, alpha_o: float) -> np.ndarray:
    """Evolve amplitudes of shape (4, dim) for time t under the spin-dependent force.

    In the gate-diagonal (x) spin basis the evolution is the identity on the
    aligned states and ``exp(-i Phi) D(+/- alpha)`` on the anti-aligned ones,
    with ``alpha`` and ``Phi`` the closed-form displacement and trajectory
    phase. Raises :class:`TruncationError` when more than ``_HEALTH_TOL``
    ends in the top Fock level, and ``ValueError`` when the norm drifts from
    1 beyond 1e-9.
    """
    alpha = displacement_alpha(t, delta, alpha_o)
    phase = cmath.exp(-1j * trajectory_phase(t, delta, alpha_o))
    d_plus = displacement_operator(alpha, amps.shape[1])
    amps_x = _HX2 @ amps
    amps_x[1] = phase * (d_plus @ amps_x[1])
    # D(-alpha) = D(alpha)^dag
    amps_x[2] = phase * (d_plus.conj().T @ amps_x[2])
    out = _HX2 @ amps_x

    level_pops = np.sum(np.abs(out) ** 2, axis=0)
    if level_pops[-1] > _HEALTH_TOL:
        raise TruncationError(
            f"propagation leaked {level_pops[-1]:.2e} into the top Fock level "
            f"(threshold {_HEALTH_TOL:.0e}); enlarge the register")
    drift = abs(math.sqrt(np.sum(level_pops)) - 1.0)
    if drift > 1e-9:
        raise ValueError(f"state norm deviates from 1 by {drift:.2e} beyond 1e-9")
    return out


def propagate_spin_motion(initial: SpinMotionState, params: GateParams,
                          t: float) -> SpinMotionState:
    """Evolve a spin-motion state for time t under the spin-dependent force.

    The truncation-health invariant (top-level population below
    ``_HEALTH_TOL``) is enforced on input and output.
    """
    if initial.top_population > _HEALTH_TOL:
        raise TruncationError(
            f"initial top-level population {initial.top_population:.2e} "
            f"exceeds {_HEALTH_TOL:.0e}; enlarge the register")
    return SpinMotionState(_force(initial.amps, t, params.delta, params.alpha_o))


def fock_cutoff(alpha_abs: float, n_init: int = 0) -> int:
    """Register size keeping a displaced |n_init> comfortably clear of the top."""
    spread = math.sqrt(n_init) + abs(alpha_abs)
    return max(20, math.ceil(spread ** 2 + 7.0 * spread + 8.0)) + n_init


# ---------------------------------------------------------------------------
# brightness and parity signals
# ---------------------------------------------------------------------------

def populations_to_brightness(p: np.ndarray) -> float:
    """Average number of fluorescing ions, 2 P_dd + P_ud + P_du (down = bright)."""
    return float(2.0 * p[3] + p[1] + p[2])


def populations_to_parity(p: np.ndarray) -> float:
    """(P_uu + P_dd) - (P_ud + P_du), the sigma_z x sigma_z expectation."""
    return float(p[0] + p[3] - p[1] - p[2])


def brightness_closed(t: float, delta: float, alpha_o: float,
                      nbar: float = 0.0) -> float:
    """Closed-form brightness 1 - cos(Phi) e^{-|alpha|^2 (2 nbar + 1) / 2}.

    For the ions starting in uu with the driven mode in a thermal state of
    mean occupation ``nbar``; ``nbar = 0`` is the ground-state expression.
    """
    a2 = abs(displacement_alpha(t, delta, alpha_o)) ** 2
    phi = trajectory_phase(t, delta, alpha_o)
    return 1.0 - math.cos(phi) * math.exp(-a2 * (2.0 * nbar + 1.0) / 2.0)


def parity_closed(t: float, delta: float, alpha_o: float,
                  nbar: float = 0.0) -> float:
    """Closed-form parity (1 + e^{-2 |alpha|^2 (2 nbar + 1)}) / 2."""
    a2 = abs(displacement_alpha(t, delta, alpha_o)) ** 2
    return 0.5 * (1.0 + math.exp(-2.0 * a2 * (2.0 * nbar + 1.0)))


def propagated_signals(t: float, delta: float, alpha_o: float,
                       n_init: int = 0) -> tuple[float, float]:
    """(brightness, parity) from brute-force propagation of uu x |n_init>."""
    start = spin_motion_product(basis_state("uu"), n_init,
                                fock_cutoff(2.0 * abs(alpha_o), n_init))
    p = np.sum(np.abs(_force(start.amps, t, delta, alpha_o)) ** 2, axis=1)
    return populations_to_brightness(p), populations_to_parity(p)


def thermal_weights(nbar: float, n_levels: int) -> np.ndarray:
    """Geometric occupation probabilities nbar^n / (1 + nbar)^(n+1)."""
    n = np.arange(n_levels, dtype=float)
    return nbar ** n / (1.0 + nbar) ** (n + 1.0)


def thermal_levels(nbar: float) -> int:
    """Number of Fock levels so the neglected geometric tail is below _TAIL_TOL."""
    if nbar == 0:
        return 1
    z = nbar / (1.0 + nbar)
    return max(1, math.ceil(math.log(_TAIL_TOL) / math.log(z)))


def thermal_register_size(alpha_o: float, nbar: float) -> int:
    """Fock levels a thermal point at displacement scale alpha_o needs."""
    return fock_cutoff(2.0 * abs(alpha_o), thermal_levels(nbar) - 1) + 1


def scan_registers(alpha_o, nbar: float) -> np.ndarray:
    """Fock register of each scan point at displacement scales ``alpha_o``.

    Each point needs :func:`thermal_register_size` levels. Taken from the
    largest need down, points share a register while it is at most
    ``_REGISTER_SHARE`` times their own, so a scan whose needs span a factor
    F solves about log(F) / log(1.25) + 1 eigenproblems, and its largest
    register is the largest need.
    """
    own = np.array([thermal_register_size(a, nbar) for a in np.ravel(alpha_o)],
                   dtype=int)
    registers = np.empty_like(own)
    register = np.max(own, initial=0)
    for i in np.argsort(-own, kind="stable"):
        if register > _REGISTER_SHARE * own[i]:
            register = own[i]
        registers[i] = register
    return registers


def thermal_signals(t, delta, alpha_o, nbar: float):
    """(brightness, parity) averaged over a thermal initial motional state.

    ``t``, ``delta`` and ``alpha_o`` are scalars, giving two floats, or
    equal-length arrays of scan points, giving two arrays; each point is
    evaluated on its register from :func:`scan_registers`. The average is
    probability-weighted over the initial Fock levels n < L, truncated where
    the geometric occupation tail drops below ``_TAIL_TOL``.

    In the gate-diagonal basis uu x |n> has amplitude 1/2 on every spin
    state; the aligned ones keep |n> and the anti-aligned ones become
    ``exp(-i Phi) D(+/- alpha) |n>``. Only populations are read, so per level
    the brightness is ``1 - cos(Phi) Re D_nn`` and the parity
    ``(1 + Re (D^2)_nn) / 2``, with one displacement operator per point.
    Raises :class:`TruncationError` when a level n < L would leave more than
    ``_HEALTH_TOL`` in the top Fock level, and ``ValueError`` when a row or
    column n < L of D drifts from unit norm beyond 1e-9.
    """
    scalar = np.ndim(t) == 0
    t, delta, alpha_o = (np.atleast_1d(np.asarray(x, dtype=float))
                         for x in (t, delta, alpha_o))
    levels = thermal_levels(nbar)
    registers = scan_registers(alpha_o, nbar)
    weights = thermal_weights(nbar, levels)
    total = weights.sum()
    brightness = np.empty(t.shape)
    parity = np.empty(t.shape)
    # points sharing a register run consecutively, so the one cached
    # eigendecomposition serves them all. d stays bound until the next
    # point's D exists: releasing it first saves one register-sized matrix,
    # but lets malloc trim the heap and fault the pages back in at every
    # point, which doubled the time of a noisy.cfg scan.
    for i in np.argsort(-registers, kind="stable"):
        ti, di, ai = t[i], delta[i], alpha_o[i]
        d = displacement_operator(displacement_alpha(ti, di, ai), int(registers[i]))
        rows, cols = d[:levels], d[:, :levels]
        # each level n < L puts 1/4 |D_top,n|^2 + 1/4 |D_n,top|^2 in the top level
        top = 0.25 * float(np.max(np.abs(rows[:, -1]) ** 2 + np.abs(cols[-1]) ** 2))
        if top > _HEALTH_TOL:
            raise TruncationError(
                f"propagation leaked {top:.2e} into the top Fock level "
                f"(threshold {_HEALTH_TOL:.0e}); enlarge the register")
        norms = np.concatenate([np.linalg.norm(rows, axis=1),
                                np.linalg.norm(cols, axis=0)])
        drift = float(np.max(np.abs(norms - 1.0)))
        if drift > 1e-9:
            raise ValueError(f"state norm deviates from 1 by {drift:.2e} beyond 1e-9")
        # (D^2)_nn = sum_m D_nm D_mn
        d2_diag = np.einsum("nm,mn->n", rows, cols).real
        phi = trajectory_phase(ti, di, ai)
        brightness[i] = total - math.cos(phi) * (weights @ rows.diagonal().real)
        parity[i] = 0.5 * (total + weights @ d2_diag)
    if scalar:
        return float(brightness[0]), float(parity[0])
    return brightness, parity


def signal_curves(params: GateParams, grid,
                  nbar: float) -> tuple[np.ndarray, np.ndarray]:
    """(brightness, parity) arrays over a grid of (t, delta) points.

    For ``nbar = 0`` the closed forms are used; for ``nbar > 0`` the whole
    grid is one :func:`thermal_signals` call (the closed forms with the
    (2 nbar + 1)-scaled exponent are candidates checked against this route
    in the tests, not asserted here).
    """
    t, delta = np.array(grid, dtype=float).reshape(-1, 2).T
    alpha_o = params.eta_omega / delta
    if nbar > 0:
        return thermal_signals(t, delta, alpha_o, nbar)
    values = [(brightness_closed(*point), parity_closed(*point))
              for point in zip(t, delta, alpha_o)]
    brightness, parity = np.array(values, dtype=float).reshape(-1, 2).T
    return brightness, parity


def brightness_curve(params: GateParams, grid, nbar: float) -> np.ndarray:
    """Brightness over a grid of (t, delta) points, as in :func:`signal_curves`."""
    return signal_curves(params, grid, nbar)[0]


def apply_contrast(values: np.ndarray, contrast: float = 1.0,
                   offset: float = 0.0) -> np.ndarray:
    """Free contrast/offset factors of a fitted signal, c * S + o."""
    return contrast * np.asarray(values, dtype=float) + offset


# ---------------------------------------------------------------------------
# noise channels
# ---------------------------------------------------------------------------

def scattering_channel(rho: np.ndarray, p_sc: float, kappa: float,
                       target: np.ndarray) -> np.ndarray:
    """End-of-gate spontaneous-scattering mixture.

    With probability ``p_sc`` the state is replaced by a mixture retaining
    overlap ``kappa`` with the pure entangled target and spreading the rest
    uniformly over its orthogonal complement, so the output fidelity is
    ``(1 - p_sc) F(rho) + p_sc kappa``.
    """
    if not 0.0 <= p_sc <= 1.0:
        raise ValueError(f"p_sc must be in [0, 1], got {p_sc}")
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"kappa must be in [0, 1], got {kappa}")
    proj = projector(target)
    scattered = kappa * proj + (1.0 - kappa) * (np.eye(4) - proj) / 3.0
    return (1.0 - p_sc) * np.asarray(rho, dtype=complex) + p_sc * scattered


def prep_error_channel(rho: np.ndarray, f_prep: float) -> np.ndarray:
    """Depolarizing preparation error with fidelity ``f_prep`` to the ideal input."""
    if not 0.25 <= f_prep <= 1.0:
        raise ValueError(f"f_prep must be in [0.25, 1], got {f_prep}")
    lam = (4.0 * f_prep - 1.0) / 3.0
    return lam * np.asarray(rho, dtype=complex) + (1.0 - lam) * np.eye(4) / 4.0


# ---------------------------------------------------------------------------
# laser/atomic error budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorBudget:
    """Raman-laser error budget; inputs in SI angular frequencies and seconds.

    Inputs: optical linewidth ``gamma``, Raman detuning ``delta_raman``, EOM
    Raman efficiency ``epsilon``, Clebsch-Gordan factor ``zeta``, Lamb-Dicke
    parameter ``eta_ld``, hyperfine splitting ``omega_hf``, measured
    differential Stark shift ``dnu_st`` (optional), gate time ``tau_g``
    (optional) and residual post-scatter overlap ``kappa``.

    The noise figures derive from them: beta = sqrt(2) pi / (epsilon zeta
    eta); the theoretical scattering probability is 2 beta gamma / Delta and
    the Stark phase beta omega_hf / Delta. When a measured Stark shift is
    supplied, phi_st = dnu_st tau_g and the scattering probability inferred
    from it is phi_st 2 gamma / omega_hf. The predicted infidelity is
    (1 - kappa) p_sc.
    """

    gamma: float
    delta_raman: float
    epsilon: float
    zeta: float
    eta_ld: float
    omega_hf: float
    dnu_st: float | None = None
    tau_g: float | None = None
    kappa: float = 0.27

    def __post_init__(self):
        for name in ("gamma", "delta_raman", "epsilon", "zeta", "eta_ld", "omega_hf"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.delta_raman <= self.gamma:
            raise ValueError("Raman detuning delta_raman must greatly exceed "
                             "the linewidth gamma")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa must be in [0, 1], got {self.kappa}")
        if not 0.0 <= self.p_sc <= 1.0:
            inputs = ("epsilon, zeta, eta_ld, gamma and delta_raman"
                      if self.p_sc_inferred is None else "dnu_st, tau_g, gamma and omega_hf")
            raise ValueError(f"scattering probability {self.p_sc:.6g} from {inputs} "
                             "is outside [0, 1]")

    @property
    def beta(self) -> float:
        product = self.epsilon * self.zeta * self.eta_ld  # can underflow to 0
        return math.sqrt(2.0) * math.pi / product if product else math.inf

    @property
    def p_sc_theory(self) -> float:
        return 2.0 * self.beta * self.gamma / self.delta_raman

    @property
    def phi_st_theory(self) -> float:
        return self.beta * self.omega_hf / self.delta_raman

    @property
    def phi_st_measured(self) -> float | None:
        return None if None in (self.dnu_st, self.tau_g) else self.dnu_st * self.tau_g

    @property
    def p_sc_inferred(self) -> float | None:
        phi = self.phi_st_measured
        return None if phi is None else phi * 2.0 * self.gamma / self.omega_hf

    @property
    def p_sc(self) -> float:
        return self.p_sc_theory if self.p_sc_inferred is None else self.p_sc_inferred

    @property
    def phi_st(self) -> float:
        measured = self.phi_st_measured
        return self.phi_st_theory if measured is None else measured

    @property
    def gamma_sc(self) -> float | None:
        return None if self.tau_g is None else self.p_sc / (2.0 * self.tau_g)

    @property
    def infidelity(self) -> float:
        return (1.0 - self.kappa) * self.p_sc


def error_budget(inputs: ErrorBudget) -> ErrorBudget:
    """The budget itself: its noise figures are properties of its inputs."""
    return inputs
