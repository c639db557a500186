"""Run configuration: a flat key-value file mapped onto one dataclass.

External units are experiment-friendly (ordinary frequencies in kHz, times
in microseconds, angles in radians); everything is converted to SI angular
frequencies and seconds at the boundary. The file format is plain text:
one ``key = value`` per line, ``#`` comments, blank lines ignored, ``none``
for optional values.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace
from typing import get_args, get_type_hints

from .gate import ErrorBudget, GateParams, gate_operating_point
from .tomography import DetectionModel

KHZ = 2.0 * math.pi * 1e3  # kHz (ordinary) -> rad/s
US = 1e-6  # microseconds -> seconds

# upper bounds of the keys whose size drives memory or time: a thermal scan
# at nbar = 10 averages over 290 initial Fock levels (the scan bounds their
# register)
_MAX_NBAR = 10.0
_MAX_SCAN_POINTS = 10_000
# the bootstrap builds every resample's generator up front (about 1 kB each)
# and refits each in 0.1-0.4 s: 10,000 resamples take 10 MB and up to an hour
_MAX_BOOTSTRAP_RESAMPLES = 10_000
# a tomo run takes the same time from 200 to 1e12 shots per setting; at 1e13
# the fit needs 2-5x the iterations, so the bound keeps a 1000x margin
_MAX_SHOTS = 10 ** 9
# the ErrorBudget inputs whose config keys are in kHz
_SI_INPUT = re.compile(r"\b(gamma|delta_raman|omega_hf|dnu_st)\b")


class ConfigError(ValueError):
    """Invalid configuration file or parameter values."""


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of gate, noise, detection and sampling settings."""

    # gate drive
    eta_omega_khz: float = 6.4
    delta_khz: float | None = None  # default: loop-closure operating point
    m: int = 1
    phi_e_rad: float = 0.0
    phi_o_rad: float = 0.0
    nbar: float = 0.0
    # noise channels
    p_sc: float = 0.0
    kappa: float = 0.27
    f_prep: float = 1.0  # preparation fidelity of the odd-parity inputs
    # detection (symmetric per-qubit crossover)
    det_fid_q1: float = 1.0
    det_fid_q2: float = 1.0
    # tomography sampling
    shots: int = 200
    control_shots: int = 5000
    bootstrap_resamples: int = 500
    seed: int = 0
    # scan grids
    scan_points: int = 101
    scan_t_us: float = 75.0
    scan_delta_min_khz: float = 4.0
    scan_delta_max_khz: float = 24.0
    scan_t_min_us: float = 0.0
    scan_t_max_us: float = 240.0
    contrast: float = 1.0
    offset: float = 0.0
    # laser/atomic error budget
    gamma_khz: float = 6.0e4
    delta_raman_khz: float = 2.0e8
    epsilon: float = 0.2
    zeta: float = 0.5
    eta_ld: float = 0.1
    omega_hf_khz: float = 1.453e7
    dnu_st_khz: float | None = 75.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.eta_omega_khz <= 0:
            raise ConfigError("eta_omega_khz must be positive")
        if self.delta_khz is not None and self.delta_khz == 0:
            raise ConfigError("delta_khz must be nonzero")
        if self.m < 1:
            raise ConfigError("m must be a positive integer")
        if not 0 <= self.p_sc <= 1:
            raise ConfigError("p_sc must be in [0, 1]")
        if not 0 <= self.kappa <= 1:
            raise ConfigError("kappa must be in [0, 1]")
        if not 0.25 <= self.f_prep <= 1:
            raise ConfigError("f_prep must be in [0.25, 1]")
        for name in ("det_fid_q1", "det_fid_q2"):
            if not 0.5 <= getattr(self, name) <= 1:
                raise ConfigError(f"{name} must be in [0.5, 1]")
        for name in ("shots", "control_shots"):
            if not 1 <= getattr(self, name) <= _MAX_SHOTS:
                raise ConfigError(f"{name} must be in [1, {_MAX_SHOTS}]")
        if not 100 <= self.bootstrap_resamples <= _MAX_BOOTSTRAP_RESAMPLES:
            raise ConfigError("bootstrap_resamples must be in "
                              f"[100, {_MAX_BOOTSTRAP_RESAMPLES}]")
        if not 0 <= self.scan_points <= _MAX_SCAN_POINTS:
            raise ConfigError(f"scan_points must be in [0, {_MAX_SCAN_POINTS}]")
        if not 0 <= self.nbar <= _MAX_NBAR:
            raise ConfigError(f"nbar must be in [0, {_MAX_NBAR:g}]")
        low, high = self.scan_delta_min_khz, self.scan_delta_max_khz
        if 0 in (low, high) or (low > 0) != (high > 0):
            raise ConfigError("scan_delta_min_khz and scan_delta_max_khz must be "
                              "nonzero and of one sign")
        self.budget()  # ErrorBudget's checks of the budget inputs and of p_sc

    def gate_params(self) -> GateParams:
        """GateParams in SI units; detuning defaults to the operating point."""
        eta_omega = self.eta_omega_khz * KHZ
        if self.delta_khz is None:
            return gate_operating_point(eta_omega, self.m)
        return GateParams(eta_omega, self.delta_khz * KHZ, self.m)

    def detection(self) -> DetectionModel:
        return DetectionModel.symmetric(self.det_fid_q1, self.det_fid_q2)

    def budget(self) -> ErrorBudget:
        """ErrorBudget in SI units, at the gate time of :meth:`gate_params`."""
        try:
            return ErrorBudget(
                gamma=self.gamma_khz * KHZ,
                delta_raman=self.delta_raman_khz * KHZ,
                epsilon=self.epsilon, zeta=self.zeta, eta_ld=self.eta_ld,
                omega_hf=self.omega_hf_khz * KHZ,
                dnu_st=None if self.dnu_st_khz is None else self.dnu_st_khz * KHZ,
                tau_g=self.gate_params().tau_g,
                kappa=self.kappa)
        except ValueError as exc:
            # name the config key, gamma_khz for ErrorBudget's gamma
            raise ConfigError(_SI_INPUT.sub(r"\1_khz", str(exc))) from exc

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# key -> annotation: int, float or float | None
_TYPES = get_type_hints(RunConfig)


def _coerce(name: str, text: str):
    text = text.strip()
    if text.lower() in ("none", ""):
        if type(None) not in get_args(_TYPES[name]):
            raise ConfigError(f"{name} cannot be none")
        return None
    kind = int if _TYPES[name] is int else float
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {text!r}") from exc


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse ``key = value`` lines into a RunConfig (defaults from ``base``)."""
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        updates[key] = _coerce(key, value)
    return replace(base if base is not None else RunConfig(), **updates)


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base)
