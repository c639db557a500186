"""Command-line pipelines: gate scans, tomography runs, budget, analysis.

Subcommands:

* ``scan {detuning,time}`` - brightness and parity grids to CSV, from the
  closed forms at ``nbar = 0`` and otherwise from one displacement operator
  per point, on Fock registers that neighbouring points share;
* ``tomo`` - prepare a labeled input, apply the noisy gate, simulate the
  nine-basis measurement, reconstruct and quantify the state;
* ``budget`` - complete the laser/atomic error budget;
* ``analyze`` - entanglement measures of an existing density-matrix JSON.

Every command is a pure function of (config, seed); all output files embed
or sidecar the configuration that produced them. Exit codes: 0 success, 1
configuration or usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import KHZ, US, ConfigError, RunConfig, load_config
from .core import basis_state, density_from_dict, density_to_dict, projector, validate_density
from .gate import (TruncationError, apply_contrast, apply_ideal_gate,
                   error_budget, prep_error_channel, scattering_channel,
                   scan_registers, signal_curves)
from .measures import MeasuresReport, analyze, fit_target_phase, parity_class
from .sampling import BootstrapReport, bootstrap
from .tomography import (SETTINGS, CalibrationResult, CountsRecord,
                         LinearInversionResult, ReconstructionError,
                         TomographyResult, calibrate_detection,
                         linear_inversion, mle_fit, simulate_counts,
                         write_counts_csv)

SCAN_HEADER = ("t_us", "delta_kHz", "s_av", "parity")
STATE_LABELS = ("uu", "dd", "ud", "du")
# largest Fock register a thermal scan may use; it grows with nbar and
# eta_omega / |delta|, and the default, noisy.cfg and ideal.cfg grids need at
# most 848 levels at nbar = 10. At 998 levels a complex matrix takes 16 MB,
# a scan point about 0.12 s and a whole run about 120 MB (2 cores, nbar = 10).
_MAX_FOCK_LEVELS = 1000


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def run_scan(cfg: RunConfig, kind: str) -> list[tuple[float, float, float, float]]:
    """Rows (t_us, delta_kHz, s_av, parity) for the requested scan kind."""
    params = cfg.gate_params()
    if kind == "detuning":
        deltas = np.linspace(cfg.scan_delta_min_khz, cfg.scan_delta_max_khz,
                             cfg.scan_points)
        grid = [(cfg.scan_t_us * US, d * KHZ) for d in deltas]
    elif kind == "time":
        times = np.linspace(cfg.scan_t_min_us, cfg.scan_t_max_us, cfg.scan_points)
        grid = [(t * US, params.delta) for t in times]
    else:
        raise ConfigError(f"unknown scan kind {kind!r}")
    if cfg.nbar > 0 and grid:
        alpha_o = params.eta_omega / np.array([d for _, d in grid])
        size = int(scan_registers(alpha_o, cfg.nbar).max())
        if size > _MAX_FOCK_LEVELS:
            keys = "delta_khz" if kind == "time" else "scan_delta_min_khz/scan_delta_max_khz"
            raise ConfigError(f"the thermal scan needs {size} Fock levels, above "
                              f"{_MAX_FOCK_LEVELS}: lower eta_omega_khz or nbar, "
                              f"or move {keys} away from zero")

    brightness, parity = signal_curves(params, grid, cfg.nbar)
    s_av = apply_contrast(brightness, cfg.contrast, cfg.offset)
    return [(t / US, d / KHZ, s, p)
            for (t, d), s, p in zip(grid, s_av, parity)]


def write_scan_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SCAN_HEADER)
        for row in rows:
            writer.writerow([f"{v:.10g}" for v in row])


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# tomography pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineResult:
    """Everything one tomography run produces."""

    label: str
    rho_true: np.ndarray
    records: list[CountsRecord]
    calibration: CalibrationResult
    linear: LinearInversionResult
    fit: TomographyResult
    report: MeasuresReport
    boot: BootstrapReport | None


def prepared_state(cfg: RunConfig, label: str) -> tuple[np.ndarray, np.ndarray]:
    """(true state after the noisy gate, ideal pure target) for an input label.

    Preparation error applies to the odd-parity inputs only; the even
    inputs double as the ideal detection controls.
    """
    ideal_in = basis_state(label)
    rho_in = projector(ideal_in)
    if parity_class(label) == "odd":
        rho_in = prep_error_channel(rho_in, cfg.f_prep)
    target = apply_ideal_gate(ideal_in, cfg.phi_e_rad, cfg.phi_o_rad)
    rho = apply_ideal_gate(rho_in, cfg.phi_e_rad, cfg.phi_o_rad)
    rho = scattering_channel(rho, cfg.p_sc, cfg.kappa, target)
    return rho, target


def run_tomography(cfg: RunConfig, label: str,
                   with_bootstrap: bool = True) -> PipelineResult:
    """Simulate, calibrate, reconstruct and quantify one target state."""
    if label not in STATE_LABELS:
        raise ConfigError(f"state must be one of {STATE_LABELS}, got {label!r}")
    rho_true, _ = prepared_state(cfg, label)
    detection = cfg.detection()

    root = np.random.SeedSequence(cfg.seed)
    counts_seed, uu_seed, dd_seed, boot_seed = root.spawn(4)
    records = simulate_counts(rho_true, SETTINGS, cfg.shots, detection, counts_seed)
    uu_rec = simulate_counts(projector(basis_state("uu")), [("z", "z")],
                             cfg.control_shots, detection, uu_seed)[0]
    dd_rec = simulate_counts(projector(basis_state("dd")), [("z", "z")],
                             cfg.control_shots, detection, dd_seed)[0]
    calibration = calibrate_detection(uu_rec, dd_rec)

    linear = linear_inversion(records, calibration.model)
    fit = mle_fit(records, calibration.model)
    report = analyze(fit.rho, label)

    boot = None
    if with_bootstrap:
        def statistic(resampled):
            refit = mle_fit(resampled, calibration.model,
                            initial_guess=fit.rho, restarts=1)
            return fit_target_phase(refit.rho, label).fidelity

        boot = bootstrap(records, cfg.bootstrap_resamples, statistic,
                         boot_seed, name=f"fidelity_{label}")
    return PipelineResult(label, rho_true, records, calibration, linear,
                          fit, report, boot)


def write_tomography(out: Path, cfg: RunConfig, result: PipelineResult,
                     emit_intermediate: bool = False) -> list[Path]:
    """Write the counts CSV and JSON documents of one pipeline run."""
    cfg_doc = cfg.to_dict()
    stem = f"tomo_{result.label}"
    fit, linear = result.fit, result.linear
    documents = [
        ("density", {**density_to_dict(fit.rho), "diagnostics": {
            "objective": fit.objective, "iterations": fit.iterations,
            "converged": fit.converged}}),
        ("measures", result.report.to_dict()),
    ]
    if result.boot is not None:
        documents.append(("bootstrap", result.boot.to_dict()))
    if emit_intermediate:
        documents.append(("linear", {**density_to_dict(linear.rho), "diagnostics": {
            "min_eigenvalue": linear.min_eigenvalue, "physical": linear.physical}}))

    written = [out / f"{stem}_counts.csv"]
    write_counts_csv(written[0], result.records)
    for suffix, doc in documents:
        written.append(out / f"{stem}_{suffix}.json")
        write_json(written[-1], {**doc, "config": cfg_doc})
    written.append(out / f"{stem}.config.json")
    write_json(written[-1], cfg_doc)
    return written


# ---------------------------------------------------------------------------
# budget and analyze
# ---------------------------------------------------------------------------

def budget_table(cfg: RunConfig) -> tuple[str, dict]:
    """Human-readable table and JSON document of the completed error budget."""
    done = error_budget(cfg.budget())
    doc = {
        "beta": done.beta,
        "gamma_sc_per_s": done.gamma_sc,
        "p_sc_theory": done.p_sc_theory,
        "p_sc_inferred": done.p_sc_inferred,
        "p_sc": done.p_sc,
        "phi_st_theory_rad": done.phi_st_theory,
        "phi_st_measured_rad": done.phi_st_measured,
        "phi_st_rad": done.phi_st,
        "predicted_infidelity": done.infidelity,
    }
    lines = [f"{'quantity':<28}{'value':>14}"]
    lines.append(f"{'beta':<28}{done.beta:>14.4g}")
    if done.gamma_sc is not None:
        lines.append(f"{'gamma_sc (1/s)':<28}{done.gamma_sc:>14.4g}")
    lines.append(f"{'p_sc (theory)':<28}{done.p_sc_theory:>14.4g}")
    if done.p_sc_inferred is not None:
        lines.append(f"{'p_sc (inferred)':<28}{done.p_sc_inferred:>14.4g}")
    lines.append(f"{'phi_st (rad)':<28}{done.phi_st:>14.4g}")
    lines.append(f"{'phi_st (pi)':<28}{done.phi_st / math.pi:>14.4g}")
    lines.append(f"{'predicted 1 - F':<28}{done.infidelity:>14.4g}")
    return "\n".join(lines), doc


def analyze_density_file(path: Path, label: str) -> MeasuresReport:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read density JSON {path}: {exc}") from exc
    try:
        rho = density_from_dict(doc)
    except ValueError as exc:
        raise ConfigError(f"bad density JSON {path}: {exc}") from exc
    check = validate_density(rho, tol=1e-6, psd_tol=1e-6)
    if not check.ok:
        raise ValueError(
            f"density matrix fails physicality: hermiticity defect "
            f"{check.hermiticity_defect:.2e}, trace defect "
            f"{check.trace_defect:.2e}, min eigenvalue {check.min_eigenvalue:.2e}")
    return analyze(rho, label)


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mstomo",
        description="Two-ion entangling-gate simulation and state tomography")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default=Path("."),
                     help="output directory (created if missing)")
    common = argparse.ArgumentParser(add_help=False, parents=[out])
    common.add_argument("--config", type=Path, help="key-value configuration file")

    p_scan = sub.add_parser("scan", parents=[common],
                            help="brightness/parity grid scans")
    p_scan.add_argument("kind", choices=("detuning", "time"))

    p_tomo = sub.add_parser("tomo", parents=[common],
                            help="end-to-end tomography of one target")
    p_tomo.add_argument("--state", choices=STATE_LABELS, default="uu",
                        help="computational input state fed to the gate")
    p_tomo.add_argument("--seed", type=int, help="override the configured seed")
    p_tomo.add_argument("--resamples", type=int,
                        help="override bootstrap resample count")
    p_tomo.add_argument("--no-bootstrap", action="store_true",
                        help="skip the bootstrap stage")
    p_tomo.add_argument("--emit-intermediate", action="store_true",
                        help="also write the linear-inversion estimate")

    sub.add_parser("budget", parents=[common], help="laser/atomic error budget")

    p_an = sub.add_parser("analyze", parents=[out],
                          help="measures of a density-matrix JSON")
    p_an.add_argument("--density", type=Path, required=True,
                      help="density-matrix JSON to analyze")
    p_an.add_argument("--state", choices=STATE_LABELS, default="uu",
                      help="target family to fit against")
    return parser


def _load(args) -> RunConfig:
    """The configuration file of ``args``, with tomo's overrides applied."""
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.command != "tomo":
        return cfg
    overrides = {"seed": args.seed, "bootstrap_resamples": args.resamples}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code != 2:  # --help and --version exit 0
            raise
        return 1  # a usage error; exit 2 means a numerical failure
    try:
        cfg = None if args.command == "analyze" else _load(args)
        out = args.out
        out.mkdir(parents=True, exist_ok=True)

        if args.command == "scan":
            rows = run_scan(cfg, args.kind)
            csv_path = out / f"scan_{args.kind}.csv"
            write_scan_csv(csv_path, rows)
            write_json(out / f"scan_{args.kind}.config.json", cfg.to_dict())
            print(f"wrote {csv_path} ({len(rows)} points)")

        elif args.command == "tomo":
            result = run_tomography(cfg, args.state,
                                    with_bootstrap=not args.no_bootstrap)
            written = write_tomography(out, cfg, result,
                                       emit_intermediate=args.emit_intermediate)
            r = result.report
            print(f"state {args.state}: F={r.f:.4f} N={r.n:.4f} "
                  f"C={r.c:.4f} E_F={r.e_f:.4f} phi={r.phi_fit:+.3f}")
            if result.boot is not None:
                print(f"bootstrap: F = {result.boot.estimate:.4f} "
                      f"+/- {result.boot.std_error:.4f}")
            for path in written:
                print(f"wrote {path}")

        elif args.command == "budget":
            table, doc = budget_table(cfg)
            doc["config"] = cfg.to_dict()
            write_json(out / "budget.json", doc)
            print(table)

        elif args.command == "analyze":
            report = analyze_density_file(args.density, args.state)
            doc = report.to_dict()
            doc["source"] = str(args.density)
            write_json(out / "measures.json", doc)
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))

    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (TruncationError, ReconstructionError, ValueError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
