import json
import math
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mstomo import cli, config, core, gate, measures
from mstomo.config import KHZ, ConfigError, RunConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def test_defaults_give_operating_point():
    cfg = RunConfig()
    params = cfg.gate_params()
    assert params.delta / config.KHZ == pytest.approx(12.8)
    assert params.tau_g * 1e6 == pytest.approx(78.125)


def test_parse_config_text():
    cfg = config.parse_config("""
# comment
eta_omega_khz = 6.3
nbar = 0.3      # inline comment
delta_khz = none
shots = 150
""")
    assert cfg.eta_omega_khz == 6.3
    assert cfg.nbar == 0.3
    assert cfg.delta_khz is None
    assert cfg.shots == 150


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        config.parse_config("eta_omega_mhz = 6.3")


def test_parse_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="bad value"):
        config.parse_config("shots = many")
    with pytest.raises(ConfigError, match="cannot be none"):
        config.parse_config("shots = none")
    with pytest.raises(ConfigError, match="expected"):
        config.parse_config("just some words")


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(p_sc=1.5)
    with pytest.raises(ConfigError):
        RunConfig(f_prep=0.1)
    with pytest.raises(ConfigError):
        RunConfig(m=0)
    with pytest.raises(ConfigError):
        RunConfig(bootstrap_resamples=10)


@pytest.mark.parametrize("line, argv", [
    ("eta_omega_khz = nan", ["scan", "detuning"]),
    ("scan_t_us = nan", ["scan", "detuning"]),
    ("nbar = inf", ["scan", "time"]),
    ("seed = -1", ["tomo", "--no-bootstrap"]),
    ("nbar = 10.5", ["scan", "time"]),
    ("scan_points = 10001", ["scan", "detuning"]),
    ("bootstrap_resamples = 10001", ["tomo", "--no-bootstrap"]),
    ("shots = 1000000001", ["tomo", "--no-bootstrap"]),
    ("control_shots = 1000000001", ["tomo", "--no-bootstrap"]),
    ("epsilon = -1", ["tomo", "--no-bootstrap"]),
    ("delta_raman_khz = 1", ["scan", "time"]),
    ("scan_delta_max_khz = -1", ["budget"]),
    ("dnu_st_khz = 1e5", ["scan", "time"]),
    ("dnu_st_khz = 1e5", ["tomo", "--no-bootstrap"]),
    ("dnu_st_khz = 1e5", ["budget"]),
    ("dnu_st_khz = -75", ["budget"]),
])
def test_non_finite_and_negative_seed_are_config_errors(tmp_path, capsys, line, argv):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(line + "\n")
    out = tmp_path / "out"
    assert run_cli(*argv, "--config", cfg_path, "--out", out) == 1
    assert line.split()[0] in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# values each validated key accepts on its own; every other key takes any
# finite float. The budget's p_sc rule joins several keys, so a draw can
# still be a bad config.
_VALID = {
    "eta_omega_khz": st.floats(1e-3, 1e3),
    "delta_khz": st.none() | _FINITE.filter(bool),
    "m": st.integers(1, 10),
    "nbar": st.floats(0.0, 10.0),
    "p_sc": st.floats(0.0, 1.0),
    "kappa": st.floats(0.0, 1.0),
    "f_prep": st.floats(0.25, 1.0),
    "det_fid_q1": st.floats(0.5, 1.0),
    "det_fid_q2": st.floats(0.5, 1.0),
    "shots": st.integers(1, 10 ** 9),
    "control_shots": st.integers(1, 10 ** 9),
    "bootstrap_resamples": st.integers(100, 10_000),
    "seed": st.integers(0, 2 ** 63),
    "scan_points": st.integers(0, 10_000),
    "dnu_st_khz": st.none() | _FINITE,
    "scan_delta_min_khz": _POSITIVE,
    "scan_delta_max_khz": _POSITIVE,
    "gamma_khz": st.floats(0.0, 1e6, exclude_min=True),
    "delta_raman_khz": st.floats(1e6, exclude_min=True, allow_infinity=False),
    "epsilon": _POSITIVE,
    "zeta": _POSITIVE,
    "eta_ld": _POSITIVE,
    "omega_hf_khz": _POSITIVE,
}


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({f.name: _VALID.get(f.name, _FINITE)
                              for f in fields(RunConfig)}))
def test_valid_config_round_trips_through_text(values):
    text = "\n".join(f"{key} = {'none' if value is None else repr(value)}"
                     for key, value in values.items())
    try:
        cfg = RunConfig(**values)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as parsed:
            config.parse_config(text)
        assert str(parsed.value) == str(exc)
    else:
        assert config.parse_config(text) == cfg


def _at_most(high, exclude=False):
    return st.floats(max_value=high, exclude_max=exclude, allow_infinity=False)


def _beyond(low, high):
    """Finite floats outside the closed range [low, high]."""
    return _at_most(low, exclude=True) | st.floats(min_value=high, exclude_min=True,
                                                   allow_infinity=False)


# values just outside each key's range, with every other key at its default
# (scan_delta_max_khz = 24, gamma_khz = 6e4, delta_raman_khz = 2e8). The
# budget's p_sc passes 1 at dnu_st_khz = 246.669; a negative shift of a few
# subnormals makes p_sc underflow to -0.0, which the rule accepts.
_OUTSIDE = {
    "eta_omega_khz": _at_most(0.0),
    "delta_khz": st.just(0.0),
    "m": st.integers(max_value=0),
    "nbar": _beyond(0.0, 10.0),
    "p_sc": _beyond(0.0, 1.0),
    "kappa": _beyond(0.0, 1.0),
    "f_prep": _beyond(0.25, 1.0),
    "det_fid_q1": _beyond(0.5, 1.0),
    "det_fid_q2": _beyond(0.5, 1.0),
    "shots": st.integers(max_value=0) | st.integers(min_value=10 ** 9 + 1),
    "control_shots": st.integers(max_value=0) | st.integers(min_value=10 ** 9 + 1),
    "bootstrap_resamples": st.integers(max_value=99) | st.integers(min_value=10_001),
    "seed": st.integers(max_value=-1),
    "scan_points": st.integers(max_value=-1) | st.integers(min_value=10_001),
    "scan_delta_min_khz": _at_most(0.0),
    "scan_delta_max_khz": _at_most(0.0),
    "gamma_khz": _at_most(0.0) | st.floats(min_value=2e8, allow_infinity=False),
    "delta_raman_khz": _at_most(6e4),
    "epsilon": _at_most(0.0),
    "zeta": _at_most(0.0),
    "eta_ld": _at_most(0.0),
    "omega_hf_khz": _at_most(0.0),
    "dnu_st_khz": _at_most(-1e-300) | st.floats(min_value=246.7, allow_infinity=False),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_OUTSIDE)).flatmap(
    lambda key: st.tuples(st.just(key), _OUTSIDE[key])))
def test_out_of_range_value_names_its_key(item):
    key, value = item
    with pytest.raises(ConfigError, match=key):
        config.parse_config(f"{key} = {value!r}")


def test_non_finite_value_names_its_key():
    float_keys = [k for k, kind in get_type_hints(RunConfig).items() if kind is not int]
    assert len(float_keys) == 24
    for key in float_keys:
        for text in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                config.parse_config(f"{key} = {text}")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        config.load_config(tmp_path / "nope.cfg")


def test_explicit_detuning_overrides_operating_point():
    cfg = RunConfig(delta_khz=10.0)
    assert cfg.gate_params().delta / config.KHZ == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# scan command
# ---------------------------------------------------------------------------

def run_cli(*args):
    return cli.main([str(a) for a in args])


def test_detuning_scan_hits_unit_brightness(tmp_path):
    cfg_path = tmp_path / "scan.cfg"
    cfg_path.write_text(
        "eta_omega_khz = 6.3\nnbar = 0.3\nscan_t_us = 75\n"
        "scan_delta_min_khz = 6\nscan_delta_max_khz = 20\nscan_points = 29\n")
    assert run_cli("scan", "detuning", "--config", cfg_path, "--out", tmp_path) == 0
    rows = (tmp_path / "scan_detuning.csv").read_text().splitlines()
    assert rows[0] == "t_us,delta_kHz,s_av,parity"
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    near_gate = data[np.argmin(np.abs(data[:, 1] - 12.6))]
    assert abs(near_gate[2] - 1.0) < 0.05
    sidecar = json.loads((tmp_path / "scan_detuning.config.json").read_text())
    assert sidecar["eta_omega_khz"] == 6.3


def test_time_scan_parity_returns_at_loop_closures(tmp_path):
    cfg_path = tmp_path / "scan.cfg"
    cfg_path.write_text(
        "eta_omega_khz = 6.4\nscan_t_min_us = 0\nscan_t_max_us = 156.25\n"
        "scan_points = 5\n")
    assert run_cli("scan", "time", "--config", cfg_path, "--out", tmp_path) == 0
    rows = (tmp_path / "scan_time.csv").read_text().splitlines()[1:]
    data = np.array([[float(x) for x in row.split(",")] for row in rows])
    # closures at 0, 78.125 and 156.25 us for delta/2pi = 12.8 kHz
    assert data[0, 3] == pytest.approx(1.0, abs=1e-9)
    assert data[2, 3] == pytest.approx(1.0, abs=1e-9)
    assert data[4, 3] == pytest.approx(1.0, abs=1e-9)
    assert data[1, 3] < 1.0


def counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_thermal_scan_propagates_each_point_once(monkeypatch):
    # perfbench's traced gate-scan run requires spans of both functions. Its
    # tracer replaces each function at every mstomo module attribute that
    # holds it, so a scan must reach them through those attributes.
    calls = Counter()
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "mstomo"]
    for name in ("thermal_signals", "displacement_operator"):
        original = getattr(gate, name)
        wrapper = counting(calls, name, original)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    noisy = config.load_config(CONFIGS / "noisy.cfg")
    short = RunConfig(nbar=0.3, scan_points=7, scan_t_max_us=100.0)
    for cfg, kind in ((noisy, "detuning"), (noisy, "time"), (short, "time")):
        calls.clear()
        rows = cli.run_scan(cfg, kind)
        assert len(rows) == cfg.scan_points
        assert calls == {"thermal_signals": 1, "displacement_operator": cfg.scan_points}


def test_zero_point_scan_writes_header_only(tmp_path):
    cfg_path = tmp_path / "scan.cfg"
    cfg_path.write_text("scan_points = 0\n")
    assert run_cli("scan", "time", "--config", cfg_path, "--out", tmp_path) == 0
    rows = (tmp_path / "scan_time.csv").read_text().splitlines()
    assert rows == ["t_us,delta_kHz,s_av,parity"]


@pytest.mark.parametrize("lines, kind, key", [
    ("nbar = 0.3\nscan_delta_min_khz = 0.1\nscan_points = 3\n", "detuning",
     "scan_delta_min_khz/scan_delta_max_khz"),
    # without dnu_st_khz, as the 10 ms gate would take p_sc from the 75 kHz
    # Stark shift to 39
    ("nbar = 0.3\ndelta_khz = -0.1\nscan_points = 3\ndnu_st_khz = none\n", "time",
     "delta_khz"),
    ("nbar = 0.3\neta_omega_khz = 1e4\n", "detuning", "eta_omega_khz"),
], ids=["detuning", "time", "eta_omega"])
def test_scan_rejects_oversized_fock_register(tmp_path, capsys, monkeypatch,
                                              lines, kind, key):
    # the first two grids need 18,441 levels, 5.4 GB per complex matrix; the
    # strong drive needs 25,077,502 levels on the default 4-24 kHz grid
    def refuse(dim):
        raise AssertionError(f"built a {dim}-level register")

    monkeypatch.setattr(gate, "_quadrature_eigh", refuse)
    cfg_path = tmp_path / "scan.cfg"
    cfg_path.write_text(lines)
    assert run_cli("scan", kind, "--config", cfg_path, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert key in err and "nbar" in err
    assert not list(tmp_path.glob("*.csv"))


def test_scan_range_crossing_zero_fails(tmp_path):
    # 9 points put one on zero; 8 points straddle it
    cfg_path = tmp_path / "scan.cfg"
    for points in (9, 8):
        cfg_path.write_text("scan_delta_min_khz = -4\nscan_delta_max_khz = 4\n"
                            f"scan_points = {points}\n")
        assert run_cli("scan", "detuning", "--config", cfg_path,
                       "--out", tmp_path) == 1
    assert not list(tmp_path.glob("*.csv"))


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run_cli("tomo", "--seed", "abc", "--out", tmp_path) == 1
    assert run_cli("scan", "time", "--seed", "1", "--out", tmp_path) == 1
    assert "usage" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# tomography command
# ---------------------------------------------------------------------------

def test_tomo_writes_all_documents(tmp_path):
    code = run_cli("tomo", "--state", "uu", "--seed", "3", "--out", tmp_path,
                   "--no-bootstrap", "--emit-intermediate")
    assert code == 0
    for name in ("tomo_uu_counts.csv", "tomo_uu_density.json",
                 "tomo_uu_measures.json", "tomo_uu_linear.json",
                 "tomo_uu.config.json"):
        assert (tmp_path / name).exists(), name
    density = json.loads((tmp_path / "tomo_uu_density.json").read_text())
    assert density["diagnostics"]["converged"] is True
    assert density["config"]["seed"] == 3
    rho = core.density_from_dict(density)
    assert core.validate_density(rho).ok
    measures_doc = json.loads((tmp_path / "tomo_uu_measures.json").read_text())
    assert measures_doc["f"] > 0.9


def test_tomo_outputs_are_reproducible(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli("tomo", "--state", "ud", "--seed", "11", "--out", out,
                       "--no-bootstrap") == 0
    for name in ("tomo_ud_counts.csv", "tomo_ud_density.json",
                 "tomo_ud_measures.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_tomo_bootstrap_report(tmp_path):
    code = run_cli("tomo", "--state", "uu", "--seed", "5", "--out", tmp_path,
                   "--resamples", "100")
    assert code == 0
    boot = json.loads((tmp_path / "tomo_uu_bootstrap.json").read_text())
    assert boot["valid"] is True
    assert boot["n_resamples"] == 100
    assert boot["n_failures"] == 0 and boot["failures"] == {}
    assert 0.0 <= boot["std_error"] <= 0.1


def test_noiseless_pipeline_reaches_high_fidelity():
    fids = []
    for seed in range(9):
        cfg = RunConfig(seed=seed)
        result = cli.run_tomography(cfg, "uu", with_bootstrap=False)
        fids.append(result.report.f)
    assert np.median(fids) >= 0.97


def test_noisy_pipeline_orders_even_above_odd():
    cfg = RunConfig(p_sc=0.3, kappa=0.27, f_prep=0.85,
                    det_fid_q1=0.97, det_fid_q2=0.97,
                    phi_e_rad=-1.1, phi_o_rad=0.43, seed=21)
    even = cli.run_tomography(cfg, "uu", with_bootstrap=False).report.f
    odd = cli.run_tomography(cfg, "ud", with_bootstrap=False).report.f
    assert even > odd


def test_prepared_state_noise_chain():
    cfg = RunConfig(p_sc=0.3, kappa=0.27, f_prep=0.85,
                    phi_e_rad=-1.1, phi_o_rad=0.43)
    rho_even, target_even = cli.prepared_state(cfg, "uu")
    assert measures.fidelity(rho_even, target_even) == pytest.approx(0.781,
                                                                     abs=1e-12)
    rho_odd, target_odd = cli.prepared_state(cfg, "du")
    expected = (1 - 0.3) * 0.85 + 0.3 * 0.27
    assert measures.fidelity(rho_odd, target_odd) == pytest.approx(expected,
                                                                   abs=1e-12)


# ---------------------------------------------------------------------------
# budget and analyze commands
# ---------------------------------------------------------------------------

def test_budget_command_documents(tmp_path, capsys):
    assert run_cli("budget", "--out", tmp_path) == 0
    doc = json.loads((tmp_path / "budget.json").read_text())
    cfg = RunConfig()
    # the Stark phase accrues over the gate time the drive sets
    phi_st = 2 * math.pi * cfg.dnu_st_khz * 1e3 * cfg.gate_params().tau_g
    assert doc["phi_st_rad"] == pytest.approx(phi_st, rel=1e-9)
    assert doc["p_sc"] == pytest.approx(
        phi_st * 2 * cfg.gamma_khz / cfg.omega_hf_khz, rel=1e-9)
    assert doc["predicted_infidelity"] == pytest.approx(0.73 * doc["p_sc"],
                                                        rel=1e-9)
    table = capsys.readouterr().out
    assert "beta" in table and "p_sc" in table


def test_budget_is_even_in_the_detuning():
    # tau_g = 2 pi m / |delta|: the sign of the detuning sets no gate time
    below = cli.budget_table(RunConfig(delta_khz=-12.8))[1]
    above = cli.budget_table(RunConfig(delta_khz=12.8))[1]
    assert below == above
    assert above["phi_st_rad"] == pytest.approx(
        75.0 * KHZ * 2 * math.pi / (12.8 * KHZ), rel=1e-12)


def test_budget_scales_with_raman_detuning(tmp_path):
    base = cli.budget_table(RunConfig(dnu_st_khz=None))[1]
    wide = cli.budget_table(RunConfig(dnu_st_khz=None, delta_raman_khz=2.0e9))[1]
    assert wide["p_sc"] == pytest.approx(base["p_sc"] / 10)
    assert wide["phi_st_rad"] == pytest.approx(base["phi_st_rad"] / 10)


def test_budget_rejects_zero_efficiency(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("epsilon = 0\n")
    assert run_cli("budget", "--config", cfg_path, "--out", tmp_path) == 1


def test_analyze_command_round_trip(tmp_path):
    rho = core.projector(gate.target_state("dd", phi_e=-1.1))
    path = tmp_path / "density.json"
    path.write_text(json.dumps(core.density_to_dict(rho)))
    assert run_cli("analyze", "--density", path, "--state", "dd",
                   "--out", tmp_path) == 0
    doc = json.loads((tmp_path / "measures.json").read_text())
    assert doc["f"] == pytest.approx(1.0, abs=1e-9)
    assert doc["phi_fit"] == pytest.approx(-1.1, abs=1e-9)


def test_analyze_rejects_unphysical_density(tmp_path):
    rho = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(core.density_to_dict(rho)))
    assert run_cli("analyze", "--density", path, "--out", tmp_path) == 2


@pytest.mark.parametrize("field, doc", [
    ("re", {"dim": 4, "im": np.zeros((4, 4)).tolist()}),
    ("re", {**core.density_to_dict(np.eye(4) / 4), "re": np.eye(2).tolist()}),
    ("im", {**core.density_to_dict(np.eye(4) / 4),
            "im": np.full((4, 4), np.nan).tolist()}),
], ids=["missing", "2x2", "nan"])
def test_analyze_rejects_malformed_density(tmp_path, capsys, field, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli("analyze", "--density", path, "--out", tmp_path) == 1
    assert repr(field) in capsys.readouterr().err
    assert not (tmp_path / "measures.json").exists()


def test_analyze_rejects_missing_file(tmp_path):
    assert run_cli("analyze", "--density", tmp_path / "none.json",
                   "--out", tmp_path) == 1
