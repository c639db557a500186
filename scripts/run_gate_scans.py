#!/usr/bin/env python3
"""Produce the standard gate-characterization scans as plot-ready CSVs.

Writes a detuning scan (brightness vs sideband detuning at fixed pulse
time, warm mode) and a time scan (brightness and parity vs pulse time at
the loop-closure detuning) into the output directory, each with a JSON
sidecar of the exact parameters.
"""

import argparse
from pathlib import Path

from mstomo import cli
from mstomo.config import RunConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out/scans"))
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    detuning_cfg = RunConfig(eta_omega_khz=6.3, nbar=0.3, scan_t_us=75.0,
                             scan_delta_min_khz=5.0, scan_delta_max_khz=22.0,
                             scan_points=69)
    time_cfg = RunConfig(eta_omega_khz=6.4, scan_t_min_us=0.0,
                         scan_t_max_us=240.0, scan_points=121)

    for kind, cfg in (("detuning", detuning_cfg), ("time", time_cfg)):
        rows = cli.run_scan(cfg, kind)
        path = args.out / f"scan_{kind}.csv"
        cli.write_scan_csv(path, rows)
        cli.write_json(args.out / f"scan_{kind}.config.json", cfg.to_dict())
        print(f"wrote {path} ({len(rows)} points)")

    closure = time_cfg.gate_params().tau_g * 1e6
    print(f"loop closures expected every {closure:.3f} us")


if __name__ == "__main__":
    main()
