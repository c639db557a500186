"""The benchmark's calls into the CLI still parse and run.

``perfbench/workloads.py`` builds each op as argv lists for ``cli.main`` and
reads ``RunConfig`` fields in its checks, so a removed flag or field breaks
the benchmark. This test imports that module without writing into its
directory, parses the argv of each workload's warm-up op and first round
of ops, and runs the gate-scan ops with their own checks.
"""

import importlib.util
import sys
from pathlib import Path

from mstomo import cli

ROOT = Path(__file__).resolve().parents[1]


def _workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_benchmark_ops_parse_and_gate_scan_runs(tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    monkeypatch.chdir(ROOT)  # workload paths are relative to the checkout root
    parser = cli._build_parser()
    parsed = 0
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(0)
        base = tmp_path / name
        ops = {base / "warmup": workload.warmup(base / "warmup")}
        ops.update((base / str(i), workload.op(i, base / str(i)))
                   for i in range(workload.ROUND))
        for out, op in ops.items():
            for argv in op.commands:
                parser.parse_args(argv)
                parsed += 1
            if name == "gate-scan":
                assert [cli.main(argv) for argv in op.commands] == [0]
                op.check(out)
    assert parsed == 37
