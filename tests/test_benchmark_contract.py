"""The benchmark's calls into the CLI still parse, run and trace.

``perfbench/workloads.py`` builds each op as argv lists for ``cli.main`` and
reads ``RunConfig`` fields in its checks, so a removed flag or field breaks
the benchmark. ``perfbench/tracing.py`` wraps mstomo's public functions and
reads some of their results, and ``perfbench/layers.py`` requires each
workload's spans, so a renamed function or result field fails a traced run.
These tests import those modules without writing into their directory,
parse the argv of each workload's warm-up op and first round of ops, run
the gate-scan ops with their own checks, and run one op of each gated
workload, and one bootstrap, under the benchmark's own tracer.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from mstomo import cli, sampling, tomography

ROOT = Path(__file__).resolve().parents[1]


def _load(monkeypatch, stem, name=None):
    """Import ``perfbench/<stem>.py`` as ``name`` without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        name or stem, ROOT / "perfbench" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for dataclasses, imports
    spec.loader.exec_module(module)
    return module


def test_benchmark_ops_parse_and_gate_scan_runs(tmp_path, monkeypatch):
    workloads = _load(monkeypatch, "workloads", "perfbench_workloads")
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


def _traced(tracer, run):
    """Run ``run()`` as one traced op; return its record as layers reads it."""
    record = SimpleNamespace(index=0, span=len(tracer.spans))
    with contextlib.redirect_stdout(io.StringIO()), tracer.recording("op"):
        start = perf_counter()
        result = run()
        record.wall_s = perf_counter() - start
    return record, result


def test_traced_ops_keep_the_span_contract(tmp_path, monkeypatch):
    workloads = _load(monkeypatch, "workloads", "perfbench_workloads")
    tracing = _load(monkeypatch, "tracing")
    layers = _load(monkeypatch, "layers")  # imports tracing by that name
    monkeypatch.chdir(ROOT)
    # each of tomo-sweep's 8 fits starts from its own linear inversion
    expected = {"tomo-sweep": {"tomography.mle_fit.calls": 8,
                               "tomography.linear_inversion.calls": 16},
                "gate-scan": {"cli.run_scan.points": 69,
                              "gate.displacement_operator.calls": 69}}
    for name, counts in expected.items():
        workload = workloads.WORKLOADS[name](0)
        op = workload.op(0, tmp_path / name)
        tracer = tracing.Tracer()
        record, codes = _traced(tracer, lambda: [cli.main(a) for a in op.commands])
        assert not any(codes)
        op.check(tmp_path / name)
        assert layers.span_problems(tracer.spans, [record], workload.SPANS) == []
        metrics = layers.per_layer(tracer.spans, [record], [record])
        assert {key: metrics[key][0] for key in counts} == counts
        assert 0 < metrics["trace.span_coverage"][0] <= 1


def test_traced_bootstrap_reports_its_failures(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    layers = _load(monkeypatch, "layers")
    counts = np.array([100.0, 100.0, 0.0, 0.0])
    records = [tomography.CountsRecord(("z", "z"), counts, 200.0)]

    def statistic(resampled):  # fails on about half the resamples
        if resampled[0].counts[0] % 2:
            raise ValueError("odd count")
        return resampled[0].frequencies[0]

    tracer = tracing.Tracer()
    record, report = _traced(tracer, lambda: sampling.bootstrap(
        records, 100, statistic, seed=7))
    [span] = [s for s in tracer.spans if s[tracing.NAME] == "sampling.bootstrap"]
    assert span[tracing.ATTRS] == {"resamples": 100, "failures": report.n_failures}
    assert 10 < report.n_failures < 90
    metrics = layers.per_layer(tracer.spans, [record], [record])
    assert metrics["sampling.bootstrap.resamples"][0] == 100
    assert metrics["sampling.bootstrap.useful_ratio"][0] == (100 - report.n_failures) / 100
