"""Closed-loop benchmark of the mstomo command-line pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/`` and ``configs/`` next to
``perfbench/``); nothing needs installing. One client issues one op at a
time, with no think time, until ``--seconds`` have passed; the op in flight
then completes, so every run has at least one op. Each op's outputs are
checked and hashed (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every op
twice, untraced and then traced, and prints the per-layer metrics plus the
tracing overhead. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it list
every metric by name and unit, including those that are not gated. A full
report (metadata, per-op records) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import layers
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")  # relative to ROOT, the working directory
SETUP_STARTS = 9  # fresh interpreters timed per run for setup_s


@dataclass
class OpRecord:
    index: int
    inputs: dict
    wall_s: float = 0.0
    ok: bool = False
    error: str | None = None
    digests: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    span: int | None = None  # index of the op span in a traced run


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def run_op(workload, index: int, digests: DigestStore, tracer=None,
           warmup: bool = False) -> OpRecord:
    """Run op ``index``, or the workload's warm-up op, in a fresh directory,
    then check and hash its outputs."""
    from mstomo import cli
    from workloads import CheckFailed

    out = OUT / "work" / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    op = workload.warmup(out) if warmup else workload.op(index, out)
    rec = OpRecord(index, op.inputs)
    try:
        if tracer is not None:
            rec.span = len(tracer.spans)
        with (contextlib.redirect_stdout(io.StringIO()),
              tracer.recording("op") if tracer else contextlib.nullcontext()):
            start = perf_counter()
            try:
                codes = [cli.main(argv) for argv in op.commands]
            finally:
                rec.wall_s = perf_counter() - start
        if any(codes):
            raise CheckFailed(f"exit codes {codes}")
        rec.quality = op.check(out)
        rec.digests = {str(p.relative_to(out)):
                       hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted(out.rglob("*")) if p.is_file()}
        previous = digests.check(op.commands, rec.digests)
        if previous is not None:
            changed = sorted(k for k in rec.digests if rec.digests[k] != previous.get(k))
            raise CheckFailed(f"outputs differ from an earlier run of the same op: {changed}")
        rec.ok = True
    except Exception as exc:  # the loop keeps going; the failure is counted
        rec.error = "".join(traceback.format_exception_only(exc)).strip()
        print(f"op {index} failed: {rec.error}", file=sys.stderr)
    return rec


def code_fingerprint() -> str:
    """SHA-256 of what decides an op's output bytes: the ``src/`` and
    ``configs/`` files and the Python, numpy and scipy versions."""
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "configs").glob("*.cfg")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    digest.update(f"{platform.python_version()} {np.__version__} "
                  f"{scipy.__version__}".encode())
    return digest.hexdigest()


class DigestStore:
    """SHA-256 digests of each op's outputs, kept across runs in one checkout.

    Keyed by the op's exact CLI arguments, so a later run with the same
    seed compares its outputs byte for byte with the first run's. The file
    is named after the code fingerprint, so runs of different code, or on
    other numpy or scipy versions, are never compared.
    """

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def check(self, commands, digests: dict) -> dict | None:
        """Record ``digests``; return the earlier digests if they differ."""
        key = json.dumps(commands)
        previous = self.known.setdefault(key, digests)
        return previous if previous != digests else None

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=0, sort_keys=True) + "\n")
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def measure_setup(config: str) -> list[float]:
    """Wall time of fresh interpreters that import mstomo.cli and load ``config``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = f"import mstomo.cli; mstomo.cli.load_config({config!r})"
    times = []
    for _ in range(SETUP_STARTS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def end_to_end(records: list[OpRecord], elapsed: float,
               setup: list[float]) -> tuple[dict, dict]:
    """(gated metrics, reported-only metrics) of an untraced run."""
    walls = [r.wall_s for r in records]
    gated = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "throughput_ops_per_s": (sum(r.ok for r in records) / elapsed, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    failed = sum(not r.ok for r in records)
    extra = {"error_rate": (failed / len(records), "1")}
    op_tail = layers.tail(walls)
    if op_tail is not None:
        value, pct, n = op_tail
        extra[f"op_tail_s(p{pct:.1f},n={n})"] = (value, "s")
    fid = [r.quality["fidelity_abs_err"] for r in records
           if "fidelity_abs_err" in r.quality]
    if fid:
        extra["fidelity_abs_err"] = (statistics.median(fid), "1")
    scan = [r.quality["scan_max_abs_err"] for r in records
            if "scan_max_abs_err" in r.quality]
    if scan:
        extra["scan_max_abs_err"] = (max(scan), "1")
    return gated, extra


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def _blas() -> dict:
    """BLAS name as numpy was built with it; threads as the environment sets them."""
    import numpy as np

    try:  # mode="dicts" needs numpy >= 1.26
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:
        name = None
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    return {"name": name, "threads": threads or "default"}


def _git_commit() -> str | None:
    try:
        # the ceiling keeps git from taking a repository above the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def metadata(args, fingerprint: str) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": _blas(), "git_commit": _git_commit(),
        "code_fingerprint": fingerprint,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def closed_loop(seconds: float, round_size: int, step) -> float:
    """Call ``step()`` back to back until ``seconds`` pass and a round is
    complete; return the elapsed time."""
    start = perf_counter()
    done = 0
    while done == 0 or done % round_size or perf_counter() - start < seconds:
        step()
        done += 1
    return perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    for needed in (SRC / "mstomo" / "cli.py", ROOT / "configs" / "noisy.cfg",
                   ROOT / "configs" / "ideal.cfg"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a source checkout",
                  file=sys.stderr)
            return 2

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import mstomo
    from workloads import NOISY, WORKLOADS

    if Path(mstomo.__file__).resolve().parent != SRC / "mstomo":
        print(f"error: imported mstomo from {mstomo.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    fingerprint = code_fingerprint()
    digests = DigestStore(OUT / f"digests-{workload.name}-{fingerprint[:16]}.json")
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    records: list[OpRecord] = []
    # lazy imports and first-call set-up land in an untimed op
    warm = run_op(workload, -1, digests, warmup=True)
    if args.trace:
        tracer = Tracer()
        plain: list[OpRecord] = []

        def step():
            index = len(records)
            plain.append(run_op(workload, index, digests))
            records.append(run_op(workload, index, digests, tracer))

        closed_loop(args.seconds, workload.ROUND, step)
        tracer.write(OUT / f"spans-{stem}.json")
        metrics = layers.per_layer(tracer.spans, records, plain)
        problems = layers.span_problems(tracer.spans, records, workload.SPANS)
        for problem in problems:
            print(f"span check: {problem}", file=sys.stderr)
        spans_ok = not problems
        shown, ops = metrics, [warm] + plain + records
    else:
        setup = measure_setup(NOISY)

        def step():
            records.append(run_op(workload, len(records), digests))

        elapsed = closed_loop(args.seconds, workload.ROUND, step)
        metrics, extra = end_to_end(records, elapsed, setup)
        shown, ops = {**metrics, **extra}, [warm] + records
        spans_ok = True
    digests.save()

    failed = sum(not r.ok for r in ops)
    result = {
        "correct": failed == 0 and spans_ok,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report = {"metadata": metadata(args, fingerprint), "result": result,
              "shown": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
              "ops": [vars(r) for r in ops]}
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(json.dumps({"metadata": report["metadata"]}, sort_keys=True))
    for name, (value, unit) in shown.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
