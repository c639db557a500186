"""Deterministic randomness, multinomial shot noise and bootstrap errors.

All randomness flows through numpy's PCG64 generator with explicit seeding;
there is no global generator state. Derived streams use ``SeedSequence``
spawn keys, so results are identical whether consumers run sequentially or
in parallel.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import ReconstructionError

# what a resample's statistic may raise on unlucky data; anything else is a bug
_RESAMPLE_FAILURES = (ValueError, np.linalg.LinAlgError, ReconstructionError)


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def substreams(seed, n: int) -> list[np.random.Generator]:
    """n independent generators derived from one seed (int or SeedSequence)."""
    return [np.random.default_rng(child) for child in _seed_sequence(seed).spawn(n)]


def multinomial(probabilities, n: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial draw with validation of the probability vector."""
    p = np.asarray(probabilities, dtype=float)
    if (p < -1e-12).any():
        raise ValueError(f"negative probability in {p}")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    p = np.clip(p, 0.0, None)
    return rng.multinomial(n, p / p.sum())


@dataclass(frozen=True)
class BootstrapReport:
    """Summary of a resampled statistic distribution."""

    name: str
    estimate: float
    n_resamples: int
    std_error: float
    ci_low: float
    ci_high: float
    n_failures: int = 0
    valid: bool = True
    samples: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "estimate": self.estimate,
            "n_resamples": self.n_resamples,
            "std_error": self.std_error,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "n_failures": self.n_failures,
            "valid": self.valid,
        }
        if self.samples is not None:
            doc["samples"] = list(self.samples)
        return doc


def bootstrap(records, n_resamples: int, statistic, seed, name: str = "statistic",
              keep_samples: bool = False) -> BootstrapReport:
    """Resample measurement records with replacement and summarize a statistic.

    Resampling is stratified: each record's ``shots`` outcomes are redrawn
    with replacement from that record's empirical outcome distribution, so
    the per-setting structure is preserved. ``statistic`` maps a list of
    records to a float; resamples where it raises ``ValueError``,
    ``LinAlgError`` or ``ReconstructionError`` are counted and excluded, and
    more than 5% failures invalidates the report. Any other exception
    propagates. Fewer than 2 successful resamples raise ``ValueError`` with
    the failures counted by exception type.
    """
    if n_resamples < 100:
        raise ValueError("need at least 100 resamples")
    records = list(records)
    estimate = float(statistic(records))

    values = []
    failures = Counter()
    for rng in substreams(seed, n_resamples):
        resampled = [
            dataclasses.replace(
                rec, counts=multinomial(rec.frequencies, int(rec.shots), rng))
            for rec in records
        ]
        try:
            values.append(float(statistic(resampled)))
        except _RESAMPLE_FAILURES as exc:
            failures[type(exc).__name__] += 1
    if len(values) < 2:
        counts = ", ".join(f"{n} {kind}" for kind, n in sorted(failures.items()))
        raise ValueError(f"only {len(values)} of {n_resamples} bootstrap "
                         f"resamples succeeded; failures: {counts}")
    values = np.array(values)
    n_failures = failures.total()

    ci_low, ci_high = np.percentile(values, [2.5, 97.5])
    return BootstrapReport(
        name=name,
        estimate=estimate,
        n_resamples=n_resamples,
        std_error=float(np.std(values, ddof=1)),
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        n_failures=n_failures,
        valid=n_failures <= 0.05 * n_resamples,
        samples=tuple(float(v) for v in values) if keep_samples else None,
    )
