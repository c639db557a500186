"""Metamorphic checks: the estimators keep the symmetries of the measurement scheme.

Relabeling the data of the nine-setting scheme by one of its symmetries
must relabel the estimate by the matching unitary, with no reference
solver needed:

* qubit swap: settings (a, b) become (b, a), outcomes ud and du trade
  places and the per-ion confusions c1 and c2 trade places; the estimate
  becomes SWAP rho SWAP;
* X x X outcome flip: on each qubit the y and z outcomes trade up and
  down; the estimate becomes (X x X) rho (X x X). It commutes with the
  detection crossover only when sigma_x c sigma_x = c, as for the
  symmetric per-ion crossover of noisy.cfg.

Linear inversion is covariant to rounding. The Nelder-Mead fit follows the
order of its triangular-factor parameters, which neither relabeling keeps,
so it is covariant only to its tolerance: up to 5.4e-8 in trace distance
over ten noisy.cfg fits.
"""

import functools
from pathlib import Path

import numpy as np
import pytest

from mstomo import cli
from mstomo import tomography as tomo
from mstomo.config import load_config

from conftest import trace_distance

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

_SWAP = np.eye(4)[[0, 2, 1, 3]]  # on the (uu, ud, du, dd) basis
_XX = np.eye(4)[::-1]

DETECTION = tomo.DetectionModel.symmetric(0.97, 0.95)
TRUTH, _ = cli.prepared_state(load_config(CONFIGS / "noisy.cfg"), "ud")
RECORDS = tomo.simulate_counts(TRUTH, tomo.SETTINGS, 200, DETECTION, seed=3)


def swap_qubits(records, detection):
    swapped = [tomo.CountsRecord(rec.setting[::-1], rec.counts[[0, 2, 1, 3]], rec.shots)
               for rec in records]
    return swapped, tomo.DetectionModel(detection.c2, detection.c1)


def flip_xx(records, detection):
    for c in (detection.c1, detection.c2):
        assert np.array_equal(c[::-1, ::-1], c)  # the flip commutes with c
    flipped = []
    for rec in records:
        # outcome k = 2 bit1 + bit2, with bit 1 for down
        mask = 2 * (rec.setting[0] in "yz") + (rec.setting[1] in "yz")
        flipped.append(tomo.CountsRecord(
            rec.setting, rec.counts[[k ^ mask for k in range(4)]], rec.shots))
    return flipped, detection


TRANSFORMS = {"swap": (swap_qubits, _SWAP), "xx": (flip_xx, _XX)}
# estimator -> (records, detection -> rho; largest trace distance allowed)
ESTIMATORS = {
    "linear_inversion": (lambda r, d: tomo.linear_inversion(r, d).rho, 1e-14),
    "mle_fit": (lambda r, d: tomo.mle_fit(r, d).rho, 1e-7),
}


@functools.cache
def original(estimator):
    """The estimate from the untransformed records, fitted once per module."""
    return ESTIMATORS[estimator][0](RECORDS, DETECTION)


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_estimate_follows_the_relabeling(estimator, transform):
    estimate, bound = ESTIMATORS[estimator]
    relabel, u = TRANSFORMS[transform]
    rho = original(estimator)
    expected = u @ rho @ u
    assert trace_distance(expected, rho) > 0.05  # the relabeling moves the state
    records, detection = relabel(RECORDS, DETECTION)
    assert trace_distance(estimate(records, detection), expected) < bound
