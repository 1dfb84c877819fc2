"""Self-test of the speed probe's scaling (``python3 -m pytest perfbench/tests -q``)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from probe import NOMINAL_S, op_scales, probe, setup_scale  # noqa: E402


def test_nominal_speed_leaves_times_unscaled():
    assert op_scales([NOMINAL_S] * 4) == pytest.approx([1.0] * 3)
    assert setup_scale([NOMINAL_S] * 5) == pytest.approx(1.0)


def test_each_op_is_scaled_by_the_two_probes_around_it():
    # the machine runs at half speed around op 0, at nominal speed around op 1
    scales = op_scales([2 * NOMINAL_S, 2 * NOMINAL_S, NOMINAL_S])
    assert scales == pytest.approx([0.5, 2.0 / 3.0])


def test_setup_scale_ignores_one_stalled_probe():
    assert setup_scale([NOMINAL_S] * 4 + [10 * NOMINAL_S]) == pytest.approx(1.0)


def test_probe_times_a_positive_duration():
    assert probe() > 0.0
