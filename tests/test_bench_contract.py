"""The names the benchmark in `perfbench/` patches or reads must exist.

`perfbench/layers.py` spans module attributes and `perfbench/checks.py`
wraps some of them with output checks. A rename in `reachtrack` must fail
here, in the unit tests, rather than in a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, layers  # noqa: E402
from reachtrack import _fastkin, ik  # noqa: E402
from reachtrack.ik import IkParams  # noqa: E402


class _Recorder:
    """Stands in for the tracer: records what `layers.install` patches."""

    def __init__(self):
        self.names = []

    def patch(self, owner, attr, info=None, enter=None):
        self.names.append((owner, attr))


def test_traced_names_exist_and_are_callable():
    recorder = _Recorder()
    layers.install(recorder)
    assert recorder.names
    for owner, attr in recorder.names:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_checked_names_exist_and_are_callable():
    checker = checks.Checker(clock=None, op_timer=None)
    checker.install()
    try:
        names = [(owner, attr, fn) for owner, attr, fn in checker._patched]
    finally:
        checker.restore()
    assert names
    for owner, attr, fn in names:
        assert callable(fn) and getattr(owner, attr) is fn, f"{owner.__name__}.{attr}"


def test_environment_stamp_names():
    assert _fastkin.HAVE_NUMBA is False


def test_dls_burst_is_a_scalar_triple(chain):
    params = IkParams()
    lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
    result = ik.dls_burst(chain, chain.home, np.eye(3), np.array([0.4, 0.1, 0.6]), 5, lo, hi,
                          pos_tol=params.pos_tolerance, rot_tol=params.rot_tolerance,
                          damping=params.damping, clamp_pos=params.error_clamp_pos,
                          clamp_rot=params.error_clamp_rot)
    q, converged, used = result
    assert isinstance(q, np.ndarray) and q.shape == (7,)
    assert type(converged) is bool and type(used) is int
