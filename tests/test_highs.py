import os
import subprocess
import sys
import types

import numpy as np
import pytest

import odmts
from odmts import highs


def pair_model():
    """min -x0 - x1 over x0 + x1 <= 1.5, both in [0, 1]: the LP optimum
    is fractional, the integral one opens either column."""
    return highs.model(
        np.array([-1.0, -1.0]), np.ones(2), np.array([-np.inf]), np.array([1.5]),
        np.array([0, 0]), np.array([0, 1]), np.array([1.0, 1.0]),
    )


class TestBranch:
    def test_root_is_fractional_and_branching_settles_it(self):
        log = []
        value, at_one = highs.branch(pair_model(), np.zeros(2), np.ones(2), np.inf, False, log)
        assert log[0][0] == pytest.approx(-1.5)
        assert value == pytest.approx(-1.0)
        assert at_one.sum() == 1
        assert len(log) >= 3

    def test_cap_and_bounds(self):
        log = []
        assert highs.branch(pair_model(), np.zeros(2), np.ones(2), -1.2, True, log) is None
        value, at_one = highs.branch(pair_model(), np.array([0.0, 1.0]), np.ones(2), -0.5,
                                     True, log)
        assert value == pytest.approx(-1.0) and at_one.tolist() == [False, True]

    def test_infeasible_bounds(self):
        log = []
        assert highs.solve(pair_model(), np.ones(2), np.ones(2), log) is None
        assert log == [None]


class TestCore:
    def test_missing_file(self, tmp_path, monkeypatch):
        monkeypatch.delitem(sys.modules, highs.MODULE, raising=False)
        with pytest.raises(RuntimeError, match="not found at " + str(tmp_path)) as err:
            highs.core(str(tmp_path / "_core*.so"))
        assert "\n" not in str(err.value)

    def test_missing_api(self, monkeypatch):
        fake = types.ModuleType(highs.MODULE)
        fake.__file__ = "/nowhere/_core.so"
        monkeypatch.setitem(sys.modules, highs.MODULE, fake)
        with pytest.raises(RuntimeError, match="/nowhere/_core.so lacks HighsLp") as err:
            highs.core()
        assert "\n" not in str(err.value)

    def test_import_loads_no_solver(self):
        code = ("import sys, odmts; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in "
                "('scipy', 'networkx')))")
        src = os.path.dirname(os.path.dirname(odmts.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"
