import os
import subprocess
import sys
import types

import numpy as np
import pytest

import odmts
from odmts import highs


def pair_model(cost=(-1.0, -1.0), weight=(1.0, 1.0), rhs=1.5):
    """min cost.x over weight.x <= rhs, both in [0, 1]; by default the LP
    optimum is fractional and the integral one opens either column."""
    return highs.model(
        np.array(cost), np.ones(2), np.array([-np.inf]), np.array([rhs]),
        np.array([0, 0]), np.array([0, 1]), np.array(weight),
    )


def chain_model(n=150):
    """min sum_i (i + 1) x_i over x_i >= 1, each x_i in [0, 10]: from the
    slack basis the dual simplex raises its bound row by row, taking n
    iterations to the optimum n (n + 1) / 2."""
    return highs.model(
        np.arange(1.0, n + 1), np.full(n, 10.0), np.ones(n), np.full(n, np.inf),
        np.arange(n), np.arange(n), np.ones(n),
    )


class TestBranch:
    def test_root_is_fractional_and_branching_settles_it(self):
        # the root (1, 0.5) branches on x1; the down child's leaf (1, 0)
        # comes first, and the up child's leaf (0, 1) ties it
        log = []
        value, at_one, lo, up, other = highs.branch(pair_model(), np.zeros(2), np.ones(2),
                                                    np.inf, log)
        assert log[0][0] == pytest.approx(-1.5)
        assert value == pytest.approx(-1.0) and at_one.tolist() == [True, False]
        assert lo.tolist() == [0.0, 0.0] and up.tolist() == [1.0, 0.0]
        assert other == pytest.approx(-1.0)
        assert len(log) == 5

    def test_better_leaf_replaces_the_first(self):
        # min -3 x0 - 2 x1 over 2 x0 + x1 <= 2.5: the down child x0 = 0
        # gives the leaf (0, 1) at -2 first, the up child the leaf (1, 0)
        # at -3, which wins and leaves -2 as the other leaf
        solver = pair_model((-3.0, -2.0), (2.0, 1.0), 2.5)
        value, at_one, lo, up, other = highs.branch(solver, np.zeros(2), np.ones(2),
                                                    np.inf, [])
        assert value == -3.0 and at_one.tolist() == [True, False] and other == -2.0
        assert lo.tolist() == [1.0, 0.0] and up.tolist() == [1.0, 0.0]

    def test_node_within_the_tie_cap_is_searched(self, monkeypatch):
        # min -2 x0 - 1.5 x1: the leaf (1, 0) at -2 comes first; the up
        # child's LP value -2.5 is searched on, and its leaf (0, 1) at
        # -1.5 is recorded when it lies within the tie cap
        solver = pair_model((-2.0, -1.5))
        monkeypatch.setattr(highs, "TIE", 0.6)
        *_, other = highs.branch(solver, np.zeros(2), np.ones(2), np.inf, [])
        assert other == -1.5
        monkeypatch.setattr(highs, "TIE", 0.2)
        *_, other = highs.branch(solver, np.zeros(2), np.ones(2), np.inf, [])
        assert other == np.inf

    def test_cap_and_bounds(self):
        log = []
        assert highs.branch(pair_model(), np.zeros(2), np.ones(2), -1.2, log) is None
        value, at_one, *_ = highs.branch(pair_model(), np.array([0.0, 1.0]), np.ones(2), -0.5,
                                         log)
        assert value == pytest.approx(-1.0) and at_one.tolist() == [False, True]

    def test_infeasible_bounds(self):
        log = []
        assert highs.solve(pair_model(), np.ones(2), np.ones(2), np.inf, log) is None
        assert log == [None]


class TestCutoff:
    def test_probe_above_cap_stops_early(self):
        solver, log = chain_model(), []
        assert highs.solve(solver, np.zeros(150), np.full(150, 10.0), 100.0, log) is None
        assert log == [None]
        assert solver.getModelStatus() == highs.core().HighsModelStatus.kObjectiveBound
        assert solver.getInfo().simplex_iteration_count < 150

    @pytest.mark.parametrize("below", [0.0, 0.5 * highs.DUAL_SLACK])
    def test_value_at_or_just_above_cap_is_solved(self, below):
        # the cutoff has slack: a value at the cap, or within the slack
        # above it, is solved in full, and branching drops the latter
        value = 150 * 151 / 2
        solver, log = chain_model(), []
        res = highs.solve(solver, np.zeros(150), np.full(150, 10.0), value - below, log)
        assert res[0] == pytest.approx(value, rel=1e-12)
        found = highs.branch(chain_model(), np.zeros(150), np.full(150, 10.0), value - below, [])
        assert (found is None) == (below > 0)

    def test_cap_resets_on_every_solve(self):
        solver = chain_model()
        assert highs.solve(solver, np.zeros(150), np.full(150, 10.0), 100.0, []) is None
        res = highs.solve(solver, np.zeros(150), np.full(150, 10.0), np.inf, [])
        assert res[0] == pytest.approx(150 * 151 / 2, rel=1e-12)


class Overridden:
    """A solver with some of its methods replaced by ``methods``."""

    def __init__(self, solver, **methods):
        self.solver = solver
        self.__dict__.update(methods)

    def __getattr__(self, name):
        return getattr(self.solver, name)


class TestOptions:
    def test_dual_pricing_is_devex(self):
        status, value = pair_model().getOptionValue("simplex_dual_edge_weight_strategy")
        assert status == highs.core().HighsStatus.kOk and value == 1

    def test_unknown_option_raises(self, monkeypatch):
        monkeypatch.setattr(highs, "OPTIONS", highs.OPTIONS + (("no_such_option", 1),))
        with pytest.raises(highs.SolveError, match="^HiGHS rejected option no_such_option = 1$"):
            pair_model()

    def test_rejected_value_raises(self, monkeypatch):
        # a known option with a value outside its range
        monkeypatch.setattr(highs, "OPTIONS", (("simplex_dual_edge_weight_strategy", 9),))
        with pytest.raises(highs.SolveError, match="simplex_dual_edge_weight_strategy = 9$"):
            pair_model()

    def test_rejected_objective_bound_raises(self):
        solver = pair_model()

        def set_option(option, value):
            if option == "objective_bound":
                return highs.core().HighsStatus.kError
            return solver.setOptionValue(option, value)

        with pytest.raises(highs.SolveError, match="^HiGHS rejected option objective_bound = "):
            highs.solve(Overridden(solver, setOptionValue=set_option), np.zeros(2), np.ones(2),
                        np.inf, [])


class TestFailures:
    def test_refused_append_raises(self):
        solver = Overridden(pair_model(), addRows=lambda *args: highs.core().HighsStatus.kError)
        with pytest.raises(highs.SolveError, match="^HiGHS refused 1 columns and 1 rows$"):
            highs.grow(solver, np.ones(1), np.ones(1), np.zeros(1), np.ones(1),
                       np.zeros(1, dtype=int), np.full(1, 2), np.ones(1))

    def test_status_other_than_optimal_raises(self):
        limit = highs.core().HighsModelStatus.kIterationLimit
        solver = Overridden(pair_model(), getModelStatus=lambda: limit)
        with pytest.raises(highs.SolveError, match="^HiGHS ended with status .*[Ii]teration"):
            highs.solve(solver, np.zeros(2), np.ones(2), np.inf, [])


class TestCore:
    def test_missing_file(self, tmp_path, monkeypatch):
        monkeypatch.delitem(sys.modules, highs.MODULE, raising=False)
        with pytest.raises(highs.SolveError, match="not found at " + str(tmp_path)) as err:
            highs.core(str(tmp_path / "_core*.so"))
        assert "\n" not in str(err.value)

    def test_file_that_fails_to_load(self, tmp_path, monkeypatch):
        monkeypatch.delitem(sys.modules, highs.MODULE, raising=False)
        (tmp_path / "_core.so").write_bytes(b"not a shared object")
        with pytest.raises(highs.SolveError, match="_core.so failed to load: ") as err:
            highs.core(str(tmp_path / "_core*.so"))
        assert "\n" not in str(err.value)
        assert highs.MODULE not in sys.modules

    def test_missing_api(self, monkeypatch):
        # a core with every name of the API but one, as an older scipy
        # without the calls that grow a model would be
        fake = types.ModuleType(highs.MODULE)
        fake.__file__ = "/nowhere/_core.so"
        for name in highs.API:
            if name == "_Highs.addRows":
                continue
            *path, last = name.split(".")
            owner = fake
            for part in path:
                if not hasattr(owner, part):
                    setattr(owner, part, types.SimpleNamespace())
                owner = getattr(owner, part)
            setattr(owner, last, object())
        monkeypatch.setitem(sys.modules, highs.MODULE, fake)
        with pytest.raises(highs.SolveError, match="/nowhere/_core.so lacks _Highs.addRows$") as err:
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
