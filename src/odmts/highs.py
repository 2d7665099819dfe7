"""Linear programs on HiGHS's compiled core, with depth-first branching.

The core ships inside scipy as a private extension module. It is loaded
by file location on first use, because ``import scipy.optimize`` loads
some 40 MB beside it, and it is registered under scipy's own module
name, so a later scipy import reuses it (the file cannot load twice).
Models run single-threaded, without presolve and without output, and
the dual simplex prices with Devex weights: the default steepest-edge
weights are paid for again on every warm re-solve, which costs more
than the few extra iterations Devex takes. A model is built by
appending columns and rows to an empty solver and can keep growing;
after a bound change or an append, the next solve starts warm from the
last basis. A solve given a cap stops in the dual simplex as soon as its
dual bound proves the value above the cap. Every failure of the core
raises a one-line ``SolveError``.
"""

from __future__ import annotations

import functools
import glob
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

MODULE = "scipy.optimize._highspy._core"
# The core names called here and by ``dfd.FlowLP`` (getNumCol, getNumRow); ``core`` checks each.
API = (
    "HighsStatus", "HighsModelStatus.kObjectiveBound", "_Highs.setOptionValue", "_Highs.addCols",
    "_Highs.addRows", "_Highs.changeColsBounds", "_Highs.changeRowBounds", "_Highs.changeCoeff",
    "_Highs.getNumCol", "_Highs.getNumRow", "_Highs.run", "_Highs.getModelStatus",
    "_Highs.getInfo", "_Highs.getSolution", "_Highs.modelStatusToString",
)
# Options set on every new solver; 1 is Devex dual pricing.
OPTIONS = (
    ("output_flag", False), ("threads", 1), ("presolve", "off"),
    ("simplex_dual_edge_weight_strategy", 1),
)
# Integrality tolerance, above HiGHS's primal feasibility tolerance.
INT_TOL = 1e-6
# Absolute slack on a bound read from the dual simplex, for its dual
# feasibility tolerance (1e-7 per reduced cost).
DUAL_SLACK = 1e-6


# The core module that last passed the API check.
_checked = None


class SolveError(RuntimeError):
    """HiGHS failed: its core is missing, fails to load or lacks an ``API``
    name, it refused an option or an append, or a solve was not optimal."""


def core(pattern=None):
    """The core module from the installed scipy; a missing file or API
    raises a one-line ``SolveError`` naming the path."""
    global _checked
    module = sys.modules.get(MODULE)
    if module is not None and module is _checked:
        return module
    if module is None:
        if pattern is None:
            spec = importlib.util.find_spec("scipy")
            base = spec.submodule_search_locations[0] if spec else "scipy"
            pattern = os.path.join(base, "optimize", "_highspy", "_core*.so")
        found = sorted(glob.glob(pattern))
        if not found:
            raise SolveError(f"HiGHS core not found at {pattern}")
        loader = importlib.machinery.ExtensionFileLoader(MODULE, found[0])
        core_spec = importlib.util.spec_from_loader(MODULE, loader)
        try:
            module = importlib.util.module_from_spec(core_spec)  # opens the shared object
            loader.exec_module(module)
        except ImportError as e:
            raise SolveError(f"HiGHS core at {found[0]} failed to load: {e}") from None
        sys.modules[MODULE] = module
    missing = [name for name in API if functools.reduce(
        lambda obj, part: getattr(obj, part, None), name.split("."), module) is None]
    if missing:
        where = getattr(module, "__file__", MODULE)
        raise SolveError(f"HiGHS core at {where} lacks {', '.join(missing)}")
    _checked = module
    return module


def model(cost, upper, row_lower, row_upper, rows, cols, vals):
    """A solver holding min cost.x over row_lower <= A x <= row_upper and
    0 <= x <= upper, with A given by its (rows, cols, vals) entries."""
    highs = core()._Highs()
    for option, value in OPTIONS:
        _set(highs, option, value)
    grow(highs, cost, upper, row_lower, row_upper, rows, cols, vals)
    return highs


def _set(highs, option, value):
    if highs.setOptionValue(option, value) != core().HighsStatus.kOk:
        raise SolveError(f"HiGHS rejected option {option} = {value!r}")


def grow(highs, cost, upper, row_lower, row_upper, rows, cols, vals):
    """Append len(cost) columns, each in [0, upper] at its cost, then
    len(row_lower) rows bounded by (row_lower, row_upper). The (rows,
    cols, vals) entries number the rows from the first appended one and
    the columns from the solver's first; the new columns have no entries
    in the old rows."""
    hc = core()
    ncol, nrow = len(cost), len(row_lower)
    by_row = np.argsort(rows, kind="stable")
    start = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=nrow))[:-1]])
    if hc.HighsStatus.kError in (
        highs.addCols(ncol, cost, np.zeros(ncol), upper, 0, np.zeros(ncol, dtype=np.int32),
                      np.zeros(0, dtype=np.int32), np.zeros(0)),
        highs.addRows(nrow, row_lower, row_upper, len(vals), start.astype(np.int32),
                      cols[by_row].astype(np.int32), vals[by_row]),
    ):
        raise SolveError(f"HiGHS refused {ncol} columns and {nrow} rows")


def solve(highs, lo, up, cap, log):
    """Solve with the first len(lo) columns bounded by (lo, up) and append
    (value, their values) to ``log``, or None when the LP is infeasible
    or its value provably exceeds ``cap``; returns that entry. The dual
    simplex stops once its bound passes ``cap`` plus ``DUAL_SLACK``, so a
    value within the slack above ``cap`` is still returned in full."""
    n = len(lo)
    highs.changeColsBounds(n, np.arange(n, dtype=np.int32), lo, up)
    _set(highs, "objective_bound", cap + DUAL_SLACK)
    highs.run()
    status, statuses = highs.getModelStatus(), core().HighsModelStatus
    if status in (statuses.kInfeasible, statuses.kUnboundedOrInfeasible,
                  statuses.kObjectiveBound):
        log.append(None)
    elif status in (statuses.kOptimal, statuses.kModelEmpty):
        sol = highs.getSolution()
        value = highs.getInfo().objective_function_value
        log.append((value, np.array(sol.col_value[:n])))
    else:
        raise SolveError(f"HiGHS ended with status {highs.modelStatusToString(status)}")
    return log[-1]


def branch(highs, lo, up, cap, tie, log):
    """Depth-first branch and bound on the first fractional column of the
    first len(lo) ones, below their bounds (lo, up), down child first,
    over solutions integral there with value <= cap: the least, the first
    among equals. Each leaf that improves lowers the cap to its value plus
    ``tie`` times its magnitude, so that every integral point lies in a
    leaf met or in a node pruned above the final cap. Returns (value, mask
    of columns at 1, lo and up of its leaf, least value of the other
    integral leaves met or inf), or None."""
    best, other = None, np.inf
    stack = [(lo, up)]
    while stack:
        lo, up = stack.pop()
        res = solve(highs, lo, up, cap, log)
        if res is None or res[0] > cap:
            continue
        value, x = res
        frac = np.flatnonzero(np.abs(x - np.round(x)) > INT_TOL)
        if not frac.size:
            if best is not None and value >= best[0]:
                other = min(other, value)
            else:
                other = other if best is None else best[0]
                best = (value, x > 0.5, lo, up)
                cap = min(cap, value + tie * abs(value))
            continue
        lo_up, up_down = lo.copy(), up.copy()
        lo_up[frac[0]] = 1.0
        up_down[frac[0]] = 0.0
        stack += [(lo_up, up), (lo, up_down)]
    return None if best is None else best + (other,)
