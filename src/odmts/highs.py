"""Linear programs on HiGHS's compiled core, with depth-first branching.

The core ships inside scipy as a private extension module. It is loaded
by file location on first use, because ``import scipy.optimize`` loads
some 40 MB beside it, and it is registered under scipy's own module
name, so a later scipy import reuses it (the file cannot load twice).
Models run single-threaded, without presolve and without output; a
bound change is followed by a warm re-solve from the last basis.
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
API = (
    "HighsLp", "HighsModelStatus", "MatrixFormat", "kHighsInf", "_Highs.setOptionValue",
    "_Highs.passModel", "_Highs.changeColsBounds", "_Highs.run", "_Highs.getModelStatus",
    "_Highs.getInfo", "_Highs.getSolution", "_Highs.modelStatusToString",
)
# Integrality tolerance, above HiGHS's primal feasibility tolerance.
INT_TOL = 1e-6


class SolveError(RuntimeError):
    """HiGHS ended an LP solve with a status other than optimal."""


def core(pattern=None):
    """The core module from the installed scipy; a missing file or API
    raises a one-line ``RuntimeError`` naming the path."""
    module = sys.modules.get(MODULE)
    if module is None:
        if pattern is None:
            spec = importlib.util.find_spec("scipy")
            base = spec.submodule_search_locations[0] if spec else "scipy"
            pattern = os.path.join(base, "optimize", "_highspy", "_core*.so")
        found = sorted(glob.glob(pattern))
        if not found:
            raise RuntimeError(f"HiGHS core not found at {pattern}")
        loader = importlib.machinery.ExtensionFileLoader(MODULE, found[0])
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(MODULE, loader))
        try:
            loader.exec_module(module)
        except ImportError as e:
            raise RuntimeError(f"HiGHS core at {found[0]} failed to load: {e}") from None
        sys.modules[MODULE] = module
    missing = [name for name in API if functools.reduce(
        lambda obj, part: getattr(obj, part, None), name.split("."), module) is None]
    if missing:
        where = getattr(module, "__file__", MODULE)
        raise RuntimeError(f"HiGHS core at {where} lacks {', '.join(missing)}")
    return module


def model(cost, upper, row_lower, row_upper, rows, cols, vals):
    """A solver holding min cost.x over row_lower <= A x <= row_upper and
    0 <= x <= upper, with A given by its (rows, cols, vals) entries."""
    hc = core()
    ncol, nrow = len(cost), len(row_lower)
    by_col = np.argsort(cols, kind="stable")
    lp = hc.HighsLp()
    lp.num_col_, lp.num_row_ = ncol, nrow
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, np.zeros(ncol), upper
    lp.row_lower_, lp.row_upper_ = row_lower, row_upper
    m = lp.a_matrix_
    m.format_ = hc.MatrixFormat.kColwise
    m.num_col_, m.num_row_ = ncol, nrow
    m.start_ = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=ncol))])
    m.index_, m.value_ = rows[by_col], vals[by_col]
    highs = hc._Highs()
    for option, value in (("output_flag", False), ("threads", 1), ("presolve", "off")):
        highs.setOptionValue(option, value)
    highs.passModel(lp)
    return highs


def solve(highs, lo, up, log):
    """Solve with the first len(lo) columns bounded by (lo, up) and append
    (value, their values, their reduced costs), or None when infeasible,
    to ``log``; returns that entry."""
    n = len(lo)
    highs.changeColsBounds(n, np.arange(n, dtype=np.int32), lo, up)
    highs.run()
    status, statuses = highs.getModelStatus(), core().HighsModelStatus
    if status in (statuses.kInfeasible, statuses.kUnboundedOrInfeasible):
        log.append(None)
    elif status in (statuses.kOptimal, statuses.kModelEmpty):
        sol = highs.getSolution()
        value = highs.getInfo().objective_function_value
        log.append((value, np.array(sol.col_value[:n]), np.array(sol.col_dual[:n])))
    else:
        raise SolveError(f"HiGHS ended with status {highs.modelStatusToString(status)}")
    return log[-1]


def branch(highs, lo, up, cap, first, log):
    """Depth-first branch and bound on the first fractional column of the
    first len(lo) ones, below their bounds (lo, up), down child first:
    the best solution integral there with value <= cap, or with
    ``first`` the first one found, as (value, mask of columns at 1);
    None when there is none."""
    best = None
    stack = [(lo, up)]
    while stack:
        lo, up = stack.pop()
        res = solve(highs, lo, up, log)
        if res is None or res[0] > cap:
            continue
        value, x, _ = res
        frac = np.flatnonzero(np.abs(x - np.round(x)) > INT_TOL)
        if not frac.size:
            best = (value, x > 0.5)
            if first:
                break
            cap = np.nextafter(value, -np.inf)
            continue
        lo_up, up_down = lo.copy(), up.copy()
        lo_up[frac[0]] = 1.0
        up_down[frac[0]] = 0.0
        stack += [(lo_up, up), (lo, up_down)]
    return best
