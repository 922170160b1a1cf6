"""Sigmoid model of the cluster-count curve (§V, Figure 2(2)).

The paper observes that, plotting the normalized number of clusters
against the *normalized logarithm of the level id*, curves from different
input graphs share one shape — slow decrease, sharp middle drop, slow
tail — well modeled by

    y = f(x) = a / (1 + exp(-k (log x - b))) + c

with parameters ``a, b, c, k``; the paper quotes a = -1, b = 0.48, c = 1,
k = 10 as a good fit.  With those parameters the logistic must be
centered *inside* the plotted axis (f drops from 0.99 to 0.006 across
[0, 1] when its argument is the axis coordinate), so ``log x - b`` is
read as "(normalized log level id) - b": the log lives in the axis
normalization, applied once.  :func:`normalize_curve` produces that axis;
:func:`sigmoid` evaluates the logistic on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "SigmoidParams",
    "PAPER_PARAMS",
    "sigmoid",
    "normalize_curve",
    "fit_sigmoid",
]


@dataclass(frozen=True)
class SigmoidParams:
    """Parameters of ``y = a / (1 + exp(-k (x - b))) + c`` where ``x`` is
    the normalized log level id."""

    a: float
    b: float
    c: float
    k: float

    def __call__(self, x: float) -> float:
        return sigmoid(x, self)


#: The fit the paper quotes for fractions 0.0005 and 0.001.
PAPER_PARAMS = SigmoidParams(a=-1.0, b=0.48, c=1.0, k=10.0)


def sigmoid(x: float, params: SigmoidParams) -> float:
    """Evaluate the model at ``x`` (normalized log level id, usually [0, 1])."""
    z = -params.k * (x - params.b)
    if z > 700.0:
        return params.c
    if z < -700.0:
        return params.a + params.c
    return params.a / (1.0 + math.exp(z)) + params.c


def normalize_curve(
    levels: Sequence[float], clusters: Sequence[float]
) -> Tuple[List[float], List[float]]:
    """Normalize a cluster-count curve the way Figure 2(2) does.

    The x axis becomes the *logarithm of the level id*, rescaled to
    [0, 1]; the y axis becomes the cluster count rescaled to [0, 1].
    Level ids must be positive and increasing.
    """
    if len(levels) != len(clusters):
        raise ParameterError("levels and clusters must have equal length")
    if len(levels) < 2:
        raise ParameterError("need at least two points to normalize")
    if any(lv <= 0 for lv in levels):
        raise ParameterError("level ids must be positive (log is taken)")
    logs = [math.log(lv) for lv in levels]
    lo_x, hi_x = min(logs), max(logs)
    lo_y, hi_y = min(clusters), max(clusters)
    if hi_x == lo_x or hi_y == lo_y:
        raise ParameterError("degenerate curve cannot be normalized")
    xs = [(v - lo_x) / (hi_x - lo_x) for v in logs]
    ys = [(v - lo_y) / (hi_y - lo_y) for v in clusters]
    return xs, ys


def fit_sigmoid(
    xs: Sequence[float],
    ys: Sequence[float],
    initial: SigmoidParams = PAPER_PARAMS,
) -> Tuple[SigmoidParams, float]:
    """Least-squares fit of the sigmoid to a normalized curve.

    Returns the fitted parameters and the root-mean-square residual.
    """
    if len(xs) != len(ys):
        raise ParameterError("xs and ys must have equal length")
    if len(xs) < 4:
        raise ParameterError("need at least 4 points to fit 4 parameters")
    # SciPy costs ~0.5 s to import; only the fit needs it, so every
    # other importer of ``repro.core`` (the CLI, the daemon) skips it.
    from scipy.optimize import least_squares

    x_arr = np.asarray(xs, dtype=float)
    y_arr = np.asarray(ys, dtype=float)

    def residuals(theta: np.ndarray) -> np.ndarray:
        a, b, c, k = theta
        z = np.clip(-k * (x_arr - b), -700.0, 700.0)
        return a / (1.0 + np.exp(z)) + c - y_arr

    start = np.array([initial.a, initial.b, initial.c, initial.k])
    result = least_squares(residuals, start, method="lm", max_nfev=5000)
    params = SigmoidParams(*result.x)
    rmse = float(np.sqrt(np.mean(result.fun ** 2)))
    return params, rmse


def rmse_against(
    xs: Sequence[float], ys: Sequence[float], params: SigmoidParams
) -> float:
    """RMSE of a fixed parameter set against a normalized curve."""
    if len(xs) != len(ys) or not xs:
        raise ParameterError("xs and ys must be non-empty and equal length")
    return math.sqrt(
        sum((sigmoid(x, params) - y) ** 2 for x, y in zip(xs, ys)) / len(xs)
    )
