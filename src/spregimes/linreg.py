"""Ordinary least squares with a cached inverse Gram matrix.

Every region keeps an intercept and a coefficient vector estimated by OLS
over its member units. The inverse Gram matrix is cached so that single
observations can be added or removed in O(m^2) via rank-one
(Sherman-Morrison) updates of it and of the coefficients. ``fit_ols``
gathers the member rows once and also records the training SSR from them,
so a fresh fit needs no second pass (``region_ssr``) over its members;
``region_ssr`` scores a model on any other set of rows. Every single-row
computation (``add_unit``, ``remove_unit`` and the exact SSR changes
``ssr_increase_if_added`` and ``ssr_decrease_if_removed``) reads one
kernel, ``_rank_one_terms``, which takes one row or a stack of rows. The
SSR changes of a stack score every row against one model, or row i
against model i of a ``ModelStack``, in one numpy expression of per-row
products, so a row's result does not depend on the other rows of its
stack, and a row scored against a stacked copy of a model gets the same
bits as against the model itself. A fit is screened for rank deficiency
by a Frobenius-norm bound on the condition number of its Gram matrix,
and only fits the bound cannot certify pay for an SVD (see ``fit_ols``).

The SSR of a union of two regions follows from cross-products alone,
without gathering the union's rows: with ``Z = [1 X y]`` over a region's
rows, the union's ``Z'Z`` is the sum of its two sides' (Chan, Golub &
LeVeque 1983 on pooled sums of squares), and its SSR is
``y'y - xty' G^-1 xty`` from the blocks of that sum. ``union_ssr``
scores a stack of unions so, one inverse for the whole stack, and gives
no score to a union whose Gram is exactly singular or fails the
Frobenius screen of ``fit_ols``. A score differs from ``fit_ols`` over the union's rows only
by rounding, relative to the union's ``y'y``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import NumericalBreakdownError, TooFewObservationsError

__all__ = [
    "Dataset",
    "ModelStack",
    "RegionModel",
    "Scaler",
    "fit_ols",
    "predict",
    "region_ssr",
    "add_unit",
    "remove_unit",
    "ssr_increase_if_added",
    "ssr_decrease_if_removed",
    "union_ssr",
]

# Gram matrices above this condition estimate are treated as rank deficient
# and fit by minimum-norm least squares instead.
RANK_DEFICIENT_CONDITION = 1e12
# Squared Frobenius bound under which fit_ols skips the SVD (see there).
_CERTIFIED_CONDITION_SQ = (RANK_DEFICIENT_CONDITION / 10) ** 2

# Rank-one update denominators below this magnitude trigger a refit fallback.
BREAKDOWN_EPS = 1e-12


@dataclass
class Dataset:
    """Per-unit covariates ``X`` (n x m), responses ``y`` (n,), and extras.

    ``ids`` are external unit identifiers preserved in output; ``coords``
    are optional 2-D coordinates used to build k-nearest-neighbor
    adjacency. Values must be finite. Treat instances as immutable.
    """

    X: np.ndarray
    y: np.ndarray
    ids: list | None = None
    coords: np.ndarray | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-D array")
        if self.y.shape != (len(self.X),):
            raise ValueError("y must be 1-D with one entry per row of X")
        if self.n < 1 or self.m < 1:
            raise ValueError("dataset needs at least one unit and one covariate")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise ValueError("dataset contains missing or non-finite values")
        if self.ids is not None and len(self.ids) != self.n:
            raise ValueError("ids must have one entry per unit")
        if self.coords is not None:
            self.coords = np.asarray(self.coords, dtype=np.float64)
            if self.coords.shape != (self.n, 2):
                raise ValueError("coords must be an (n, 2) array")
        self._augmented = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    @property
    def augmented(self) -> np.ndarray:
        """Covariate matrix with a leading constant-1 column, built lazily."""
        if self._augmented is None:
            self._augmented = np.column_stack([np.ones(self.n), self.X])
        return self._augmented

    def unit_ids(self) -> list[str]:
        if self.ids is not None:
            return [str(u) for u in self.ids]
        return [str(i) for i in range(self.n)]


@dataclass
class Scaler:
    """Per-column z-score parameters for covariates and response."""

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float

    @classmethod
    def fit(cls, dataset: Dataset) -> "Scaler":
        x_std = dataset.X.std(axis=0, ddof=0)
        y_std = float(dataset.y.std(ddof=0))
        # constant columns cannot be scaled; leave them unchanged
        x_std = np.where(x_std > 0, x_std, 1.0)
        return cls(
            x_mean=dataset.X.mean(axis=0),
            x_std=x_std,
            y_mean=float(dataset.y.mean()),
            y_std=y_std if y_std > 0 else 1.0,
        )

    def transform(self, dataset: Dataset) -> Dataset:
        return Dataset(
            X=(dataset.X - self.x_mean) / self.x_std,
            y=(dataset.y - self.y_mean) / self.y_std,
            ids=dataset.ids,
            coords=dataset.coords,
        )

    def transform_coefficients(self, coefficients: np.ndarray) -> np.ndarray:
        """Map raw-space model rows ``(b0, b1..bm)`` into standardized space."""
        coefficients = np.atleast_2d(np.asarray(coefficients, dtype=float))
        slopes = coefficients[:, 1:] * self.x_std / self.y_std
        intercept = (
            coefficients[:, 0]
            + coefficients[:, 1:] @ self.x_mean
            - self.y_mean
        ) / self.y_std
        return np.column_stack([intercept, slopes])


@dataclass
class RegionModel:
    """Linear model for one region: intercept plus coefficient vector.

    ``beta`` stores the intercept at index 0 followed by the m covariate
    coefficients. ``gram_inv`` caches the inverse Gram matrix of the
    member rows (with the constant column folded in) so rank-one updates
    stay cheap. ``degenerate`` marks rank-deficient fits, which have no
    inverse: ``gram_inv`` is None for them and for models reloaded from
    files, and the rank-one functions reject such a model. ``ssr`` is
    the sum of squared residuals over the rows the model was fitted on,
    equal bit for bit to ``region_ssr`` over them. ``fit_ols`` sets it,
    and a local-search solver's models carry the SSR their fit recorded;
    it is None for models reloaded from files or updated by
    ``add_unit``/``remove_unit``.
    """

    beta: np.ndarray
    gram_inv: np.ndarray | None
    n_obs: int
    degenerate: bool = False
    ssr: float | None = None

    @property
    def intercept(self) -> float:
        return float(self.beta[0])

    @property
    def coefficients(self) -> np.ndarray:
        return self.beta[1:]

    @property
    def m(self) -> int:
        return len(self.beta) - 1


class ModelStack(NamedTuple):
    """One model per row of a stack, for the stacked SSR tests.

    ``beta`` is ``(c, m+1)`` and ``gram_inv`` ``(c, m+1, m+1)``: row i of a
    ``(c, m)`` stack is scored against ``beta[i]`` and ``gram_inv[i]``.
    With ``beta`` ``(m+1,)`` and ``gram_inv`` ``(m+1, m+1)`` it is one
    model that scores every row. Every model needs an inverse. ``add_unit`` and ``remove_unit`` update
    one ``RegionModel`` and reject a stack.
    """

    beta: np.ndarray
    gram_inv: np.ndarray

    @property
    def m(self) -> int:
        return self.beta.shape[-1] - 1


def _member_index(members) -> np.ndarray:
    if isinstance(members, np.ndarray) and members.dtype.kind in "iu":
        # member arrays from the merge stage and Partition.members are
        # already ascending; sorting them again costs more than the check
        if (members[1:] > members[:-1]).all():
            return members
        return np.sort(members)
    return np.fromiter(sorted(members), dtype=np.int64)


def fit_ols(dataset: Dataset, members) -> RegionModel:
    """Least-squares fit of intercept and coefficients over a member set.

    Requires at least m+1 members. Rank-deficient member sets (2-norm
    condition number of the Gram matrix G above 1e12) fall back to the
    minimum-norm solution and are flagged degenerate rather than rejected;
    a degenerate model caches no inverse (``gram_inv`` is None).

    G is inverted first. Since cond2(G) <= ||G||_F ||G^-1||_F (Golub &
    Van Loan, *Matrix Computations*), a finite inverse with
    ``||G||_F ||G^-1||_F`` below a tenth of the threshold certifies the
    fit as non-degenerate without an SVD. The tenfold margin covers the
    rounding of the computed inverse, whose relative error is about
    cond2(G) times the machine epsilon, at most 2e-5 here. Any other case
    is decided by ``np.linalg.cond``, as is the class of a fit near the
    threshold, so the result equals deciding every fit by the SVD.

    The member rows are gathered once; the model's ``ssr`` is computed
    from the same rows, as ``region_ssr`` would compute it.
    """
    idx = _member_index(members)
    if len(idx) < dataset.m + 1:
        raise TooFewObservationsError(
            f"{len(idx)} observations < m+1 = {dataset.m + 1}"
        )
    Xa = dataset.augmented[idx]
    y = dataset.y[idx]
    gram = Xa.T @ Xa
    xty = Xa.T @ y
    try:
        gram_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        gram_inv = None
    if gram_inv is None or not _frobenius_condition_sq(gram, gram_inv) < _CERTIFIED_CONDITION_SQ:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > RANK_DEFICIENT_CONDITION:
            beta = np.linalg.lstsq(Xa, y, rcond=None)[0]
            return RegionModel(beta, None, len(idx), degenerate=True, ssr=_ssr(Xa, y, beta))
        if gram_inv is None:
            gram_inv = np.linalg.inv(gram)  # raises LinAlgError again
    beta = gram_inv @ xty
    return RegionModel(beta, gram_inv, len(idx), ssr=_ssr(Xa, y, beta))


def _ssr(Xa: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    """Sum of squared residuals of ``beta`` over gathered rows ``Xa``, ``y``."""
    resid = y - Xa @ beta
    return float(resid @ resid)


def _frobenius_condition_sq(gram: np.ndarray, gram_inv: np.ndarray):
    """``||G||_F^2 ||G^-1||_F^2``, the square of a bound on cond2(G).

    Takes one Gram matrix and its inverse, or a stack of each, and
    returns one product per matrix. A non-finite inverse gives inf or
    nan, which fails the screen's comparison.
    """
    g = gram.reshape(*gram.shape[:-2], -1)
    gi = gram_inv.reshape(*gram_inv.shape[:-2], -1)
    return np.vecdot(g, g) * np.vecdot(gi, gi)


def predict(model: RegionModel, x) -> float:
    """Predicted response ``intercept + x . coefficients``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.m,):
        raise ValueError(f"covariate vector has length {x.size}, expected {model.m}")
    return float(model.beta[0] + x @ model.beta[1:])


def region_ssr(model: RegionModel, dataset: Dataset, members) -> float:
    """Sum of squared residuals of ``model`` over the member units."""
    idx = _member_index(members)
    return _ssr(dataset.augmented[idx], dataset.y[idx], model.beta)


def _rank_one_terms(model: RegionModel | ModelStack, x, y):
    """Residuals, rows ``z G^-1`` and leverages of rows ``z = [1, x]``.

    ``x`` is a ``(c, m)`` row stack with a ``(c,)`` response ``y``, or one
    row of m entries with a scalar ``y``, taken as a one-row stack. Row i
    is scored against ``model``, or against model i of a ``ModelStack``
    of c models. Returns ``(e, zG, h)``: ``e = y - z beta`` and
    ``h = z G^-1 z'`` of shape ``(c,)``, and ``zG`` of shape ``(c, m+1)``.
    Every product is taken row by row (``np.vecdot``), so a row's terms
    are the same in any stack and whether its model is shared or stacked.
    Raises ValueError for a model without an inverse or rows that do not
    match the model.
    """
    if model.gram_inv is None:
        raise ValueError("model has no cached inverse Gram matrix (degenerate or reloaded)")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim == 1 and y.ndim == 0:
        x, y = x[None], y[None]
    k = model.m + 1
    if (x.ndim != 2 or x.shape[1] != model.m or y.shape != (len(x),)
            or model.beta.shape not in ((k,), (len(x), k))
            or model.gram_inv.shape != (*model.beta.shape, k)):
        raise ValueError(f"row stack {x.shape} with response {y.shape} does not match "
                         f"models of shape {model.beta.shape}")
    z = np.empty((len(x), k))
    z[:, 0] = 1.0
    z[:, 1:] = x
    gz = np.vecdot(z[:, :, None], model.gram_inv, axis=-2)
    return y - np.vecdot(z, model.beta), gz, np.vecdot(gz, z)


def _rank_one_update(model: RegionModel, x, y: float, sign: int) -> RegionModel:
    """Model refit with row ``(x, y)`` added (``sign`` 1) or removed (-1).

    With ``d = 1 + sign h``: ``beta' = beta + (sign e / d) zG`` and
    ``G'^-1 = G^-1 - (sign / d) zG' zG``.
    """
    if isinstance(model, ModelStack):
        raise ValueError("add_unit and remove_unit update one model, not a ModelStack")
    if sign < 0 and model.n_obs - 1 < model.m + 1:
        raise TooFewObservationsError("removal would leave fewer than m+1 observations")
    # unpacking one entry each rejects a stack of more than one row
    [e], [gz], [h] = _rank_one_terms(model, x, y)
    denom = 1.0 + sign * h
    if abs(denom) < BREAKDOWN_EPS:
        raise NumericalBreakdownError("rank-one update denominator ~ 0")
    return RegionModel(model.beta + (sign * e / denom) * gz,
                       model.gram_inv - (sign / denom) * np.outer(gz, gz), model.n_obs + sign)


def add_unit(model: RegionModel, x, y: float) -> RegionModel:
    """Model refit as if ``(x, y)`` had been part of the member set.

    O(m^2) rank-one (Sherman-Morrison) update of the coefficients and the
    cached inverse. Raises ValueError for a model without an inverse
    (degenerate or reloaded), and NumericalBreakdownError when the update
    denominator vanishes; the caller should then refit from scratch.
    """
    return _rank_one_update(model, x, y, 1)


def remove_unit(model: RegionModel, x, y: float) -> RegionModel:
    """Model refit as if ``(x, y)`` were absent from the member set.

    The downdate counterpart of ``add_unit``, with its errors; also raises
    TooFewObservationsError when fewer than m+1 members would remain.
    """
    return _rank_one_update(model, x, y, -1)


def ssr_increase_if_added(model: RegionModel | ModelStack, x, y) -> float | np.ndarray:
    """Exact SSR increase from absorbing ``(x, y)``, without refitting.

    Uses the recursive least-squares identity: the new SSR equals the old
    one plus e^2 / (1 + h), where e is the pre-update residual and h the
    leverage of the new row. With a ``(c, m)`` row stack ``x`` and a
    ``(c,)`` response ``y`` it returns each row's increase as an array;
    with a ``ModelStack``, row i's increase for model i.
    """
    e, _, h = _rank_one_terms(model, x, y)
    gain = e * e / (1.0 + h)
    return float(gain[0]) if np.ndim(x) == 1 else gain


def ssr_decrease_if_removed(model: RegionModel | ModelStack, x, y) -> float | np.ndarray:
    """Exact SSR decrease from dropping member ``(x, y)``, without refitting.

    Leave-one-out identity: the SSR shrinks by e^2 / (1 - h). Raises
    NumericalBreakdownError when the row's leverage is ~1; a ``(c, m)``
    row stack returns each row's decrease as an array, for one model or
    row i's for model i of a ``ModelStack``, and raises when any of its
    rows has leverage ~1.
    """
    e, _, h = _rank_one_terms(model, x, y)
    denom = 1.0 - h
    if (np.abs(denom) < BREAKDOWN_EPS).any():
        raise NumericalBreakdownError("leverage ~ 1 in rank-one removal")
    loss = e * e / denom
    return float(loss[0]) if np.ndim(x) == 1 else loss


def union_ssr(cross) -> np.ndarray:
    """SSR of each union in a stack, from its cross-products alone.

    ``cross`` is a ``(k, m+2, m+2)`` stack of each union's ``Z'Z`` with
    ``Z = [1 X y]`` over its rows: the sum of its two sides'. With ``G``,
    ``xty`` and ``y'y`` the blocks of ``Z'Z``, the union's SSR is
    ``y'y - xty' G^-1 xty``. Returns one entry per union, nan where ``G``
    is exactly singular or fails the Frobenius screen of ``fit_ols``, so
    that only a union whose fit would be certified non-degenerate gets a
    score. A union's score does not depend on the other unions of its
    stack: when ``np.linalg.inv`` refuses a stack for an exactly
    singular ``G``, each union of it is scored alone.
    """
    cross = np.asarray(cross, dtype=float)
    gram, xty, yy = cross[:, :-1, :-1], cross[:, :-1, -1], cross[:, -1, -1]
    try:
        gram_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        if len(cross) == 1:
            return np.array([np.nan])
        return np.concatenate([union_ssr(c[None]) for c in cross])
    ssr = yy - np.vecdot(xty, (gram_inv @ xty[..., None])[..., 0])
    certified = _frobenius_condition_sq(gram, gram_inv) < _CERTIFIED_CONDITION_SQ
    return np.where(certified, ssr, np.nan)
