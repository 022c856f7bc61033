"""Ordinary least squares with cached normal-equation state.

Every region keeps an intercept and a coefficient vector estimated by OLS
over its member units. The inverse Gram matrix and the cross-product
vector are cached so that single observations can be added or removed in
O(m^2) via rank-one (Sherman-Morrison) updates of the inverse. ``fit_ols``
gathers the member rows once and also records the training SSR from them,
so a fresh fit needs no second pass (``region_ssr``) over its members;
``region_ssr`` scores a model on any other set of rows. The exact
SSR change of adding or dropping one row (``ssr_increase_if_added``,
``ssr_decrease_if_removed``) also takes a stack of rows and then scores
each row against the same model in one numpy expression. A fit is
screened for rank deficiency by a Frobenius-norm bound on the condition
number of its Gram matrix, and only fits the bound cannot certify pay for
an SVD (see ``fit_ols``).

The SSR change of merging two fitted regions follows from their cached
state in O(m^3) plus the rows of a small block, without gathering the
union: ``absorb_delta`` scores a fitted region absorbing a block of rows
and ``pooled_delta`` scores pooling two fitted regions (Chan, Golub &
LeVeque 1983 on pooled sums of squares; Golub & Van Loan on updating
least squares). Each returns a rounding bound ``err`` with the estimate,
so that ``fit_ols`` over the union lies within ``err`` of it; callers use
the interval to skip union fits that cannot change a decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalBreakdownError, TooFewObservationsError

__all__ = [
    "Dataset",
    "RegionModel",
    "Scaler",
    "fit_ols",
    "predict",
    "region_ssr",
    "add_unit",
    "remove_unit",
    "ssr_increase_if_added",
    "ssr_decrease_if_removed",
    "absorb_delta",
    "pooled_delta",
]

# Gram matrices above this condition estimate are treated as rank deficient
# and fit by minimum-norm least squares instead.
RANK_DEFICIENT_CONDITION = 1e12
# Squared Frobenius bound under which fit_ols skips the SVD (see there).
_CERTIFIED_CONDITION_SQ = (RANK_DEFICIENT_CONDITION / 10) ** 2

# Rank-one update denominators below this magnitude trigger a refit fallback.
BREAKDOWN_EPS = 1e-12

# Rounding allowance C of the merge identities (see ``_merge_error``).
MERGE_ERROR_FACTOR = 16.0


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
    coefficients. ``gram_inv`` and ``xty`` cache the inverse Gram matrix
    and cross products over the member rows (with the constant column
    folded in) so rank-one updates stay cheap; they are None for models
    reloaded from files. ``degenerate`` marks rank-deficient fits.
    ``ssr`` is the sum of squared residuals over the rows the model was
    fitted on, equal bit for bit to ``region_ssr`` over them; it is set
    only by ``fit_ols`` and is None for models reloaded from files or
    updated by ``add_unit``/``remove_unit``. ``certificate`` is the
    product ``||G||_F^2 ||G^-1||_F^2`` that certified the fit as well
    conditioned (its square root bounds cond2(G)); like ``ssr`` it is set
    only by ``fit_ols``, and it is None when the fit needed the SVD. Only
    models with a certificate can be scored by ``absorb_delta`` and
    ``pooled_delta``.
    """

    beta: np.ndarray
    gram_inv: np.ndarray | None
    xty: np.ndarray | None
    n_obs: int
    degenerate: bool = False
    ssr: float | None = None
    certificate: float | None = None

    @property
    def intercept(self) -> float:
        return float(self.beta[0])

    @property
    def coefficients(self) -> np.ndarray:
        return self.beta[1:]

    @property
    def m(self) -> int:
        return len(self.beta) - 1


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
    minimum-norm solution and are flagged degenerate rather than rejected.

    G is inverted first. Since cond2(G) <= ||G||_F ||G^-1||_F (Golub &
    Van Loan, *Matrix Computations*), a finite inverse with
    ``||G||_F ||G^-1||_F`` below a tenth of the threshold certifies the
    fit as non-degenerate without an SVD. The tenfold margin covers the
    rounding of the computed inverse, whose relative error is about
    cond2(G) times the machine epsilon, at most 2e-5 here. Any other case
    is decided by ``np.linalg.cond``, as is the class of a fit near the
    threshold, so the result equals deciding every fit by the SVD.

    The member rows are gathered once; the model's ``ssr`` is computed
    from the same rows, as ``region_ssr`` would compute it. A fit that
    passes the Frobenius screen keeps its product as ``certificate``.
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
    certificate = None if gram_inv is None else _frobenius_condition_sq(gram, gram_inv)
    if certificate is None or not certificate < _CERTIFIED_CONDITION_SQ:
        certificate = None
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > RANK_DEFICIENT_CONDITION:
            beta = np.linalg.lstsq(Xa, y, rcond=None)[0]
            return RegionModel(beta, np.linalg.pinv(gram), xty, len(idx), degenerate=True,
                               ssr=_ssr(Xa, y, beta))
        if gram_inv is None:
            gram_inv = np.linalg.inv(gram)  # raises LinAlgError again
    beta = gram_inv @ xty
    return RegionModel(beta, gram_inv, xty, len(idx), ssr=_ssr(Xa, y, beta),
                       certificate=certificate)


def _ssr(Xa: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    """Sum of squared residuals of ``beta`` over gathered rows ``Xa``, ``y``."""
    resid = y - Xa @ beta
    return float(resid @ resid)


def _frobenius_condition_sq(gram: np.ndarray, gram_inv: np.ndarray) -> float:
    """``||G||_F^2 ||G^-1||_F^2``, the square of a bound on cond2(G).

    A non-finite inverse gives inf or nan, which fails the screen's
    comparison.
    """
    g, gi = gram.ravel(), gram_inv.ravel()
    return float((g @ g) * (gi @ gi))


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


def _require_caches(model: RegionModel):
    if model.gram_inv is None or model.xty is None:
        raise ValueError("model has no cached normal-equation state")


def add_unit(model: RegionModel, x, y: float) -> RegionModel:
    """Model refit as if ``(x, y)`` had been part of the member set.

    O(m^2) rank-one update of the cached inverse. Raises
    NumericalBreakdownError when the update denominator vanishes; the
    caller should then refit from scratch.
    """
    _require_caches(model)
    z = np.concatenate(([1.0], np.asarray(x, dtype=float)))
    gz = model.gram_inv @ z
    denom = 1.0 + z @ gz
    if abs(denom) < BREAKDOWN_EPS:
        raise NumericalBreakdownError("rank-one add denominator ~ 0")
    gram_inv = model.gram_inv - np.outer(gz, gz) / denom
    xty = model.xty + z * y
    return RegionModel(gram_inv @ xty, gram_inv, xty, model.n_obs + 1, model.degenerate)


def remove_unit(model: RegionModel, x, y: float) -> RegionModel:
    """Model refit as if ``(x, y)`` were absent from the member set."""
    _require_caches(model)
    if model.n_obs - 1 < model.m + 1:
        raise TooFewObservationsError("removal would leave fewer than m+1 observations")
    z = np.concatenate(([1.0], np.asarray(x, dtype=float)))
    gz = model.gram_inv @ z
    denom = 1.0 - z @ gz
    if abs(denom) < BREAKDOWN_EPS:
        raise NumericalBreakdownError("rank-one removal denominator ~ 0")
    gram_inv = model.gram_inv + np.outer(gz, gz) / denom
    xty = model.xty - z * y
    return RegionModel(gram_inv @ xty, gram_inv, xty, model.n_obs - 1, model.degenerate)


def _residual_and_leverage(model: RegionModel, x, y):
    """Residual ``e`` and leverage ``h`` of one row, or of each row of a stack."""
    _require_caches(model)
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        y = np.asarray(y, dtype=float)
        if x.shape[1] != model.m or y.shape != (len(x),):
            raise ValueError(f"row stack {x.shape} with response {y.shape} does not "
                             f"match a model of {model.m} covariates")
        z = np.empty((len(x), model.m + 1))
        z[:, 0] = 1.0
        z[:, 1:] = x
        return y - z @ model.beta, np.einsum("ij,ij->i", z @ model.gram_inv, z)
    z = np.concatenate(([1.0], x))
    return y - z @ model.beta, z @ model.gram_inv @ z


def ssr_increase_if_added(model: RegionModel, x, y) -> float | np.ndarray:
    """Exact SSR increase from absorbing ``(x, y)``, without refitting.

    Uses the recursive least-squares identity: the new SSR equals the old
    one plus e^2 / (1 + h), where e is the pre-update residual and h the
    leverage of the new row. With a ``(c, m)`` row stack ``x`` and a
    ``(c,)`` response ``y`` it returns each row's increase as an array.
    """
    e, h = _residual_and_leverage(model, x, y)
    gain = e * e / (1.0 + h)
    return gain if np.ndim(gain) else float(gain)


def ssr_decrease_if_removed(model: RegionModel, x, y) -> float | np.ndarray:
    """Exact SSR decrease from dropping member ``(x, y)``, without refitting.

    Leave-one-out identity: the SSR shrinks by e^2 / (1 - h). Raises
    NumericalBreakdownError when the row's leverage is ~1; a ``(c, m)``
    row stack returns each row's decrease as an array, and raises when
    any of its rows has leverage ~1.
    """
    e, h = _residual_and_leverage(model, x, y)
    denom = 1.0 - h
    if (np.abs(denom) < BREAKDOWN_EPS).any():
        raise NumericalBreakdownError("leverage ~ 1 in rank-one removal")
    loss = e * e / denom
    return loss if np.ndim(loss) else float(loss)


def _stacked(models) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stacked ``beta``, ``gram_inv``, ``ssr``, kappa_F and ``y'y`` of certified models.

    ``y'y`` over a model's rows is ``ssr + beta . xty`` (the residual and
    fitted sums of squares).
    """
    if any(mo.certificate is None for mo in models):
        raise ValueError("merge identities need models certified by fit_ols")
    beta = np.array([mo.beta for mo in models])
    ssr = np.array([mo.ssr for mo in models])
    yy = ssr + (beta * np.array([mo.xty for mo in models])).sum(axis=1)
    kappa = np.sqrt([mo.certificate for mo in models])
    return beta, np.array([mo.gram_inv for mo in models]), ssr, kappa, yy


def _merge_error(delta, kappa, n, ssr_a, ssr_b, yy) -> np.ndarray:
    """Rounding bound on the gap between a merge identity and a union fit.

    ``C u (kappa_F + n) (ssr_a + ssr_b + |delta| + y'y)`` with u the
    machine epsilon, kappa_F the Frobenius bound on the fitted Gram
    matrices' condition, n the union's size and ``y'y`` the union's sum
    of squared responses. Both sides round their residuals relative to
    the responses, not to the residuals, so the ``y'y`` term keeps the
    bound valid on nearly noise-free data, where a bound in the SSRs
    alone reads about zero. The largest ratio of ``|delta - exact|`` to
    ``u (kappa_F + n) (...)`` measured is 0.11, over about 75,000 unions
    that K-Models merge stages fit (the 20,000-point knn data of
    perfbench, data seeds 909, 1 and 2, and its 25x25 sweep suites) and
    7,000 random designs (noise 0 to 2, scales 1e-2 to 1e2, near-collinear
    columns); ``MERGE_ERROR_FACTOR`` C = 16 leaves a margin of 140.
    """
    scale = ssr_a + ssr_b + np.abs(delta) + yy
    return MERGE_ERROR_FACTOR * np.finfo(float).eps * (kappa + n) * scale


def absorb_delta(models, x, y, ssr_a: float) -> tuple[np.ndarray, np.ndarray]:
    """SSR change of each fitted region absorbing the rows ``(x, y)`` of a region.

    Block form of the recursive least-squares identity: model b with
    inverse Gram G_b^-1 absorbing the ``(k, m)`` rows ``x`` (Z with the
    constant column) raises its SSR by ``e' (I + Z G_b^-1 Z')^-1 e`` with
    ``e = y - Z beta_b``. The merge's change of the total SSR is that
    increase minus ``ssr_a``, the SSR of the absorbed region (0.0 when
    it has fewer than m+1 rows and so no model). ``models`` must carry a
    ``certificate``. Returns ``(delta, err)`` arrays, one entry per model:
    ``fit_ols`` over the union, minus both regions' SSRs, lies within
    ``err`` of ``delta`` (see ``_merge_error``).
    """
    beta, gram_inv, ssr_b, kappa, yy_b = _stacked(models)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    z = np.empty((len(y), beta.shape[1]))
    z[:, 0] = 1.0
    z[:, 1:] = x
    e = y - beta @ z.T
    s = z @ gram_inv @ z.T + np.eye(len(y))
    delta = (e * np.linalg.solve(s, e[..., None])[..., 0]).sum(axis=1) - ssr_a
    yy = yy_b + float(y @ y)
    n = np.array([mo.n_obs for mo in models]) + len(y)
    return delta, _merge_error(delta, kappa, n, ssr_a, ssr_b, yy)


def pooled_delta(models_a, models_b) -> tuple[np.ndarray, np.ndarray]:
    """SSR change of pooling each fitted region of ``models_a`` with its pair in ``models_b``.

    Pooled-regression identity: the union's SSR exceeds the two SSRs by
    ``d' (G_a^-1 + G_b^-1)^-1 d`` with ``d = beta_a - beta_b``, from the
    cached state alone. Every model must carry a ``certificate``. Returns
    ``(delta, err)`` arrays, one entry per pair, with the bound of
    ``absorb_delta``; kappa_F is the sum of the pair's.
    """
    beta_a, gram_inv_a, ssr_a, kappa_a, yy_a = _stacked(models_a)
    beta_b, gram_inv_b, ssr_b, kappa_b, yy_b = _stacked(models_b)
    d = beta_a - beta_b
    delta = (d * np.linalg.solve(gram_inv_a + gram_inv_b, d[..., None])[..., 0]).sum(axis=1)
    n = np.array([mo.n_obs for mo in models_a]) + np.array([mo.n_obs for mo in models_b])
    return delta, _merge_error(delta, kappa_a + kappa_b, n, ssr_a, ssr_b, yy_a + yy_b)
