import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spregimes import (
    Dataset,
    NumericalBreakdownError,
    Scaler,
    TooFewObservationsError,
    add_unit,
    fit_ols,
    predict,
    region_ssr,
    remove_unit,
    ssr_decrease_if_removed,
    ssr_increase_if_added,
)

from spregimes.linreg import _CERTIFIED_CONDITION_SQ, _frobenius_condition_sq, union_delta

from conftest import rank_one_rounding


def reference_fit(dataset, members):
    """Independent least-squares reference via SVD on the augmented matrix."""
    idx = np.array(sorted(members))
    xa = np.column_stack([np.ones(len(idx)), dataset.X[idx]])
    return np.linalg.lstsq(xa, dataset.y[idx], rcond=None)[0]


RANK_ONE_FUNCTIONS = (add_unit, remove_unit, ssr_increase_if_added, ssr_decrease_if_removed)


def random_dataset(rng, n, m, noise=0.5):
    x = rng.normal(size=(n, m))
    beta = rng.normal(size=m + 1)
    y = beta[0] + x @ beta[1:] + noise * rng.normal(size=n)
    return Dataset(X=x, y=y)


# x2 = x1 + eps * noise puts cond(G) between about 1e8 and past 1e16;
# eps = 0 duplicates the column exactly
CONDITION_EPS = [*np.logspace(-4, -8.5, 37), 0.0]


def condition_design(eps):
    """40 rows whose second column is the first one plus ``eps`` noise."""
    rng = np.random.default_rng(11)
    x1, noise = rng.normal(size=40), rng.normal(size=40)
    return Dataset(X=np.column_stack([x1, x1 + eps * noise]), y=rng.normal(size=40))


class TestDataset:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(X=[[1.0], [np.nan]], y=[0.0, 1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(X=[[1.0], [2.0]], y=[0.0])

    def test_augmented_has_constant_column(self):
        ds = Dataset(X=[[2.0], [3.0]], y=[0.0, 1.0])
        assert np.array_equal(ds.augmented[:, 0], [1.0, 1.0])


class TestFitOls:
    def test_two_point_line(self):
        ds = Dataset(X=[[0.0], [1.0]], y=[1.0, 3.0])
        model = fit_ols(ds, [0, 1])
        assert model.intercept == pytest.approx(1.0)
        assert model.coefficients[0] == pytest.approx(2.0)

    def test_constant_response(self, rng):
        ds = Dataset(X=rng.normal(size=(12, 2)), y=np.full(12, 4.0))
        model = fit_ols(ds, range(12))
        assert model.intercept == pytest.approx(4.0)
        assert np.allclose(model.coefficients, 0.0, atol=1e-12)

    def test_noiseless_recovery_matches_reference(self, rng):
        x = rng.random((20, 2))
        y = 0.0 + 1.0 * x[:, 0] - 2.0 * x[:, 1]
        ds = Dataset(X=x, y=y)
        model = fit_ols(ds, range(20))
        assert np.allclose(model.beta, [0.0, 1.0, -2.0], atol=1e-10)
        assert np.allclose(model.beta, reference_fit(ds, range(20)), atol=1e-10)

    def test_too_few_observations(self, rng):
        ds = random_dataset(rng, 10, 3)
        with pytest.raises(TooFewObservationsError):
            fit_ols(ds, [0, 1, 2])

    def test_collinear_members_flagged_degenerate(self):
        x = np.column_stack([np.arange(6.0), 2.0 * np.arange(6.0)])
        ds = Dataset(X=x, y=np.arange(6.0))
        model = fit_ols(ds, range(6))
        assert model.degenerate and model.gram_inv is None
        # minimum-norm fit still reproduces the data
        assert region_ssr(model, ds, range(6)) == pytest.approx(0.0, abs=1e-16)
        # a degenerate fit caches no inverse for the rank-one functions
        for rank_one in RANK_ONE_FUNCTIONS:
            with pytest.raises(ValueError, match="no cached inverse"):
                rank_one(model, ds.X[0], float(ds.y[0]))

    @pytest.mark.parametrize("eps", CONDITION_EPS)
    def test_condition_screen_matches_svd_oracle(self, eps):
        ds = condition_design(eps)
        model = fit_ols(ds, range(40))
        xa = ds.augmented[np.arange(40)]
        gram, xty = xa.T @ xa, xa.T @ ds.y
        cond = np.linalg.cond(gram)
        assert model.degenerate == (not np.isfinite(cond) or cond > 1e12)
        if not model.degenerate:
            assert np.array_equal(model.beta, np.linalg.inv(gram) @ xty)

    def test_well_conditioned_fit_runs_no_svd(self, rng, monkeypatch):
        ds = random_dataset(rng, 30, 3)
        expected = fit_ols(ds, range(30))

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.cond called on a well-conditioned fit")

        monkeypatch.setattr(np.linalg, "cond", no_svd)
        model = fit_ols(ds, range(30))
        assert not model.degenerate
        assert np.array_equal(model.beta, expected.beta)

    def test_gram_inverse_consistency(self, rng):
        ds = random_dataset(rng, 30, 3)
        model = fit_ols(ds, range(30))
        gram = ds.augmented.T @ ds.augmented
        assert np.allclose(model.gram_inv @ gram, np.eye(4), atol=1e-8)

    def test_residuals_orthogonal_to_design(self, rng):
        ds = random_dataset(rng, 40, 3)
        model = fit_ols(ds, range(40))
        resid = ds.y - ds.augmented @ model.beta
        assert np.allclose(ds.augmented.T @ resid, 0.0, atol=1e-8)

    def test_fit_beats_perturbed_coefficients(self, rng):
        ds = random_dataset(rng, 25, 2)
        members = range(25)
        model = fit_ols(ds, members)
        base = region_ssr(model, ds, members)
        for _ in range(20):
            bumped = type(model)(
                beta=model.beta + 0.01 * rng.normal(size=3),
                gram_inv=model.gram_inv, n_obs=model.n_obs,
            )
            assert region_ssr(bumped, ds, members) >= base - 1e-12


@st.composite
def fit_cases(draw):
    """A dataset and an unordered list of at least m+1 of its rows.

    Collinear designs make the last column twice the first, or 2.0
    everywhere when m = 1 (twice the intercept column). Scaling by 2 is
    exact, so their Gram matrix is singular and the fit takes the
    minimum-norm ``lstsq`` path.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m + 1, 40))
    ds = random_dataset(rng, n, m, noise=draw(st.floats(0.0, 2.0)))
    collinear = draw(st.booleans())
    if collinear:
        x = ds.X.copy()
        x[:, -1] = 2.0 * x[:, 0] if m > 1 else 2.0
        ds = Dataset(X=x, y=ds.y)
    members = rng.permutation(n)[:draw(st.integers(m + 1, n))].tolist()
    return ds, members, collinear


class TestFitSsr:
    """``fit_ols`` records the training SSR that ``region_ssr`` would compute."""

    @settings(max_examples=200, deadline=None)
    @given(fit_cases())
    def test_equals_region_ssr_bitwise(self, case):
        ds, members, collinear = case
        model = fit_ols(ds, members)
        assert model.degenerate or not collinear
        assert isinstance(model.ssr, float)
        assert model.ssr == region_ssr(model, ds, members)

    @pytest.mark.parametrize("eps", CONDITION_EPS)
    def test_equals_region_ssr_on_condition_designs(self, eps):
        ds = condition_design(eps)
        model = fit_ols(ds, range(40))
        assert model.ssr == region_ssr(model, ds, range(40))

    def test_rank_one_updates_carry_no_ssr(self, rng):
        ds = random_dataset(rng, 12, 2)
        model = fit_ols(ds, range(10))
        assert model.ssr is not None
        assert add_unit(model, ds.X[10], float(ds.y[10])).ssr is None
        assert remove_unit(model, ds.X[0], float(ds.y[0])).ssr is None


class TestPredict:
    def test_zero_model(self):
        ds = Dataset(X=[[0.0], [1.0], [2.0]], y=[0.0, 0.0, 0.0])
        model = fit_ols(ds, range(3))
        assert predict(model, [5.0]) == pytest.approx(0.0)

    def test_simple_case(self):
        ds = Dataset(X=[[0.0], [1.0]], y=[1.0, 3.0])
        model = fit_ols(ds, [0, 1])
        assert predict(model, [3.0]) == pytest.approx(7.0)

    def test_matches_training_data_after_exact_fit(self, rng):
        x = rng.random((20, 2))
        y = 1.0 * x[:, 0] - 2.0 * x[:, 1]
        ds = Dataset(X=x, y=y)
        model = fit_ols(ds, range(20))
        for i in range(20):
            assert predict(model, x[i]) == pytest.approx(y[i], abs=1e-9)

    def test_dimension_mismatch(self):
        ds = Dataset(X=[[0.0], [1.0]], y=[1.0, 3.0])
        model = fit_ols(ds, [0, 1])
        with pytest.raises(ValueError):
            predict(model, [1.0, 2.0])


class TestRegionSsr:
    def test_perfect_fit_is_zero(self):
        ds = Dataset(X=[[0.0], [1.0]], y=[1.0, 3.0])
        model = fit_ols(ds, [0, 1])
        assert region_ssr(model, ds, [0, 1]) == pytest.approx(0.0, abs=1e-18)

    def test_single_member_squared_residual(self):
        ds = Dataset(X=[[0.0], [1.0], [0.5]], y=[1.0, 3.0, 4.0])
        model = fit_ols(ds, [0, 1])  # line y = 1 + 2x; residual at unit 2 is 2
        assert region_ssr(model, ds, [2]) == pytest.approx(4.0)

    def test_matches_accumulation_loop(self, rng):
        ds = random_dataset(rng, 30, 2)
        members = list(rng.choice(30, size=10, replace=False))
        model = fit_ols(ds, members)
        total = sum(
            (ds.y[i] - predict(model, ds.X[i])) ** 2 for i in members
        )
        assert region_ssr(model, ds, members) == pytest.approx(total, rel=1e-10)


class TestRankOneUpdates:
    def test_add_then_remove_restores_coefficients(self, rng):
        ds = random_dataset(rng, 25, 2)
        model = fit_ols(ds, range(20))
        x_new, y_new = ds.X[22], float(ds.y[22])
        roundtrip = remove_unit(add_unit(model, x_new, y_new), x_new, y_new)
        assert np.allclose(roundtrip.beta, model.beta, atol=1e-9)
        assert roundtrip.n_obs == model.n_obs

    def test_adding_point_on_hyperplane_keeps_coefficients(self, rng):
        ds = random_dataset(rng, 20, 2)
        model = fit_ols(ds, range(20))
        x_new = rng.random(2)
        updated = add_unit(model, x_new, predict(model, x_new))
        assert np.allclose(updated.beta, model.beta, atol=1e-9)

    def test_add_matches_full_refit(self, rng):
        ds = random_dataset(rng, 31, 3)
        model = fit_ols(ds, range(30))
        updated = add_unit(model, ds.X[30], float(ds.y[30]))
        oracle = reference_fit(ds, range(31))
        assert np.allclose(updated.beta, oracle, rtol=1e-6, atol=1e-9)

    def test_remove_matches_full_refit(self, rng):
        ds = random_dataset(rng, 30, 3)
        model = fit_ols(ds, range(30))
        updated = remove_unit(model, ds.X[29], float(ds.y[29]))
        oracle = reference_fit(ds, range(29))
        assert np.allclose(updated.beta, oracle, rtol=1e-6, atol=1e-9)

    def test_remove_one_copy_of_duplicated_observation(self, rng):
        x = rng.random((12, 2))
        x[11] = x[4]
        y = x @ [1.0, -1.0] + rng.normal(size=12) * 0.1
        y[11] = y[4]
        ds = Dataset(X=x, y=y)
        model = fit_ols(ds, range(12))
        updated = remove_unit(model, ds.X[11], float(ds.y[11]))
        oracle = reference_fit(ds, range(11))
        assert np.allclose(updated.beta, oracle, rtol=1e-6, atol=1e-9)

    def test_remove_below_minimum_rejected(self, rng):
        ds = random_dataset(rng, 4, 2)
        model = fit_ols(ds, range(4))
        stripped = remove_unit(model, ds.X[3], float(ds.y[3]))
        with pytest.raises(TooFewObservationsError):
            remove_unit(stripped, ds.X[2], float(ds.y[2]))

    def test_removal_of_sole_support_point_breaks_down(self):
        # the only member at x=1 carries leverage one
        ds = Dataset(X=[[0.0], [0.0], [1.0]], y=[1.0, 2.0, 5.0])
        model = fit_ols(ds, range(3))
        with pytest.raises(NumericalBreakdownError):
            remove_unit(model, [1.0], 5.0)

    def test_long_update_sequences_stay_near_refit(self, rng):
        ds = random_dataset(rng, 120, 3)
        members = set(range(60))
        model = fit_ols(ds, members)
        outside = list(range(60, 120))
        for step in range(50):
            if step % 2 == 0:
                unit = outside.pop()
                members.add(unit)
                model = add_unit(model, ds.X[unit], float(ds.y[unit]))
            else:
                unit = min(members)
                members.remove(unit)
                model = remove_unit(model, ds.X[unit], float(ds.y[unit]))
        oracle = reference_fit(ds, members)
        assert np.allclose(model.beta, oracle, rtol=1e-5)
        refit = fit_ols(ds, members).gram_inv
        assert np.abs(model.gram_inv - refit).max() <= 1e-10 * np.abs(refit).max()


class TestSsrDeltas:
    def test_add_delta_matches_refit(self, rng):
        ds = random_dataset(rng, 26, 2)
        members = list(range(25))
        model = fit_ols(ds, members)
        before = region_ssr(model, ds, members)
        grown = fit_ols(ds, range(26))
        after = region_ssr(grown, ds, range(26))
        delta = ssr_increase_if_added(model, ds.X[25], float(ds.y[25]))
        assert delta == pytest.approx(after - before, rel=1e-9, abs=1e-12)

    def test_remove_delta_matches_refit(self, rng):
        ds = random_dataset(rng, 25, 2)
        model = fit_ols(ds, range(25))
        before = region_ssr(model, ds, range(25))
        shrunk = fit_ols(ds, range(24))
        after = region_ssr(shrunk, ds, range(24))
        delta = ssr_decrease_if_removed(model, ds.X[24], float(ds.y[24]))
        assert delta == pytest.approx(before - after, rel=1e-9, abs=1e-12)


@st.composite
def stack_cases(draw):
    """A model, a stack of rows to add and a stack of its members to drop.

    The model is fitted on at least 3(m+1) random rows, so no member's
    leverage comes near 1 (that case must raise; see below). Rows to add
    mix members with rows outside the fit. Either stack may be empty or
    repeat a row.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3))
    fitted, outside = draw(st.integers(3 * (m + 1), 30)), draw(st.integers(0, 10))
    ds = random_dataset(rng, fitted + outside, m, noise=draw(st.floats(0.1, 2.0)))
    added = rng.choice(fitted + outside, size=draw(st.integers(0, 12)))
    dropped = rng.choice(fitted, size=draw(st.integers(0, 12)))
    return (fit_ols(ds, range(fitted)), (ds.X[added], ds.y[added]),
            (ds.X[dropped], ds.y[dropped]))


@st.composite
def breakdown_stacks(draw):
    """A model fitted on exactly m+1 rows, so each member has leverage 1,
    and a stack of outside rows with one member inserted.

    The members are the vertices of a jittered, shifted and scaled
    simplex, so the fit is well conditioned and the computed leverage of
    a member misses 1 only by rounding.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3))
    outside = draw(st.integers(0, 8))
    simplex = np.vstack((np.zeros(m), np.eye(m))) + 0.1 * rng.normal(size=(m + 1, m))
    support = rng.normal(size=m) + draw(st.floats(0.5, 2.0)) * simplex
    ds = Dataset(X=np.vstack((support, rng.normal(size=(outside, m)))),
                 y=rng.normal(size=m + 1 + outside))
    rows = list(range(m + 1, m + 1 + outside))
    rows.insert(draw(st.integers(0, outside)), draw(st.integers(0, m)))
    return fit_ols(ds, range(m + 1)), ds.X[rows], ds.y[rows]


class TestRankOneStacks:
    @settings(max_examples=150, deadline=None)
    @given(stack_cases())
    def test_stack_equals_scalar_rows(self, case):
        model, added, dropped = case
        for test, sign, (x, y) in ((ssr_increase_if_added, 1.0, added),
                                   (ssr_decrease_if_removed, -1.0, dropped)):
            stacked = test(model, x, y)
            assert isinstance(stacked, np.ndarray) and stacked.shape == y.shape
            scalar = [test(model, x[i], float(y[i])) for i in range(len(y))]
            assert all(type(value) is float for value in scalar)
            # rtol 1e-12, widened only where a residual is far below its terms
            gap = np.abs(stacked - np.array(scalar))
            assert (gap <= 1e-12 * np.abs(stacked) + rank_one_rounding(model, x, y, sign)).all()

    @settings(max_examples=60, deadline=None)
    @given(breakdown_stacks())
    def test_stack_with_unit_leverage_row_raises(self, case):
        model, x, y = case
        with pytest.raises(NumericalBreakdownError, match="leverage"):
            ssr_decrease_if_removed(model, x, y)
        # adding a row never divides by less than one
        assert (ssr_increase_if_added(model, x, y) >= 0.0).all()

    def test_stack_shape_mismatch_rejected(self, rng):
        ds = random_dataset(rng, 10, 2)
        model = fit_ols(ds, range(10))
        with pytest.raises(ValueError, match="row stack"):
            ssr_increase_if_added(model, ds.X[:3], ds.y[:2])
        with pytest.raises(ValueError, match="row stack"):
            ssr_decrease_if_removed(model, ds.X[:3, :1], ds.y[:3])

    def test_single_row_of_wrong_length_rejected(self, rng):
        ds = random_dataset(rng, 10, 2)
        model = fit_ols(ds, range(10))
        for rank_one in RANK_ONE_FUNCTIONS:
            with pytest.raises(ValueError, match="row stack"):
                rank_one(model, np.ones(3), 1.0)


class TestMergedRegionSsr:
    def test_joint_fit_never_beats_separate_fits(self, rng):
        for _ in range(10):
            ds = random_dataset(rng, 40, 2, noise=1.0)
            left, right = range(0, 20), range(20, 40)
            separate = region_ssr(fit_ols(ds, left), ds, left) + region_ssr(
                fit_ols(ds, right), ds, right
            )
            joint = region_ssr(fit_ols(ds, range(40)), ds, range(40))
            assert joint >= separate - 1e-9


@st.composite
def merge_identity_cases(draw):
    """A dataset, a block ``a`` of any size, 1 to 3 fitted blocks ``b`` and an rng.

    Responses range from noise-free to noisy and covariates over four
    orders of magnitude, with an offset; ``b`` blocks have at least m+1
    rows and ``a`` may have fewer. The rng cuts blocks into chunks.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3))
    count = draw(st.integers(1, 3))
    sizes = [draw(st.integers(m + 1, 30)) for _ in range(count)]
    size_a = draw(st.integers(1, 30))
    n = size_a + sum(sizes)
    noise = draw(st.sampled_from([0.0, 1e-9, 1e-4]) | st.floats(0.0, 2.0))
    x = rng.normal(size=(n, m)) * 10 ** draw(st.floats(-2, 2)) + draw(st.floats(-50, 50))
    beta = rng.normal(size=m + 1) * 10 ** draw(st.floats(-2, 2))
    ds = Dataset(X=x, y=beta[0] + x @ beta[1:] + noise * rng.normal(size=n))
    order = rng.permutation(n)
    a = np.sort(order[:size_a])
    bounds = np.cumsum([size_a, *sizes])
    blocks = [np.sort(order[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return ds, a, blocks, rng


def cross(ds, members, rng=None):
    """``Z'Z`` with ``Z = [1 X y]`` over ``members``.

    With an ``rng`` it is summed over up to four random chunks of the
    members, as the merge stage sums it over a region's merge history.
    """
    z = np.column_stack((ds.augmented, ds.y))[members]
    if rng is None:
        return z.T @ z
    cuts = rng.choice(np.arange(1, len(z) + 1), size=min(int(rng.integers(4)), len(z)),
                      replace=False)
    chunks = np.split(z[rng.permutation(len(z))], np.sort(cuts))
    return sum(c.T @ c for c in chunks if len(c))


def block_ssr(ds, members):
    """SSR of a block's fit, 0.0 for a block of fewer than m+1 rows."""
    return fit_ols(ds, members).ssr if len(members) > ds.m else 0.0


def score_unions(ds, a, blocks, rng=None):
    """``union_delta`` of ``a`` with each block, and each union's exact change by ``fit_ols``."""
    ssr_a, cross_a = block_ssr(ds, a), cross(ds, a, rng)
    ssr = np.array([ssr_a + block_ssr(ds, b) for b in blocks])
    delta, err = union_delta(np.array([cross_a + cross(ds, b, rng) for b in blocks]), ssr,
                             np.array([len(a) + len(b) for b in blocks]))
    exact = [fit_ols(ds, np.sort(np.concatenate((a, b)))).ssr - s for b, s in zip(blocks, ssr)]
    return delta, err, np.array(exact)


class TestMergeIdentities:
    """``union_delta`` bounds the exact union fits within ``err``."""

    @settings(max_examples=300, deadline=None)
    @given(merge_identity_cases())
    def test_within_err_of_union_fit(self, case):
        ds, a, blocks, rng = case
        delta, err, exact = score_unions(ds, a, blocks, rng)
        certified = np.isfinite(err)
        assume(certified.any())
        assert (err[certified] >= 0.0).all()
        assert (np.abs(delta - exact)[certified] <= err[certified]).all()

    @pytest.mark.parametrize("eps", CONDITION_EPS)
    @pytest.mark.parametrize("size_a", [1, 2, 12])
    def test_condition_designs(self, eps, size_a):
        ds = condition_design(eps)
        a, b = np.arange(size_a), np.arange(size_a, 40)
        gram = ds.augmented.T @ ds.augmented
        try:
            certified = _frobenius_condition_sq(gram, np.linalg.inv(gram)) < \
                _CERTIFIED_CONDITION_SQ
        except np.linalg.LinAlgError:
            certified = False
        try:
            delta, err, exact = score_unions(ds, a, [b])
        except np.linalg.LinAlgError:
            # the summed Gram is exactly singular; the batch gets no bound
            assert not certified
            return
        # err is nan where the union's fit fails the Frobenius screen too
        assert np.isfinite(err[0]) == certified
        if certified:
            assert abs(delta[0] - exact[0]) <= err[0]

    def test_zero_response_bounds_are_exact_zeros(self, rng):
        ds = Dataset(X=rng.normal(size=(30, 2)), y=np.zeros(30))
        for a in (np.arange(2), np.arange(10)):
            delta, err, _ = score_unions(ds, a, [np.arange(10, 30)])
            assert delta.tolist() == [0.0] and err.tolist() == [0.0]

    def test_unions_without_two_certified_fits_are_bounded(self, rng):
        # two pieces too small for a model, and a piece whose fit the SVD
        # decided, each joined with a well-conditioned region
        x = rng.normal(size=(30, 2))
        x[:3, 1] = 2.0 * x[:3, 0]
        ds = Dataset(X=x, y=rng.normal(size=30))
        assert fit_ols(ds, np.arange(3)).degenerate
        for a, b in [(np.arange(3, 5), np.arange(5, 7)), (np.arange(3), np.arange(3, 30))]:
            delta, err, exact = score_unions(ds, a, [b])
            assert np.isfinite(err[0]) and abs(delta[0] - exact[0]) <= err[0]


class TestScaler:
    def test_transform_zscores_columns(self, rng):
        ds = random_dataset(rng, 50, 2)
        scaled = Scaler.fit(ds).transform(ds)
        assert np.allclose(scaled.X.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(scaled.X.std(axis=0), 1.0, atol=1e-12)
        assert scaled.y.mean() == pytest.approx(0.0, abs=1e-12)

    def test_transformed_coefficients_reproduce_scaled_signal(self, rng):
        x = rng.random((40, 2))
        raw_rows = np.array([[0.5, 2.0, -1.0]])
        y = raw_rows[0, 0] + x @ raw_rows[0, 1:]
        ds = Dataset(X=x, y=y)
        scaler = Scaler.fit(ds)
        scaled = scaler.transform(ds)
        z_rows = scaler.transform_coefficients(raw_rows)
        predicted = z_rows[0, 0] + scaled.X @ z_rows[0, 1:]
        assert np.allclose(predicted, scaled.y, atol=1e-10)
