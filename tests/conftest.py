import numpy as np
import pytest

from spregimes import SimulationSpec, build_grid_graph, generate_suite


@pytest.fixture(scope="session")
def grid25():
    return build_grid_graph(25, 25)


@pytest.fixture(scope="session")
def rect_sim(grid25):
    """One low-noise striped simulation shared across test modules."""
    spec = SimulationSpec(seed=3, sigma=0.1)
    return generate_suite(spec, 1)[0]


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def rank_one_rounding(model, x, y, sign):
    """Bound on the rounding gap of ``e^2 / (1 + sign * h)`` between two evaluations.

    Evaluations that sum the residual e and the leverage h in different
    orders (a dot product against a matrix product) may differ by this
    much, per row of ``x`` (one row or a stack): e and h each carry a few
    units in the last place of the sums of their absolute terms, a
    residual far smaller than its terms keeps little relative accuracy,
    and a denominator near zero (a leverage near 1) amplifies both.
    """
    u = 8 * np.finfo(float).eps
    x = np.atleast_2d(x)
    z = np.column_stack((np.ones(len(x)), x))
    y = np.atleast_1d(y)
    e = y - z @ model.beta
    h = np.einsum("ij,jk,ik->i", z, model.gram_inv, z)
    denom = np.abs(1.0 + sign * h)
    de = u * (np.abs(y) + np.abs(z) @ np.abs(model.beta))
    dh = u * np.einsum("ij,jk,ik->i", np.abs(z), np.abs(model.gram_inv), np.abs(z))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = (2 * np.abs(e) * de + e * e * (dh / denom + u)) / denom
    return np.where(denom > 0, bound, np.inf)
