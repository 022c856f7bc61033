import itertools
import math

import numpy as np
import pytest

from spregimes import (
    Dataset,
    Partition,
    RegionModel,
    Scaler,
    SolveResult,
    coefficient_mae,
    entropy,
    evaluate,
    mutual_information,
    nmi,
    rand_index,
)
from spregimes.synthgen import GroundTruth


def pair_counting_rand(a, b):
    """Direct oracle: classify every unit pair and count agreements."""
    n = len(a)
    agree = total = 0
    for i, j in itertools.combinations(range(n), 2):
        total += 1
        if (a[i] == a[j]) == (b[i] == b[j]):
            agree += 1
    return agree / total


def contingency_mi(a, b):
    """Direct oracle: mutual information from an explicit contingency table."""
    n = len(a)
    table = {}
    for x, y in zip(a, b):
        table[(x, y)] = table.get((x, y), 0) + 1
    row = {}
    col = {}
    for (x, y), c in table.items():
        row[x] = row.get(x, 0) + c
        col[y] = col.get(y, 0) + c
    return sum(
        c / n * math.log(n * c / (row[x] * col[y])) for (x, y), c in table.items()
    )


def all_partitions(n):
    """Every set partition of range(n), as first-appearance label tuples."""
    out = []

    def extend(labels, used):
        if len(labels) == n:
            out.append(tuple(labels))
            return
        for lab in range(used):
            extend(labels + [lab], used)
        extend(labels + [used], used + 1)

    extend([], 0)
    return out


def make_result(labels, coeff_rows):
    part = Partition(np.asarray(labels), int(max(labels)) + 1)
    models = [
        RegionModel(beta=np.asarray(row, dtype=float), gram_inv=None, n_obs=int(size))
        for row, size in zip(coeff_rows, part.sizes())
    ]
    return SolveResult(partition=part, models=models, total_ssr=0.0,
                       iterations_used=0, seed=0, wall_time=0.0, trace=[])


class TestRandIndex:
    def test_identical_partitions(self):
        assert rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_four_unit_reference_configuration(self):
        # truth {u1,u2},{u3,u4}; estimate {u1},{u2,u3,u4}:
        # one TP, one FN, two FP, two TN -> 0.5
        assert rand_index([0, 0, 1, 1], [0, 1, 1, 1]) == 0.5

    def test_singletons_against_two_pairs(self):
        assert rand_index([0, 0, 1, 1], [0, 1, 2, 3]) == pytest.approx(4 / 6)

    def test_symmetry_and_label_invariance(self, rng):
        for _ in range(20):
            a = rng.integers(0, 3, size=12)
            b = rng.integers(0, 4, size=12)
            a[:3], b[:4] = [0, 1, 2], [0, 1, 2, 3]
            assert rand_index(a, b) == pytest.approx(rand_index(b, a))
            shuffled = (2 - a) % 3
            assert rand_index(a, b) == pytest.approx(rand_index(shuffled, b))

    def test_differing_partitions_score_below_one(self, rng):
        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([0, 1, 1, 1, 2, 2])
        assert rand_index(a, b) < 1.0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="units"):
            rand_index([0, 1], [0, 1, 1])

    def test_exhaustive_oracle_small_n(self):
        for n in (2, 3, 4, 5):
            partitions = all_partitions(n)
            for a in partitions:
                for b in partitions:
                    assert rand_index(a, b) == pytest.approx(
                        pair_counting_rand(a, b), abs=1e-12
                    )


class TestEntropy:
    def test_single_region_zero(self):
        assert entropy([0, 0, 0]) == 0.0

    def test_two_equal_halves(self):
        assert entropy([0, 0, 1, 1]) == pytest.approx(math.log(2))

    def test_one_three_split(self):
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert entropy([0, 1, 1, 1]) == pytest.approx(expected)
        assert expected == pytest.approx(0.5623, abs=1e-4)

    def test_maximal_for_equal_sizes(self, rng):
        balanced = entropy([0, 0, 1, 1, 2, 2])
        for labels in ([0, 0, 0, 1, 2, 2], [0, 0, 0, 0, 1, 2]):
            assert entropy(labels) < balanced


class TestMutualInformation:
    def test_self_information_equals_entropy(self):
        labels = [0, 0, 1, 1, 2]
        assert mutual_information(labels, labels) == pytest.approx(entropy(labels))

    def test_single_region_estimate_carries_nothing(self):
        assert mutual_information([0, 0, 1, 1], [0, 0, 0, 0]) == pytest.approx(0.0)

    def test_crossed_partitions_are_independent(self):
        assert mutual_information([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0)

    def test_non_negative(self, rng):
        for _ in range(50):
            a = rng.integers(0, 4, size=16)
            b = rng.integers(0, 3, size=16)
            assert mutual_information(a, b) >= -1e-12

    def test_exhaustive_oracle_small_n(self):
        for n in (2, 3, 4, 5):
            partitions = all_partitions(n)
            for a in partitions:
                for b in partitions:
                    assert mutual_information(a, b) == pytest.approx(
                        contingency_mi(a, b), abs=1e-12
                    )


class TestNmi:
    def test_identical_two_region_partitions(self):
        assert nmi([0, 0, 1, 1], [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_independent_partitions(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0)

    def test_refinement_case(self):
        # I = ln 2, H1 = ln 2, H2 = (ln 2)/2 + ln(4)/2
        value = nmi([0, 0, 1, 1], [0, 0, 1, 2])
        h2 = -(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25))
        expected = math.log(2) / math.sqrt(math.log(2) * h2)
        assert value == pytest.approx(expected)
        assert value == pytest.approx(0.8165, abs=1e-4)

    def test_degenerate_single_region_rules(self):
        assert nmi([0, 0, 0], [0, 0, 0]) == 1.0
        assert nmi([0, 0, 0], [0, 1, 1]) == 0.0
        assert nmi([0, 1, 1], [0, 0, 0]) == 0.0

    def test_symmetry(self, rng):
        for _ in range(20):
            a = rng.integers(0, 3, size=10)
            b = rng.integers(0, 3, size=10)
            a[:3], b[:3] = [0, 1, 2], [0, 1, 2]
            assert nmi(a, b) == pytest.approx(nmi(b, a))

    def test_range(self, rng):
        for _ in range(50):
            a = rng.integers(0, 4, size=14)
            b = rng.integers(0, 4, size=14)
            a[:4], b[:4] = [0, 1, 2, 3], [0, 1, 2, 3]
            assert 0.0 <= nmi(a, b) <= 1.0


class TestCoefficientMae:
    def make_truth(self, labels, rows):
        n = len(labels)
        ds = Dataset(X=np.zeros((n, 2)), y=np.zeros(n))
        return GroundTruth(
            true_partition=Partition(np.asarray(labels), int(max(labels)) + 1),
            true_coefficients=np.asarray(rows, dtype=float),
            dataset=ds,
        )

    def test_exact_recovery_gives_zeros(self):
        labels = [0, 0, 1, 1]
        rows = [[0.0, 1.0, -1.0], [0.0, 2.0, 0.5]]
        truth = self.make_truth(labels, rows)
        result = make_result(labels, rows)
        assert np.allclose(coefficient_mae(truth, result), 0.0)

    def test_constant_estimate_against_spread_pool(self):
        # five equal regions with b1 in {-2,-1,0,1,2}; estimate says 0 everywhere
        labels = np.repeat(np.arange(5), 125)
        rows = [[0.0, b, 0.0] for b in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        truth = self.make_truth(labels, rows)
        result = make_result(labels, [[0.0, 0.0, 0.0]] * 5)
        mae = coefficient_mae(truth, result)
        assert mae[1] == pytest.approx(1.2)
        assert mae[0] == 0.0

    def test_single_misassigned_unit_contribution(self):
        n = 40
        labels = np.repeat([0, 1], n // 2)
        rows = [[0.0, 2.0, 0.0], [0.0, -2.0, 0.0]]
        truth = self.make_truth(labels, rows)
        estimate = labels.copy()
        estimate[0] = 1  # one unit lands across the b1 = 2 vs -2 boundary
        result = make_result(estimate, rows)
        assert coefficient_mae(truth, result)[1] == pytest.approx(4.0 / n)

    def test_invariant_under_relabeling(self):
        labels = [0, 0, 1, 1, 2, 2]
        rows = [[0.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 3.0, 0.0]]
        truth = self.make_truth(labels, rows)
        base = coefficient_mae(truth, make_result(labels, rows))
        flipped = coefficient_mae(
            truth, make_result([2, 2, 0, 0, 1, 1], [rows[1], rows[2], rows[0]])
        )
        assert np.allclose(base, flipped)


class TestEvaluate:
    def test_perfect_reconstruction_scores_perfectly(self, rng):
        n = 30
        labels = np.repeat([0, 1], n // 2)
        x = rng.random((n, 2))
        rows = np.array([[0.0, 2.0, -1.0], [1.0, -2.0, 1.0]])
        per_unit = rows[labels]
        y = per_unit[:, 0] + (per_unit[:, 1:] * x).sum(axis=1)
        ds = Dataset(X=x, y=y)
        truth = GroundTruth(Partition(labels, 2), rows, ds)
        result = make_result(labels, rows)
        report = evaluate(truth, result)
        assert report.total_ssr == pytest.approx(0.0, abs=1e-18)
        assert report.rand_index == 1.0
        assert report.nmi == pytest.approx(1.0)
        assert np.allclose(report.mae_per_coefficient, 0.0)
        assert report.region_count == 2

    def test_standardized_evaluation_consistent(self, rng):
        n = 40
        labels = np.repeat([0, 1], n // 2)
        x = rng.random((n, 2))
        rows = np.array([[0.0, 2.0, -1.0], [1.0, -2.0, 1.0]])
        per_unit = rows[labels]
        y = per_unit[:, 0] + (per_unit[:, 1:] * x).sum(axis=1)
        ds = Dataset(X=x, y=y)
        truth = GroundTruth(Partition(labels, 2), rows, ds)
        scaler = Scaler.fit(ds)
        z_rows = scaler.transform_coefficients(rows)
        result = make_result(labels, z_rows)
        report = evaluate(truth, result, scaler=scaler)
        assert report.total_ssr == pytest.approx(0.0, abs=1e-16)
        assert np.allclose(report.mae_per_coefficient, 0.0, atol=1e-12)
