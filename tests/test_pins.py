"""Exact bytes of the files the package writes and exact bits of its metrics.

The acceptance reruns compare two runs of one build. These pins compare a
build with recorded values, so a change to a file format or to the order
of a metric's arithmetic fails here even when it is deterministic.
"""

import hashlib

import numpy as np
import pytest

from spregimes import entropy, generate_suite, mutual_information, nmi, rand_index
from spregimes.benchmark import run_benchmark, write_benchmark_csvs
from spregimes.io import write_suite
from spregimes.solvers import SolverConfig
from spregimes.synthgen import SimulationSpec


def sha1(path) -> str:
    return hashlib.sha1(path.read_bytes()).hexdigest()


def tree_digests(root) -> dict[str, str]:
    return {path.relative_to(root).as_posix(): sha1(path)
            for path in sorted(root.rglob("*")) if path.is_file()}


SUITE_DIGESTS = {
    "rectangular": {
        "manifest.json": "84518fde9ab3c295a2e444548f13c423f10ff7b3",
        "sim_000/data.csv": "02740943a4617f8258ca7e75c3793fef7af05f54",
        "sim_000/manifest.json": "237cadf067384ee0a42fdd57f27fa8fa7040e4da",
        "sim_000/true_coefficients.csv": "ffa82a6d918d860e2a5c8ceb2351ca6e1b1f78ec",
        "sim_000/true_partition.csv": "014cc00cbeee3d7e6953670095b2cd584a9de780",
        "sim_001/data.csv": "3e4b69114e733c10428eb24a4dbb3c1d1a68ed26",
        "sim_001/manifest.json": "4fd0c74907e07eb515afe6d10ef21a594b679e23",
        "sim_001/true_coefficients.csv": "0d014ada5566e6a1e846243bf6cd302fd31a1a0b",
        "sim_001/true_partition.csv": "014cc00cbeee3d7e6953670095b2cd584a9de780",
    },
    "voronoi": {
        "manifest.json": "797f19b92ef1d991fd618d7fdc9b4d1918b0fb4e",
        "sim_000/data.csv": "996c8aefd56eaf1225951e4adbd7021bc02975f5",
        "sim_000/manifest.json": "dc318bc5aa5bc1c1fbdd24073c2520c6fc029c25",
        "sim_000/true_coefficients.csv": "7f331de1e0291c2447bbbb2c9a4e3613fa711260",
        "sim_000/true_partition.csv": "f3acac3581d207c1320b73cf63608555fdcdb98d",
        "sim_001/data.csv": "79599d7cc079ed0b03fdb7ae12e63de53b3412f9",
        "sim_001/manifest.json": "c0619c5a552fdcb28a4b1615cb43afdbda7c22c1",
        "sim_001/true_coefficients.csv": "af63da0906e32e9b2f473aaa5bd374602b8a7f01",
        "sim_001/true_partition.csv": "7bb8e3769a0b17a9a0391265e383e34bc6595070",
    },
    "arbitrary": {
        "manifest.json": "cb183b4edca790e824ad5bbe1566426ae0774269",
        "sim_000/data.csv": "204eb06bbd63176ae53e08dca6759372cdce3768",
        "sim_000/manifest.json": "752cea59dd2be12ff4da6a08a997a92757122000",
        "sim_000/true_coefficients.csv": "3434f5dfa22bca71c6c736777424cc8f5b16b84c",
        "sim_000/true_partition.csv": "fc714e0b2eb4968425cb5baed831fc5d2b11f6a3",
        "sim_001/data.csv": "85465e2abf84afd8495c707ef8c36dfad8742e88",
        "sim_001/manifest.json": "1582dacd6d75caaa31cc648c4805adfe9e9b2ef3",
        "sim_001/true_coefficients.csv": "f2f502fe54905f9f98c0bfc8c8bb61e720c171dd",
        "sim_001/true_partition.csv": "1e49c3da991b2c28d9537d6aaa8f65b0ddae69bf",
    },
}


@pytest.mark.parametrize("scheme", sorted(SUITE_DIGESTS))
def test_write_suite_bytes(tmp_path, scheme):
    spec = SimulationSpec(rows=8, cols=6, scheme=scheme, region_count=3, min_region_units=6,
                          sigma=0.2, seed=17)
    write_suite(tmp_path, spec, generate_suite(spec, 2))
    assert tree_digests(tmp_path) == SUITE_DIGESTS[scheme]


def test_benchmark_csv_bytes(tmp_path):
    spec = SimulationSpec(rows=8, cols=8, region_count=2, min_region_units=8, sigma=0.1,
                          seed=29)
    write_suite(tmp_path / "suite", spec, generate_suite(spec, 2))
    report = run_benchmark(tmp_path / "suite", ["kmodels", "azp", "rkm"],
                           SolverConfig(p=2, min_obs=8, K=6, seed=3))
    paths = write_benchmark_csvs(tmp_path / "out", report)
    assert {name: sha1(paths[name]) for name in ("runs", "summary")} == {
        "runs": "1a2d1be137fd9ff088f69f514eed768bee437aae",
        "summary": "27340ccc271b11d56ae9dd0091fcee9065fd4ec1",
    }


def test_metric_bits():
    rng = np.random.default_rng(2024)
    truth = rng.integers(0, 6, 700)
    estimate = np.where(rng.random(700) < 0.7, truth, rng.integers(0, 8, 700))
    assert [repr(v) for v in (rand_index(truth, estimate), nmi(truth, estimate),
                              mutual_information(truth, estimate),
                              entropy(truth), entropy(estimate))] == [
        "0.8607439198855508", "0.4400199925839965", "0.8300607369722051",
        "1.7897015445226907", "1.988356766587309",
    ]
