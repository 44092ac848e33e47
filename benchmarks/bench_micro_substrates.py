"""Micro-benchmarks of the substrates: skyline kernels, dynamic skyline,
BBS, and the R-tree paths the higher layers lean on."""

from __future__ import annotations

import numpy as np
import pytest

from repro.index.rtree import RTree
from repro.skyline.algorithms import skyline_indices
from repro.skyline.bbs import bbs_dynamic_skyline
from repro.skyline.dynamic import dynamic_skyline_indices


@pytest.fixture(scope="module")
def big_points():
    rng = np.random.default_rng(41)
    return rng.uniform(0, 1, size=(100_000, 2))


@pytest.fixture(scope="module")
def anti_points():
    rng = np.random.default_rng(42)
    base = rng.uniform(0, 1, size=(50_000, 1))
    pts = np.column_stack([base[:, 0], 1 - base[:, 0]])
    return np.clip(pts + rng.normal(0, 0.05, size=pts.shape), 0, 1)


def test_micro_skyline_2d_uniform(benchmark, big_points):
    result = benchmark(skyline_indices, big_points)
    benchmark.extra_info["skyline_size"] = int(result.size)


def test_micro_skyline_2d_anticorrelated(benchmark, anti_points):
    result = benchmark(skyline_indices, anti_points)
    benchmark.extra_info["skyline_size"] = int(result.size)


def test_micro_skyline_4d(benchmark):
    rng = np.random.default_rng(43)
    pts = rng.uniform(0, 1, size=(20_000, 4))
    result = benchmark(skyline_indices, pts)
    benchmark.extra_info["skyline_size"] = int(result.size)


def test_micro_dynamic_skyline(benchmark, big_points):
    origin = np.array([0.5, 0.5])
    result = benchmark(dynamic_skyline_indices, big_points, origin)
    benchmark.extra_info["dsl_size"] = int(result.size)


def test_micro_bbs_dynamic_skyline(benchmark, big_points):
    tree = RTree(big_points)
    origin = np.array([0.5, 0.5])
    result = benchmark(bbs_dynamic_skyline, tree, origin)
    benchmark.extra_info["dsl_size"] = int(result.size)


def test_micro_bbs_matches_scan(big_points):
    tree = RTree(big_points)
    origin = np.array([0.5, 0.5])
    assert np.array_equal(
        bbs_dynamic_skyline(tree, origin),
        dynamic_skyline_indices(big_points, origin),
    )


def test_micro_bnl_skyline(benchmark):
    from repro.skyline.bnl import bnl_skyline_indices

    rng = np.random.default_rng(44)
    pts = rng.uniform(0, 1, size=(5_000, 2))
    result = benchmark(bnl_skyline_indices, pts, 64)
    benchmark.extra_info["skyline_size"] = int(result.size)


def test_micro_dnc_skyline(benchmark):
    from repro.skyline.dnc import dnc_skyline_indices

    rng = np.random.default_rng(45)
    pts = rng.uniform(0, 1, size=(20_000, 2))
    result = benchmark(dnc_skyline_indices, pts)
    benchmark.extra_info["skyline_size"] = int(result.size)


def test_micro_kskyband(benchmark):
    from repro.extensions.kskyband import kskyband_indices

    rng = np.random.default_rng(46)
    pts = rng.uniform(0, 1, size=(4_000, 2))
    result = benchmark(kskyband_indices, pts, 4)
    benchmark.extra_info["band_size"] = int(result.size)


def test_micro_all_skyline_algorithms_agree():
    from repro.skyline.bnl import bnl_skyline_indices
    from repro.skyline.dnc import dnc_skyline_indices

    rng = np.random.default_rng(47)
    pts = rng.uniform(0, 1, size=(3_000, 2))
    reference = skyline_indices(pts)
    assert np.array_equal(bnl_skyline_indices(pts), reference)
    assert np.array_equal(dnc_skyline_indices(pts), reference)
