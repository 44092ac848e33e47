"""Cross-backend equivalence matrix.

All three index backends must be observationally identical on the same
data — for raw queries and through the whole why-not pipeline.
"""

import numpy as np
import pytest

from repro import WhyNotEngine
from repro.data.cardb import generate_cardb
from repro.data.paperdata import paper_points, paper_query
from repro.exceptions import InvalidParameterError
from repro.geometry.box import Box
from repro.index import make_index
from repro.index.scan import ScanIndex

BACKENDS = ["scan", "rtree"]


@pytest.fixture(scope="module")
def random_points():
    return np.random.default_rng(77).uniform(0, 100, size=(400, 2))


def test_make_index_rejects_unknown_backends(random_points):
    for name in ("kdtree", "quadtree"):
        with pytest.raises(InvalidParameterError) as err:
            make_index(name, random_points)
        for known in BACKENDS:
            assert repr(known) in str(err.value)


class TestRawQueries:
    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_range_matches_scan(self, backend, random_points):
        index = make_index(backend, random_points)
        oracle = ScanIndex(random_points)
        rng = np.random.default_rng(5)
        for _ in range(40):
            lo = rng.uniform(0, 90, size=2)
            box = Box(lo, lo + rng.uniform(0, 30, size=2))
            assert np.array_equal(
                index.range_indices(box), oracle.range_indices(box)
            ), backend

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_knn_distances_match_scan(self, backend, random_points):
        index = make_index(backend, random_points)
        oracle = ScanIndex(random_points)
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = rng.uniform(0, 100, size=2)
            k = int(rng.integers(1, 8))
            a = np.sort(
                np.linalg.norm(random_points[index.knn_indices(p, k)] - p, axis=1)
            )
            b = np.sort(
                np.linalg.norm(random_points[oracle.knn_indices(p, k)] - p, axis=1)
            )
            assert np.allclose(a, b), backend


class TestPipelineEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_paper_example_identical(self, backend):
        engine = WhyNotEngine(paper_points(), backend=backend)
        q = paper_query()
        assert engine.reverse_skyline(q).tolist() == [1, 2, 3, 5, 7]
        mwp = {tuple(c.point) for c in engine.modify_why_not_point(0, q)}
        assert mwp == {(5.0, 48.5), (8.0, 30.0)}
        assert engine.modify_both(0, q).cost == 0.0

    def test_cardb_costs_identical_across_backends(self):
        dataset = generate_cardb(400, seed=3)
        q = np.median(dataset.points, axis=0)
        costs = {}
        for backend in BACKENDS:
            engine = WhyNotEngine(
                dataset.points, backend=backend, bounds=dataset.bounds
            )
            members = engine.reverse_skyline(q)
            why_not = next(
                j
                for j in range(dataset.size)
                if j not in set(members.tolist())
                and not engine.explain(j, q).is_member
            )
            costs[backend] = (
                tuple(members.tolist()),
                engine.modify_why_not_point(why_not, q).best().cost,
                engine.modify_both(why_not, q).cost,
            )
        reference = costs["scan"]
        for backend in BACKENDS[1:]:
            assert costs[backend] == reference, backend
