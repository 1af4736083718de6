"""Tests for dataset generation, density math and the dataset container."""

import random
import statistics

import numpy as np
import pytest

from repro import (
    QueryGraph,
    Rect,
    SpatialDataset,
    UNIT_WORKSPACE,
    planted_instance,
    uniform_dataset,
    zipf_dataset,
)
from repro.data import (
    density_for_extent,
    density_of_rects,
    extent_for_density,
    gaussian_cluster_dataset,
    gaussian_cluster_rects,
    plant_clique_solution,
    uniform_rects,
    zipf_rects,
)
from repro.query.selectivity import density_for_solutions
from repro.index.queries import search_items


class TestDensityMath:
    def test_roundtrip(self):
        extent = extent_for_density(10_000, 0.2)
        assert density_for_extent(10_000, extent) == pytest.approx(0.2)

    def test_extent_formula(self):
        # d = N·|r|²  =>  |r| = sqrt(d/N)
        assert extent_for_density(100, 1.0) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            extent_for_density(0, 0.1)
        with pytest.raises(ValueError):
            extent_for_density(10, -0.1)
        with pytest.raises(ValueError):
            density_for_extent(10, -1.0)

    def test_density_of_rects(self):
        rects = [Rect(0, 0, 0.5, 0.5), Rect(0.5, 0.5, 1, 1)]
        assert density_of_rects(rects, UNIT_WORKSPACE) == pytest.approx(0.5)

    def test_degenerate_workspace_rejected(self):
        with pytest.raises(ValueError):
            density_of_rects([], Rect(0, 0, 0, 1))


class TestUniformGenerator:
    def test_exact_density_without_jitter(self):
        rng = random.Random(1)
        rects = uniform_rects(1_000, 0.3, rng)
        assert density_of_rects(rects, UNIT_WORKSPACE) == pytest.approx(0.3)

    def test_all_rects_are_squares(self):
        rng = random.Random(2)
        for rect in uniform_rects(50, 0.1, rng):
            assert rect.width == pytest.approx(rect.height)

    def test_jitter_keeps_mean_extent(self):
        rng = random.Random(3)
        rects = uniform_rects(5_000, 0.2, rng, extent_jitter=0.5)
        expected = extent_for_density(5_000, 0.2)
        mean_extent = statistics.fmean(r.width for r in rects)
        assert mean_extent == pytest.approx(expected, rel=0.05)

    def test_deterministic_given_seed(self):
        assert uniform_rects(20, 0.1, random.Random(9)) == uniform_rects(
            20, 0.1, random.Random(9)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_rects(0, 0.1, random.Random(0))
        with pytest.raises(ValueError):
            uniform_rects(10, 0.1, random.Random(0), extent_jitter=1.0)

    def test_custom_workspace_scales_extent(self):
        rng = random.Random(4)
        workspace = Rect(0, 0, 10, 10)
        rects = uniform_rects(100, 0.25, rng, workspace=workspace)
        assert density_of_rects(rects, workspace) == pytest.approx(0.25)


class TestGaussianGenerator:
    def test_density_preserved(self):
        rng = random.Random(5)
        rects = gaussian_cluster_rects(2_000, 0.15, rng)
        assert density_of_rects(rects, UNIT_WORKSPACE) == pytest.approx(0.15, rel=1e-6)

    def test_clustering_is_tighter_than_uniform(self):
        rng = random.Random(6)
        clustered = gaussian_cluster_rects(2_000, 0.1, rng, clusters=3, spread=0.02)
        uniform = uniform_rects(2_000, 0.1, random.Random(6))

        def center_spread(rects):
            xs = [r.center()[0] for r in rects]
            ys = [r.center()[1] for r in rects]
            return statistics.pstdev(xs) + statistics.pstdev(ys)

        assert center_spread(clustered) < center_spread(uniform)

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_cluster_rects(10, 0.1, random.Random(0), clusters=0)
        with pytest.raises(ValueError):
            gaussian_cluster_rects(10, 0.1, random.Random(0), spread=0.0)

    def test_dataset_wrapper(self):
        dataset = gaussian_cluster_dataset(300, 0.1, random.Random(7))
        assert len(dataset) == 300
        assert dataset.name == "clustered"


class TestPlanting:
    def test_planted_rects_share_a_point(self):
        rng = random.Random(8)
        rect_lists = [uniform_rects(100, 0.05, rng) for _ in range(4)]
        planted = plant_clique_solution(rect_lists, rng)
        chosen = [rect_lists[i][object_id] for i, object_id in enumerate(planted)]
        for a in chosen:
            for b in chosen:
                assert a.intersects(b)

    def test_extents_preserved(self):
        rng = random.Random(9)
        rect_lists = [uniform_rects(100, 0.05, rng) for _ in range(3)]
        before = [[r.width for r in rects] for rects in rect_lists]
        planted = plant_clique_solution(rect_lists, rng)
        for i, object_id in enumerate(planted):
            assert rect_lists[i][object_id].width == pytest.approx(before[i][object_id])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            plant_clique_solution([], random.Random(0))


class TestSpatialDataset:
    def test_container_protocol(self):
        dataset = uniform_dataset(50, 0.1, random.Random(10), name="test")
        assert len(dataset) == 50
        assert dataset[0] == dataset.rects[0]
        assert list(iter(dataset)) == dataset.rects
        assert "test" in repr(dataset)

    def test_index_is_consistent_with_table(self):
        dataset = uniform_dataset(500, 0.2, random.Random(11))
        window = Rect(0.4, 0.4, 0.6, 0.6)
        expected = {i for i, r in enumerate(dataset.rects) if r.intersects(window)}
        assert set(search_items(dataset.tree, window)) == expected

    def test_density_measurement(self):
        dataset = uniform_dataset(1_000, 0.3, random.Random(12))
        assert dataset.density() == pytest.approx(0.3)
        expected_extent = extent_for_density(1_000, 0.3)
        assert dataset.average_extent() == pytest.approx(expected_extent)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SpatialDataset([])

    def test_rejects_mismatched_tree(self):
        from repro import bulk_load

        tree = bulk_load([(Rect(0, 0, 1, 1), 0)])
        with pytest.raises(ValueError):
            SpatialDataset([Rect(0, 0, 1, 1), Rect(1, 1, 2, 2)], tree=tree)

    def test_custom_max_entries(self):
        dataset = uniform_dataset(200, 0.1, random.Random(13), max_entries=4)
        assert dataset.tree.max_entries == 4


class TestZipfGenerator:
    def test_density_exact(self):
        import random as _random

        from repro.data import zipf_rects
        from repro import UNIT_WORKSPACE
        from repro.data import density_of_rects

        rng = _random.Random(20)
        rects = zipf_rects(1_000, 0.25, rng)
        assert density_of_rects(rects, UNIT_WORKSPACE) == pytest.approx(0.25)

    def test_areas_are_skewed(self):
        import random as _random

        from repro.data import zipf_rects

        rng = _random.Random(21)
        rects = zipf_rects(1_000, 0.25, rng, skew=1.5)
        areas = sorted((r.area() for r in rects), reverse=True)
        # the largest object dwarfs the median one
        assert areas[0] > 50 * areas[len(areas) // 2]

    def test_validation(self):
        import random as _random

        from repro.data import zipf_rects

        with pytest.raises(ValueError):
            zipf_rects(0, 0.1, _random.Random(0))
        with pytest.raises(ValueError):
            zipf_rects(10, 0.1, _random.Random(0), skew=0.0)

    def test_dataset_wrapper(self):
        import random as _random

        from repro import zipf_dataset

        dataset = zipf_dataset(200, 0.2, _random.Random(22))
        assert len(dataset) == 200
        assert dataset.name == "zipf"
        assert dataset.density() == pytest.approx(0.2)


# ----------------------------------------------------------------------
# the generators fill arrays; these one-Rect-at-a-time loops (the
# generators' previous bodies) are the reference they must equal bit for bit
# ----------------------------------------------------------------------
def reference_uniform_rects(count, density, rng, workspace=UNIT_WORKSPACE, extent_jitter=0.0):
    scale = (workspace.width * workspace.height) ** 0.5
    base_extent = extent_for_density(count, density) * scale
    rects = []
    for _ in range(count):
        if extent_jitter:
            factor = rng.uniform(1.0 - extent_jitter, 1.0 + extent_jitter)
        else:
            factor = 1.0
        extent = base_extent * factor
        cx = rng.uniform(workspace.xmin, workspace.xmax)
        cy = rng.uniform(workspace.ymin, workspace.ymax)
        rects.append(Rect.from_center(cx, cy, extent, extent))
    return rects


def reference_gaussian_cluster_rects(
    count, density, rng, clusters=8, spread=0.08, workspace=UNIT_WORKSPACE
):
    scale = (workspace.width * workspace.height) ** 0.5
    extent = extent_for_density(count, density) * scale
    centroids = [
        (
            rng.uniform(workspace.xmin, workspace.xmax),
            rng.uniform(workspace.ymin, workspace.ymax),
        )
        for _ in range(clusters)
    ]
    rects = []
    for _ in range(count):
        centroid_x, centroid_y = centroids[rng.randrange(clusters)]
        cx = min(max(rng.gauss(centroid_x, spread), workspace.xmin), workspace.xmax)
        cy = min(max(rng.gauss(centroid_y, spread), workspace.ymin), workspace.ymax)
        rects.append(Rect.from_center(cx, cy, extent, extent))
    return rects


def reference_zipf_rects(count, density, rng, skew=1.5, workspace=UNIT_WORKSPACE):
    weights = [1.0 / (rank**skew) for rank in range(1, count + 1)]
    rng.shuffle(weights)
    workspace_area = workspace.area()
    total_weight = sum(weights)
    rects = []
    for weight in weights:
        area = density * workspace_area * weight / total_weight
        side = area**0.5
        aspect = rng.uniform(0.5, 2.0)
        width = side * aspect**0.5
        height = side / aspect**0.5
        cx = rng.uniform(workspace.xmin, workspace.xmax)
        cy = rng.uniform(workspace.ymin, workspace.ymax)
        rects.append(Rect.from_center(cx, cy, width, height))
    return rects


def reference_plant_clique_solution(rect_lists, rng, workspace=UNIT_WORKSPACE):
    anchor_x = rng.uniform(workspace.xmin, workspace.xmax)
    anchor_y = rng.uniform(workspace.ymin, workspace.ymax)
    planted = []
    for rects in rect_lists:
        object_id = rng.randrange(len(rects))
        original = rects[object_id]
        jitter_x = rng.uniform(-original.width / 4, original.width / 4)
        jitter_y = rng.uniform(-original.height / 4, original.height / 4)
        rects[object_id] = Rect.from_center(
            anchor_x + jitter_x, anchor_y + jitter_y, original.width, original.height
        )
        planted.append(object_id)
    return tuple(planted)


def assert_same_bits(columns, reference, rng, reference_rng):
    """Equal coordinates (``==``, no tolerance) and the same rng state after."""
    assert np.array_equal(np.asarray(columns), np.array(reference, dtype=np.float64).reshape(-1, 4))
    assert rng.random() == reference_rng.random()


OFF_UNIT = Rect(-3.0, 2.0, 7.5, 4.25)


@pytest.mark.parametrize("count", [1, 7, 5_000])
@pytest.mark.parametrize("seed", range(5))
class TestGeneratorsEqualTheScalarLoops:
    @pytest.mark.parametrize("extent_jitter", [0.0, 0.3])
    @pytest.mark.parametrize("workspace", [UNIT_WORKSPACE, OFF_UNIT])
    def test_uniform(self, count, seed, extent_jitter, workspace):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        reference = reference_uniform_rects(count, 0.4, reference_rng, workspace, extent_jitter)
        dataset = uniform_dataset(
            count, 0.4, rng, workspace=workspace, extent_jitter=extent_jitter
        )
        assert_same_bits(dataset.columns, reference, rng, reference_rng)
        assert uniform_rects(count, 0.4, random.Random(seed), workspace, extent_jitter) == reference

    def test_gaussian(self, count, seed):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        reference = reference_gaussian_cluster_rects(count, 0.3, reference_rng, 5, 0.05, OFF_UNIT)
        dataset = gaussian_cluster_dataset(count, 0.3, rng, 5, 0.05, workspace=OFF_UNIT)
        assert_same_bits(dataset.columns, reference, rng, reference_rng)
        assert gaussian_cluster_rects(count, 0.3, random.Random(seed), 5, 0.05, OFF_UNIT) == reference

    def test_zipf(self, count, seed):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        reference = reference_zipf_rects(count, 0.3, reference_rng, 1.2, OFF_UNIT)
        dataset = zipf_dataset(count, 0.3, rng, 1.2, workspace=OFF_UNIT)
        assert_same_bits(dataset.columns, reference, rng, reference_rng)
        assert zipf_rects(count, 0.3, random.Random(seed), 1.2, OFF_UNIT) == reference

    def test_planting(self, count, seed):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        reference = [reference_uniform_rects(count, 0.2, reference_rng, OFF_UNIT) for _ in range(4)]
        tables = [uniform_rects(count, 0.2, rng, OFF_UNIT) for _ in range(4)]
        expected = reference_plant_clique_solution(reference, reference_rng, OFF_UNIT)
        assert plant_clique_solution(tables, rng, OFF_UNIT) == expected
        for table, rects in zip(tables, reference):
            assert table == rects
        assert rng.random() == reference_rng.random()

    def test_planted_instance(self, count, seed):
        reference_rng = random.Random(seed)
        query = QueryGraph.clique(3)
        density = density_for_solutions(query, count, 1.0)
        reference = [reference_uniform_rects(count, density, reference_rng) for _ in range(3)]
        expected = reference_plant_clique_solution(reference, reference_rng)
        instance = planted_instance(query, count, seed=seed)
        assert instance.planted == expected
        assert [dataset.rects for dataset in instance.datasets] == reference
