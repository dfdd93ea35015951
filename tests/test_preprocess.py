import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbeam.dataset import Dataset, DatasetMeta, Sample, SynthConfig, generate_synthetic
from fedbeam.fedavg import preprocess_dataset
from fedbeam.preprocess import GridConfig, default_grid, lidar_to_grid


def box10():
    return GridConfig(x_min=0, x_max=10, y_min=0, y_max=10, cells_x=10, cells_y=10)


def make_sample(cloud, vehicle, bs=(50.0, 50.0, 5.0), label=0):
    return Sample(cloud=np.asarray(cloud, dtype=np.float32).reshape(-1, 3),
                  vehicle_pos=vehicle, bs_pos=bs, label=label)


class TestGridConfig:
    def test_non_square_cells_rejected(self):
        with pytest.raises(ValueError, match="square"):
            GridConfig(x_min=0, x_max=10, y_min=0, y_max=10, cells_x=10, cells_y=20)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            GridConfig(x_min=0, x_max=0, y_min=0, y_max=10, cells_x=1, cells_y=10)

    @pytest.mark.parametrize("field, value", [
        ("cells_x", 20.0),  # was accepted, then failed as a model input_shape
        ("cells_x", True),
        ("cells_y", 200.0),
        ("x_min", math.nan),  # was accepted, then failed on every vehicle position
        ("y_max", math.inf),
        ("x_max", "10"),  # was a raw TypeError
    ])
    def test_mistyped_field_rejected(self, field, value):
        kwargs = dict(x_min=0.0, x_max=10.0, y_min=0.0, y_max=100.0, cells_x=20, cells_y=200)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be"):
            GridConfig(**kwargs)

    def test_default_grid_shape(self):
        g = default_grid()
        assert g.shape == (20, 200)
        assert g.dx == pytest.approx(0.5)


class TestLidarToGrid:
    def test_empty_cloud_bs_outside(self):
        s = make_sample(np.zeros((0, 3)), vehicle=(2.6, 7.1, 1.6), bs=(50.0, 50.0, 5.0))
        g = lidar_to_grid(s, box10())
        assert g[2, 7] == -1
        assert np.count_nonzero(g) == 1

    def test_vehicle_overrides_point(self):
        s = make_sample([[2.2, 7.2, 0.0]], vehicle=(2.6, 7.1, 1.6))
        g = lidar_to_grid(s, box10())
        assert g[2, 7] == -1
        assert np.count_nonzero(g == 1) == 0

    def test_vehicle_overrides_bs(self):
        s = make_sample(np.zeros((0, 3)), vehicle=(2.6, 7.1, 1.6), bs=(2.9, 7.9, 5.0))
        g = lidar_to_grid(s, box10())
        assert g[2, 7] == -1
        assert np.count_nonzero(g == -2) == 0

    def test_bs_marked_when_inside(self):
        s = make_sample(np.zeros((0, 3)), vehicle=(2.6, 7.1, 1.6), bs=(9.0, 1.0, 5.0))
        g = lidar_to_grid(s, box10())
        assert g[9, 1] == -2

    def test_edge_clamp_and_discard(self):
        cloud = [[9.999, 0.0, 0.0], [10.0, 0.0, 0.0], [10.5, 0.0, 0.0]]
        s = make_sample(cloud, vehicle=(5.0, 5.0, 1.6))
        g = lidar_to_grid(s, box10())
        assert g[9, 0] == 1
        # only the vehicle cell and that single occupied cell are set
        assert np.count_nonzero(g) == 2

    def test_vehicle_outside_names_coordinate(self):
        s = make_sample(np.zeros((0, 3)), vehicle=(11.0, 5.0, 1.6))
        with pytest.raises(ValueError, match="vehicle x"):
            lidar_to_grid(s, box10())
        s = make_sample(np.zeros((0, 3)), vehicle=(5.0, -0.1, 1.6))
        with pytest.raises(ValueError, match="vehicle y"):
            lidar_to_grid(s, box10())

    def test_duplicate_points_idempotent(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(0, 10, 30), rng.uniform(0, 10, 30), np.zeros(30)])
        s1 = make_sample(pts, vehicle=(5.0, 5.0, 1.6))
        s2 = make_sample(np.vstack([pts, pts[:10]]), vehicle=(5.0, 5.0, 1.6))
        g1 = lidar_to_grid(s1, box10())
        g2 = lidar_to_grid(s2, box10())
        np.testing.assert_array_equal(g1, g2)

    def test_translation_equivariance(self):
        cfg = box10()
        rng = np.random.default_rng(1)
        pts = np.column_stack([rng.uniform(1, 4, 20), rng.uniform(1, 9, 20), np.zeros(20)])
        vehicle = np.array([2.3, 5.5, 1.6])
        bs = np.array([1.1, 2.2, 5.0])
        shift = np.array([3 * cfg.dx, 0.0, 0.0])  # k = 3 whole cells in x
        g0 = lidar_to_grid(make_sample(pts, vehicle, bs), cfg)
        g1 = lidar_to_grid(make_sample(pts + shift, vehicle + shift, bs + shift), cfg)
        np.testing.assert_array_equal(np.roll(g0, 3, axis=0), g1)

    def test_fixed_output_shape(self):
        cfg = default_grid()
        for n in (0, 1, 500):
            pts = np.column_stack([np.linspace(1, 9, max(n, 1))[:n],
                                   np.linspace(1, 99, max(n, 1))[:n],
                                   np.zeros(n)])
            g = lidar_to_grid(make_sample(pts, vehicle=(5.0, 50.0, 1.6)), cfg)
            assert g.shape == cfg.shape


def one_scene_inputs(sample, cfg):
    """preprocess_dataset over a one-sample dataset: the (1, H, W) network input."""
    meta = DatasetMeta(c_t=1, c_r=1, n_t=1, n_r=1, n_c=1,
                       area=(cfg.x_min, cfg.x_max, cfg.y_min, cfg.y_max), seed=0)
    inputs, labels = preprocess_dataset(Dataset(meta=meta, samples=[sample]), cfg)
    assert inputs.shape == (1, 1) + cfg.shape
    assert labels.tolist() == [sample.label]
    return inputs[0]


class TestGridToInput:
    def test_single_marker(self):
        cfg = GridConfig(x_min=0, x_max=4, y_min=0, y_max=4, cells_x=4, cells_y=4)
        s = make_sample(np.zeros((0, 3)), vehicle=(0.1, 0.1, 1.6))
        x = one_scene_inputs(s, cfg)
        assert x.shape == (1, 4, 4)
        assert x[0, 0, 0] == -1.0
        assert np.count_nonzero(x) == 1

    def test_codomain(self):
        cfg = box10()
        rng = np.random.default_rng(2)
        pts = np.column_stack([rng.uniform(0, 10, 50), rng.uniform(0, 10, 50), np.zeros(50)])
        s = make_sample(pts, vehicle=(5.0, 5.0, 1.6), bs=(1.0, 1.0, 5.0))
        x = one_scene_inputs(s, cfg)
        assert set(np.unique(x)) <= {-2.0, -1.0, 0.0, 1.0}
        assert x.dtype == np.int8  # the codes themselves; nn.forward casts them
        np.testing.assert_array_equal(x[0], lidar_to_grid(s, cfg))

    def test_default_set_peaks_under_two_bytes_per_cell(self):
        # int8 codes are one byte per cell, and the loop's per-scene
        # temporaries stay far below a second byte; a float32 tensor would
        # take four bytes per cell on its own
        n, grid = 200, default_grid()
        ds = generate_synthetic(SynthConfig(), n, seed=17)
        tracemalloc.start()
        try:
            inputs, _ = preprocess_dataset(ds, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inputs.shape == (n, 1) + grid.shape
        assert peak < 2 * n * grid.cells_x * grid.cells_y

    def test_obstacle_row_between_vehicle_and_bs(self):
        # wall of points across the connecting row shows up as a run of 1s
        cfg = box10()
        ys = np.arange(3.25, 7.0, 0.5)
        wall = np.column_stack([np.full_like(ys, 5.2), ys, np.zeros_like(ys)])
        s = make_sample(wall, vehicle=(5.4, 1.0, 1.6), bs=(5.4, 9.0, 5.0))
        g = lidar_to_grid(s, cfg)
        assert np.all(g[5, 3:7] == 1)
        assert g[5, 1] == -1
        assert g[5, 9] == -2


def loop_rasterize(sample, cfg):
    """Reference binning, one point at a time: occupied cells 1, then the BS
    cell -2, then the vehicle cell -1. Upper box edges fall into the last
    cell; positions outside the box are dropped."""
    nx, ny = cfg.cells_x, cfg.cells_y
    dx = (cfg.x_max - cfg.x_min) / nx
    dy = (cfg.y_max - cfg.y_min) / ny

    def inside(x, y):
        return cfg.x_min <= x <= cfg.x_max and cfg.y_min <= y <= cfg.y_max

    def cell(x, y):
        ix = nx - 1 if x == cfg.x_max else math.floor((x - cfg.x_min) / dx)
        iy = ny - 1 if y == cfg.y_max else math.floor((y - cfg.y_min) / dy)
        return ix, iy

    grid = [[0] * ny for _ in range(nx)]
    marks = [(1, p) for p in sample.cloud.tolist()]
    marks += [(-2, sample.bs_pos.tolist()), (-1, sample.vehicle_pos.tolist())]
    for code, (x, y, _) in marks:
        if inside(x, y):
            ix, iy = cell(x, y)
            grid[ix][iy] = code
    return np.array(grid, dtype=np.int8)


# Boxes whose cell sizes are exact binary fractions, one offset from the origin.
PROPERTY_GRIDS = [
    GridConfig(x_min=0, x_max=10, y_min=0, y_max=10, cells_x=10, cells_y=10),
    GridConfig(x_min=-3.0, x_max=5.0, y_min=2.0, y_max=6.0, cells_x=16, cells_y=8),
    default_grid(),
]


@st.composite
def grid_scenes(draw):
    """A grid and a scene whose positions favour cell edges, the upper box
    edges, just-outside values and shared cells. Box corners are exact in
    float32, so the vehicle stays inside once Sample rounds it."""
    cfg = draw(st.sampled_from(PROPERTY_GRIDS))

    def coord(lo, hi, n, inside_only):
        step = (hi - lo) / n
        lattice = [lo + k * step / 2 for k in range(2 * n + 1)]
        pad = 0.0 if inside_only else step
        if not inside_only:
            lattice += [lo - step / 2, hi + step / 2, lo - 1e-3, hi + 1e-3]
        return st.one_of(st.sampled_from(lattice), st.floats(lo - pad, hi + pad))

    def position(inside_only=False):
        return st.tuples(coord(cfg.x_min, cfg.x_max, cfg.cells_x, inside_only),
                         coord(cfg.y_min, cfg.y_max, cfg.cells_y, inside_only),
                         st.floats(-5, 5))

    vehicle = draw(position(inside_only=True))
    bs = draw(st.one_of(position(), st.just(vehicle)))
    cloud = draw(st.lists(st.one_of(position(), st.just(vehicle), st.just(bs)), max_size=40))
    sample = Sample(cloud=np.array(cloud, dtype=np.float32).reshape(-1, 3),
                    vehicle_pos=vehicle, bs_pos=bs, label=0)
    return cfg, sample


class TestLidarToGridProperty:
    @settings(max_examples=300, deadline=None)
    @given(scene=grid_scenes())
    def test_matches_loop_and_keeps_invariants(self, scene):
        cfg, sample = scene
        cells = lidar_to_grid(sample, cfg)
        assert cells.shape == cfg.shape
        assert cells.dtype == np.int8
        assert set(np.unique(cells).tolist()) <= {0, 1, -1, -2}
        assert np.count_nonzero(cells == -1) == 1
        assert np.count_nonzero(cells == -2) <= 1
        np.testing.assert_array_equal(cells, loop_rasterize(sample, cfg))
