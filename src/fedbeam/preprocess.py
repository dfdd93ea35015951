"""Point-cloud to 2-D occupancy grid conversion.

The scene is quantized top-down into equal square cells. Cells holding at
least one cloud point are 1, free cells 0; the base-station cell is then
overwritten with -2 and the vehicle cell with -1 (vehicle wins every
collision). Height information is dropped, so every scan becomes one
fixed-size int8 code array no matter how many points it returned;
fedavg.preprocess_dataset stacks these arrays, codes kept raw, into the
single-channel int8 network input.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import is_finite_real, require_int

__all__ = ["GridConfig", "lidar_to_grid", "default_grid"]

log = logging.getLogger(__name__)

CODE_OCCUPIED = 1
CODE_VEHICLE = -1
CODE_BS = -2


@dataclass(frozen=True)
class GridConfig:
    """Axis-aligned crop box and its cell resolution. Cells must be square."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    cells_x: int
    cells_y: int

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max"):
            if not is_finite_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        require_int("cells_x", self.cells_x, 1)
        require_int("cells_y", self.cells_y, 1)
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError("grid box is degenerate")
        if not (math.isfinite(self.dx) and math.isfinite(self.dy)):
            raise ValueError(f"grid width and length must be finite, got dx={self.dx!r}, dy={self.dy!r}")
        if not math.isclose(self.dx, self.dy, rel_tol=1e-9):
            raise ValueError(
                f"cells must be square: dx={self.dx!r} differs from dy={self.dy!r}"
            )

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.cells_x

    @property
    def dy(self):
        return (self.y_max - self.y_min) / self.cells_y

    @property
    def shape(self):
        return (self.cells_x, self.cells_y)

    @classmethod
    def from_dict(cls, d):
        return cls(**{k: d[k] for k in ("x_min", "x_max", "y_min", "y_max", "cells_x", "cells_y")})


def default_grid():
    """20 x 200 cells over a 10 m x 100 m street box (0.5 m cells)."""
    return GridConfig(x_min=0.0, x_max=10.0, y_min=0.0, y_max=100.0, cells_x=20, cells_y=200)


def _cell_index(coords, lo, n_cells, delta):
    """Half-open binning of in-box coordinates, clamped into the last cell
    (the upper box edge, and a quotient that rounds up to n_cells)."""
    return np.minimum(np.floor((coords - lo) / delta).astype(np.int64), n_cells - 1)


def _marker_cell(x, y, cfg):
    """(ix, iy) of one in-box position, binned as _cell_index bins points."""
    ix = min(math.floor((x - cfg.x_min) / cfg.dx), cfg.cells_x - 1)
    iy = min(math.floor((y - cfg.y_min) / cfg.dy), cfg.cells_y - 1)
    return ix, iy


def lidar_to_grid(sample, cfg):
    """Quantize one sample's cloud and positions into a (cells_x, cells_y)
    int8 code array.

    Points outside the box are discarded (count reported at debug level).
    The vehicle must lie inside the box. Cells start free and are written
    occupied, then base station, then vehicle, so the codes stay within
    {0, 1, -1, -2} with exactly one vehicle cell and at most one
    base-station cell.
    """
    vx, vy = float(sample.vehicle_pos[0]), float(sample.vehicle_pos[1])
    if not (cfg.x_min <= vx <= cfg.x_max):
        raise ValueError(f"vehicle x={vx} outside grid box [{cfg.x_min}, {cfg.x_max}]")
    if not (cfg.y_min <= vy <= cfg.y_max):
        raise ValueError(f"vehicle y={vy} outside grid box [{cfg.y_min}, {cfg.y_max}]")

    cells = np.zeros(cfg.shape, dtype=np.int8)
    pts = np.asarray(sample.cloud, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0]:
        x, y = pts[:, 0], pts[:, 1]
        inside = (x >= cfg.x_min) & (x <= cfg.x_max) & (y >= cfg.y_min) & (y <= cfg.y_max)
        dropped = int(pts.shape[0] - np.count_nonzero(inside))
        if dropped:
            log.debug("lidar_to_grid: discarded %d of %d points outside the box", dropped, pts.shape[0])
        ix = _cell_index(x[inside], cfg.x_min, cfg.cells_x, cfg.dx)
        iy = _cell_index(y[inside], cfg.y_min, cfg.cells_y, cfg.dy)
        cells[ix, iy] = CODE_OCCUPIED

    bx, by = float(sample.bs_pos[0]), float(sample.bs_pos[1])
    if cfg.x_min <= bx <= cfg.x_max and cfg.y_min <= by <= cfg.y_max:
        cells[_marker_cell(bx, by, cfg)] = CODE_BS
    cells[_marker_cell(vx, vy, cfg)] = CODE_VEHICLE
    return cells
