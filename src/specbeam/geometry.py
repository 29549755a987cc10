"""Scene geometry: base station at the origin, a straight road divided into
equal cells, and the spherical departure angles toward each cell center.

Coordinates: the BS sits at (0, 0, 0) with its array in the y-z plane; the
road runs parallel to the y axis at horizontal offset x = road_offset_m.
User positions live on the plane z = ue_height_m - bs_height_m (negative:
the user is below the array).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SceneConfig:
    """Static deployment geometry. All lengths in meters."""

    bs_height_m: float = 10.0
    road_offset_m: float = 10.0
    road_y_min_m: float = -120.0
    road_y_max_m: float = 120.0
    ue_height_m: float = 1.5
    num_cells: int = 12

    def __post_init__(self) -> None:
        for name in ("bs_height_m", "road_offset_m", "ue_height_m"):
            if not (value := getattr(self, name)) > 0:
                raise ValueError(f"{name}: must be a positive number (got {value!r})")
        if not self.ue_height_m < self.bs_height_m:
            raise ValueError(f"ue_height_m: must be below bs_height_m (got {self.ue_height_m!r})")
        if not 0 < self.road_length_m < math.inf:
            raise ValueError(f"road_y_max_m: must exceed road_y_min_m by a finite float "
                             f"(got {self.road_y_max_m!r})")
        if type(self.num_cells) is not int or self.num_cells < 2:
            raise ValueError(f"num_cells: must be an integer >= 2 (got {self.num_cells!r})")

    @property
    def road_length_m(self) -> float:
        return self.road_y_max_m - self.road_y_min_m

    @property
    def cell_length_m(self) -> float:
        return self.road_length_m / self.num_cells

    @property
    def ue_plane_z_m(self) -> float:
        """z coordinate of user positions relative to the BS."""
        return self.ue_height_m - self.bs_height_m


@dataclass(frozen=True)
class CellCoord:
    """One road cell: 1-based index, center coordinate, and link geometry."""

    index: int
    y_m: float
    r_m: float
    theta: float  # azimuth of departure [rad]
    phi: float    # elevation of departure [rad], negative (user below BS)


def cell_angles(scene: SceneConfig, y_m: float) -> tuple[float, float, float]:
    """(r, theta, phi) of the link toward road coordinate y_m.

    theta = atan2(y, x) and phi = atan2(z, hypot(x, y)); with x > 0 and
    z < 0 this yields theta in (-pi/2, pi/2) and phi in (-pi/2, 0).
    """
    x = scene.road_offset_m
    z = scene.ue_plane_z_m
    ground = math.hypot(x, y_m)
    r = math.hypot(ground, z)
    return r, math.atan2(y_m, x), math.atan2(z, ground)


def build_road(scene: SceneConfig) -> tuple[CellCoord, ...]:
    """Cell centers of the road grid with their departure angles."""
    cells = []
    for i in range(1, scene.num_cells + 1):
        y = scene.road_y_min_m + (i - 0.5) * scene.cell_length_m
        r, theta, phi = cell_angles(scene, y)
        cells.append(CellCoord(index=i, y_m=y, r_m=r, theta=theta, phi=phi))
    return tuple(cells)


def containing_cell(scene: SceneConfig, y_m: float) -> int:
    """1-based index of the cell containing road coordinate y_m.

    Cell k spans ((k-1)*L, k*L] measured from road_y_min_m, i.e. a position
    exactly on a boundary belongs to the lower cell; y == road_y_min_m maps
    to cell 1.
    """
    if not scene.road_y_min_m <= y_m <= scene.road_y_max_m:
        raise ValueError(f"y={y_m} outside road [{scene.road_y_min_m}, {scene.road_y_max_m}]")
    k = math.ceil((y_m - scene.road_y_min_m) / scene.cell_length_m)
    return min(max(k, 1), scene.num_cells)
