"""A planar grid over the US used for local-content generation.

Local businesses, cities, and local news outlets are generated per grid
cell, deterministically.  The engine *snaps* a user's GPS fix to the
centre of its cell before retrieving local content; this quantisation is
the mechanism behind the county-level result clustering the paper
observes in Figure 8 (nearby voting districts that fall into the same
cell receive identical local candidates).

The projection is equirectangular around a fixed reference latitude —
within a metro area the distortion is negligible, and only *relative*
positions matter to the study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.geo.coords import LatLon

__all__ = ["GridCell", "GeoGrid"]

_MILES_PER_DEG_LAT = 69.0
_REFERENCE_LAT_DEG = 39.0  # mid-US; cos(39°) scales longitude miles


@dataclass(frozen=True, order=True)
class GridCell:
    """One cell of the grid, identified by integer column/row indices."""

    ix: int
    iy: int


class GeoGrid:
    """A square grid with cells ``cell_miles`` on a side.

    Args:
        cell_miles: Cell edge length in miles.  The study default is 1
            mile — small enough that Cuyahoga voting districts spread
            over several cells, large enough that some districts share
            one.
    """

    def __init__(self, cell_miles: float = 1.0):
        if cell_miles <= 0:
            raise ValueError(f"cell size must be positive, got {cell_miles}")
        self.cell_miles = cell_miles
        self._lon_scale = math.cos(math.radians(_REFERENCE_LAT_DEG))

    def to_xy_miles(self, point: LatLon) -> tuple:
        """Project a coordinate to planar (x, y) miles."""
        x = point.lon * _MILES_PER_DEG_LAT * self._lon_scale
        y = point.lat * _MILES_PER_DEG_LAT
        return (x, y)

    def from_xy_miles(self, x: float, y: float) -> LatLon:
        """Inverse of :meth:`to_xy_miles`."""
        lon = x / (_MILES_PER_DEG_LAT * self._lon_scale)
        lat = y / _MILES_PER_DEG_LAT
        return LatLon(lat, lon)

    def cell_of(self, point: LatLon) -> GridCell:
        """The cell containing ``point``."""
        x, y = self.to_xy_miles(point)
        return GridCell(math.floor(x / self.cell_miles), math.floor(y / self.cell_miles))

    def cell_center(self, cell: GridCell) -> LatLon:
        """The centre coordinate of ``cell``."""
        x = (cell.ix + 0.5) * self.cell_miles
        y = (cell.iy + 0.5) * self.cell_miles
        return self.from_xy_miles(x, y)

    def snap(self, point: LatLon) -> LatLon:
        """Quantise ``point`` to the centre of its cell."""
        return self.cell_center(self.cell_of(point))

    def cells_within(self, point: LatLon, radius_miles: float) -> List[GridCell]:
        """All cells whose area intersects the disc around ``point``.

        Returned in deterministic (row-major) order.
        """
        return [GridCell(ix, iy) for _, iy, ix in self._gaps_within(point, radius_miles)]

    def cells_nearest_first(
        self, point: LatLon, radius_miles: float
    ) -> Iterator[Tuple[float, GridCell]]:
        """``(gap, cell)`` for each cell :meth:`cells_within` returns.

        ``gap`` is the planar distance from ``point`` to the cell's
        nearest point, so no point of a cell is nearer than its gap.
        Yielded by gap, ties in row-major order; a consumer that stops
        early never builds the farther cells.
        """
        for gap, iy, ix in sorted(self._gaps_within(point, radius_miles)):
            yield gap, GridCell(ix, iy)

    def _gaps_within(self, point: LatLon, radius_miles: float) -> Iterator[tuple]:
        """``(gap, iy, ix)`` of each cell intersecting the disc, row-major."""
        if radius_miles < 0:
            raise ValueError(f"radius must be non-negative, got {radius_miles}")
        x, y = self.to_xy_miles(point)
        span = int(math.ceil(radius_miles / self.cell_miles))
        cx = math.floor(x / self.cell_miles)
        cy = math.floor(y / self.cell_miles)
        for iy in range(cy - span, cy + span + 1):
            for ix in range(cx - span, cx + span + 1):
                # Nearest point of the cell rectangle to the disc centre.
                rect_x0, rect_x1 = ix * self.cell_miles, (ix + 1) * self.cell_miles
                rect_y0, rect_y1 = iy * self.cell_miles, (iy + 1) * self.cell_miles
                nearest_x = min(max(x, rect_x0), rect_x1)
                nearest_y = min(max(y, rect_y0), rect_y1)
                gap = math.hypot(nearest_x - x, nearest_y - y)
                if gap <= radius_miles:
                    yield (gap, iy, ix)

    def distance_miles(self, a: LatLon, b: LatLon) -> float:
        """Planar distance between two points (projection-space miles)."""
        ax, ay = self.to_xy_miles(a)
        bx, by = self.to_xy_miles(b)
        return math.hypot(ax - bx, ay - by)

    def iter_neighborhood(self, cell: GridCell, span: int = 1) -> Iterator[GridCell]:
        """The (2·span+1)² block of cells centred on ``cell``."""
        for iy in range(cell.iy - span, cell.iy + span + 1):
            for ix in range(cell.ix - span, cell.ix + span + 1):
                yield GridCell(ix, iy)
