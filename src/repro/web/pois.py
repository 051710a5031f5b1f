"""The point-of-interest database.

Local queries are answered from POIs: businesses and public services
anchored at coordinates.  POIs are generated lazily per (category, grid
cell) with a deterministic Poisson-distributed count, so the database
covers the entire US without materialising it.

Category *specs* encode the two properties the paper's findings hinge
on:

* **density** — generic services ("school", "restaurant") are dense,
  so their SERPs are dominated by tightly-scored nearby POIs (noisy,
  highly personalized); brands are sparse.
* **quality spread** — how separated POI scores are; tight spreads make
  rankings sensitive to the engine's score jitter (noise).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.geo.coords import LatLon
from repro.seeding import derive_rng
from repro.web.grid import GeoGrid, GridCell
from repro.web.naming import business_name, city_name
from repro.web.urls import Url, slugify

__all__ = ["CategorySpec", "Poi", "PoiDatabase", "CATEGORY_SPECS", "category_for_term"]


@dataclass(frozen=True)
class CategorySpec:
    """Generation parameters for one POI category."""

    name: str
    density_per_sq_mile: float
    quality_mean: float = 7.0
    quality_spread: float = 0.6
    own_site_rate: float = 0.5  # fraction of POIs with their own domain


#: Specs for the generic local terms (term slug -> spec).
CATEGORY_SPECS: Dict[str, CategorySpec] = {
    spec.name: spec
    for spec in [
        CategorySpec("school", 0.50, own_site_rate=0.7),
        CategorySpec("elementary-school", 0.35, own_site_rate=0.7),
        CategorySpec("middle-school", 0.30, own_site_rate=0.7),
        CategorySpec("high-school", 0.30, own_site_rate=0.7),
        CategorySpec("college", 0.10, quality_mean=7.3),
        CategorySpec("university", 0.06, quality_mean=7.5),
        CategorySpec("hospital", 0.10, quality_mean=7.3),
        CategorySpec("airport", 0.04, quality_mean=7.5),
        CategorySpec("park", 0.55, own_site_rate=0.2),
        CategorySpec("bank", 0.40),
        CategorySpec("coffee", 0.45),
        CategorySpec("restaurant", 0.85),
        CategorySpec("sushi", 0.15),
        CategorySpec("burger", 0.35),
        CategorySpec("fast-food", 0.50),
        CategorySpec("police-station", 0.12, own_site_rate=0.3),
        CategorySpec("fire-station", 0.15, own_site_rate=0.3),
        CategorySpec("post-office", 0.15, own_site_rate=0.2),
        CategorySpec("polling-place", 0.30, own_site_rate=0.1),
        CategorySpec("train", 0.08, own_site_rate=0.2),
        CategorySpec("rail", 0.08, own_site_rate=0.2),
        CategorySpec("bus", 0.30, own_site_rate=0.1),
        CategorySpec("station", 0.20, own_site_rate=0.2),
        CategorySpec("football", 0.15, own_site_rate=0.3),
    ]
}

#: Margin (miles) by which a cell must lie beyond the ``limit``-th
#: nearest POI before :meth:`PoiDatabase.pois_near` stops searching.
_CUTOFF_SLACK_MILES = 1e-6

#: Outlet density used for national brand chains.
BRAND_OUTLET_DENSITY = 0.08


def category_for_term(term: str, *, is_brand: bool) -> CategorySpec:
    """The POI category spec for a local query term.

    Brand terms share one sparse chain-outlet spec; generic terms map to
    their own spec by slug.
    """
    slug = slugify(term)
    if is_brand:
        return CategorySpec(
            name=slug,
            density_per_sq_mile=BRAND_OUTLET_DENSITY,
            quality_mean=5.6,
            quality_spread=0.35,
            own_site_rate=0.0,  # outlets live under the chain's domain
        )
    spec = CATEGORY_SPECS.get(slug)
    if spec is None:
        # Unknown generic term: a sensible default so user-supplied
        # corpora work out of the box.
        spec = CategorySpec(name=slug, density_per_sq_mile=0.3)
    return spec


@dataclass(frozen=True)
class Poi:
    """One point of interest."""

    poi_id: str
    name: str
    category: str
    location: LatLon
    quality: float
    url: Url
    city: str


def _poisson(rng, mean: float) -> int:
    """Inverse-transform Poisson sample (mean is small here)."""
    if mean <= 0:
        return 0
    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


class PoiDatabase:
    """Lazily generated, memoised POIs keyed by (category, cell).

    Args:
        seed: World seed; POI layout is a function of (seed, category,
            cell) only.
        grid: Fine grid POIs are generated on.
        metro_grid: Coarse grid that defines localities (city names,
            city sites); each POI belongs to the metro cell containing
            it.
    """

    #: Entry cap for the (category, cell) memo.  Every entry is a pure
    #: function of its key, so it is cleared outright on overflow, like
    #: the ranker's memos; the cap sits above the full paper study's
    #: pre-fork warmup and every benchmark workload.
    CELL_MEMO_CAP = 1 << 16

    def __init__(self, seed: int, grid: GeoGrid, metro_grid: GeoGrid):
        self.seed = seed
        self.grid = grid
        self.metro_grid = metro_grid
        self._cache: Dict[tuple, List[Poi]] = {}

    def pois_in_cell(self, spec: CategorySpec, cell: GridCell) -> List[Poi]:
        """All POIs of a category inside one fine-grid cell."""
        key = (spec.name, spec.density_per_sq_mile, cell)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        rng = derive_rng(self.seed, "poi", spec.name, cell.ix, cell.iy)
        area = self.grid.cell_miles**2
        count = _poisson(rng, spec.density_per_sq_mile * area)
        pois: List[Poi] = []
        for index in range(count):
            # Uniform position inside the cell.
            fx = rng.random()
            fy = rng.random()
            x = (cell.ix + fx) * self.grid.cell_miles
            y = (cell.iy + fy) * self.grid.cell_miles
            location = self.grid.from_xy_miles(x, y)
            metro_cell = self.metro_grid.cell_of(location)
            city = city_name(metro_cell)
            name = business_name(spec.name.replace("-", " "), city, index)
            quality = rng.gauss(spec.quality_mean, spec.quality_spread)
            poi_id = f"{spec.name}:{cell.ix}:{cell.iy}:{index}"
            url = self._poi_url(spec, name, city, cell, index, rng)
            pois.append(
                Poi(
                    poi_id=poi_id,
                    name=name,
                    category=spec.name,
                    location=location,
                    quality=quality,
                    url=url,
                    city=city,
                )
            )
        if len(self._cache) > self.CELL_MEMO_CAP:
            self._cache.clear()
        self._cache[key] = pois
        return pois

    def pois_near(
        self,
        spec: CategorySpec,
        point: LatLon,
        radius_miles: float,
        *,
        limit: Optional[int] = None,
    ) -> List[Poi]:
        """POIs of a category within ``radius_miles`` of ``point``.

        Sorted by planar distance from ``point`` (deterministic
        tie-break on poi_id); optionally truncated to ``limit``.

        Cells are visited nearest first, by the distance to their
        nearest point.  Once ``limit`` POIs are found, a cell whose gap
        exceeds the ``limit``-th nearest distance so far by
        :data:`_CUTOFF_SLACK_MILES` holds no POI that could make the cut,
        nor does any later cell, so the search stops there without
        generating them.  The slack dwarfs the ~1e-11-mile rounding of a
        POI's re-projected position, so the result equals a scan of
        every cell.
        """
        found: List[tuple] = []
        # Max-heap (negated) of the ``limit`` nearest distances so far.
        nearest: List[float] = []
        keep = max(limit or 0, 0)
        for gap, cell in self.grid.cells_nearest_first(point, radius_miles):
            if keep and len(nearest) == keep and gap > -nearest[0] + _CUTOFF_SLACK_MILES:
                break
            for poi in self.pois_in_cell(spec, cell):
                distance = self.grid.distance_miles(point, poi.location)
                if distance <= radius_miles:
                    found.append((distance, poi.poi_id, poi))
                    if len(nearest) < keep:
                        heapq.heappush(nearest, -distance)
                    elif keep and distance < -nearest[0]:
                        heapq.heapreplace(nearest, -distance)
        found.sort(key=lambda item: item[:2])
        if limit is not None:
            found = found[:limit]
        return [poi for _, _, poi in found]

    def _poi_url(self, spec, name, city, cell, index, rng) -> Url:
        """A POI's canonical URL: its own site or a directory listing."""
        slug = slugify(name)
        if rng.random() < spec.own_site_rate:
            host = f"{slug}.{slugify(city)}.example.com"
            return Url(host=host, path="/")
        # Directory listing (the synthetic yelp).
        return Url(
            host="citydirectory.example.com",
            path=f"/{slugify(city)}/{spec.name}/{slug}-{cell.ix}-{cell.iy}-{index}",
        )
