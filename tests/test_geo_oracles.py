"""Oracle tests for the cold-pool geography fast paths.

``RegionLocator.nearest_region`` prunes its anchor walk by latitude,
``PoiDatabase.pois_near`` stops visiting cells once its limit is
certain, and ``WebWorld.universal_candidates`` and
``WebWorld.ambiguity_candidates`` build each query's slate once.  Each must give exactly what the plain full scan gives; the scans
live on here as oracles.
"""

from __future__ import annotations

import random

import pytest

from repro.geo.coords import LatLon
from repro.geo.germany import GERMANY_LOCATOR
from repro.geo.locate import US_LOCATOR, RegionLocator
from repro.queries.corpus import build_corpus
from repro.web import world as world_module
from repro.web.entities import ambiguous_entities, universal_docs
from repro.web.grid import GeoGrid
from repro.web.pois import CATEGORY_SPECS, PoiDatabase, category_for_term
from repro.web.world import WebWorld

CLEVELAND = LatLon(41.4993, -81.6944)


def linear_nearest_region(locator: RegionLocator, point: LatLon) -> str:
    """The full scan: haversine to every anchor, first listed wins ties."""
    best = locator._anchors[0][0]
    best_distance = float("inf")
    for name, anchor in locator._anchors:
        distance = point.distance_km(anchor)
        if distance < best_distance:
            best = name
            best_distance = distance
    return best


def _axis(low, high, step):
    return [low + i * step for i in range(int((high - low) / step) + 1)]


def _lattice(lat_range, lon_range, step):
    return [LatLon(lat, lon) for lat in _axis(*lat_range, step) for lon in _axis(*lon_range, step)]


def _fresh(locator: RegionLocator) -> RegionLocator:
    """A copy with an empty cache, so every lookup runs the search."""
    return RegionLocator(locator.name, locator._anchors)


class TestNearestRegionOracle:
    @pytest.mark.parametrize(
        "locator, lat_range, lon_range, step",
        [
            (US_LOCATOR, (24.0, 50.0), (-125.0, -66.0), 0.5),
            (GERMANY_LOCATOR, (47.2, 55.1), (5.8, 15.1), 0.1),
        ],
        ids=["usa", "germany"],
    )
    def test_lattice_and_world_points_match_linear_scan(
        self, locator, lat_range, lon_range, step
    ):
        rng = random.Random(locator.name)
        points = _lattice(lat_range, lon_range, step)
        points += [LatLon(rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(1500)]
        fresh = _fresh(locator)
        mismatches = [
            p for p in points if fresh.nearest_region(p) != linear_nearest_region(locator, p)
        ]
        assert mismatches == []

    @pytest.mark.parametrize("locator", [US_LOCATOR, GERMANY_LOCATOR], ids=["usa", "germany"])
    def test_every_anchor_matches_linear_scan(self, locator):
        fresh = _fresh(locator)
        for _, anchor in locator._anchors:
            assert fresh.nearest_region(anchor) == linear_nearest_region(locator, anchor)

    def test_exact_tie_goes_to_first_listed_anchor(self):
        # Two anchors mirrored in longitude about the query point are at
        # exactly the same haversine distance.
        point = LatLon(10.0, 0.0)
        west = ("West", LatLon(10.0, -1.0))
        east = ("East", LatLon(10.0, 1.0))
        far = ("Far", LatLon(40.0, 0.0))
        assert point.distance_km(west[1]) == point.distance_km(east[1])
        assert RegionLocator("a", [far, east, west]).nearest_region(point) == "East"
        assert RegionLocator("b", [far, west, east]).nearest_region(point) == "West"

    def test_shared_anchor_resolves_like_linear_scan(self):
        # Bremen's city anchor is listed under both Bremen and
        # Niedersachsen; the first listed region owns it.
        bremen = LatLon(53.0793, 8.8017)
        assert _fresh(GERMANY_LOCATOR).nearest_region(bremen) == linear_nearest_region(
            GERMANY_LOCATOR, bremen
        )


@pytest.fixture(scope="module")
def grid():
    return GeoGrid(1.0)


def brute_pois_near(db: PoiDatabase, spec, point, radius_miles, limit):
    """Filter every cell of the disc, sort by (distance, poi_id), cut."""
    pois = [
        poi
        for cell in db.grid.cells_within(point, radius_miles)
        for poi in db.pois_in_cell(spec, cell)
        if db.grid.distance_miles(point, poi.location) <= radius_miles
    ]
    pois.sort(key=lambda p: (db.grid.distance_miles(point, p.location), p.poi_id))
    return pois if limit is None else pois[:limit]


class TestPoisNearOracle:
    def test_limited_lookups_match_brute_force(self, grid):
        db = PoiDatabase(seed=99, grid=grid, metro_grid=GeoGrid(8.0))
        specs = list(CATEGORY_SPECS.values()) + [
            category_for_term("Starbucks", is_brand=True),
            category_for_term("Bowling Alley", is_brand=False),
        ]
        rng = random.Random(17)
        for _ in range(300):
            spec = rng.choice(specs)
            point = LatLon(rng.uniform(30.0, 47.0), rng.uniform(-120.0, -72.0))
            radius = rng.uniform(0.5, 6.0)
            limit = rng.choice([1, 3, 30])
            got = db.pois_near(spec, point, radius, limit=limit)
            assert got == brute_pois_near(db, spec, point, radius, limit), (
                spec.name,
                point,
                radius,
                limit,
            )

    def test_unlimited_lookup_matches_brute_force(self, grid):
        db = PoiDatabase(seed=5, grid=grid, metro_grid=GeoGrid(8.0))
        spec = CATEGORY_SPECS["restaurant"]
        got = db.pois_near(spec, CLEVELAND, 6.0)
        assert got == brute_pois_near(db, spec, CLEVELAND, 6.0, None)
        assert len(got) > 30

    def test_maps_lookup_generates_fewer_cells_than_the_disc(self, grid, monkeypatch):
        # A Maps card needs the 3 nearest places of a dense category:
        # the search must stop long before generating the whole disc.
        db = PoiDatabase(seed=1234, grid=grid, metro_grid=GeoGrid(8.0))
        generated = set()
        original = PoiDatabase.pois_in_cell

        def counting(self, spec, cell):
            generated.add(cell)
            return original(self, spec, cell)

        monkeypatch.setattr(PoiDatabase, "pois_in_cell", counting)
        places = db.pois_near(CATEGORY_SPECS["restaurant"], CLEVELAND, 6.0, limit=3)
        assert len(places) == 3
        assert len(generated) < len(grid.cells_within(CLEVELAND, 6.0))


class TestUniversalSlate:
    def test_one_slate_per_query_per_world(self, monkeypatch):
        corpus = build_corpus()
        queries = [corpus.get("Starbucks"), corpus.get("School"), corpus.get("Gay Marriage")]
        builds = []

        def counting(query):
            builds.append(query)
            return universal_docs(query)

        monkeypatch.setattr(world_module, "universal_docs", counting)
        worlds = [WebWorld(seed=3), WebWorld(seed=4)]
        for world in worlds:
            for _ in range(3):
                for query in queries:
                    assert list(world.universal_candidates(query)) == universal_docs(query)
        assert builds == queries + queries


class TestAmbiguitySlate:
    def test_one_slate_per_common_name_per_world(self, monkeypatch):
        common = [query for query in build_corpus() if query.is_common_name]
        assert len(common) == 21
        builds = []

        def counting(query, seed):
            builds.append(query)
            return ambiguous_entities(query, seed)

        monkeypatch.setattr(world_module, "ambiguous_entities", counting)
        world = WebWorld(seed=808)
        for _ in range(2):
            for query in common:
                slate = world.ambiguity_candidates(query)
                assert list(slate) == [
                    entity.document
                    for entity in ambiguous_entities(query, world.seed)
                ]
                assert 2 <= len(slate) <= 4
        assert builds == common
