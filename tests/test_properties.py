"""Property-based tests (hypothesis) on core data structures/invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import damerau_levenshtein, jaccard_index
from repro.geo.coords import LatLon, destination, haversine_km
from repro.net.ip import IPv4Address, IPv4Subnet
from repro.seeding import derive_seed, stable_unit
from repro.stats.summaries import summarize
from repro.web.grid import GeoGrid

# Strategy helpers --------------------------------------------------------------

urls = st.text(alphabet="abcde", min_size=1, max_size=3)
url_lists = st.lists(urls, max_size=12)
# Keep latitudes away from the poles: the local-grid projection (like
# the study itself) is only meaningful at inhabited latitudes.
lats = st.floats(min_value=-80.0, max_value=80.0, allow_nan=False)
lons = st.floats(min_value=-179.0, max_value=179.0, allow_nan=False)


class TestMetricProperties:
    @given(url_lists)
    def test_jaccard_self_is_one(self, items):
        assert jaccard_index(items, items) == 1.0

    @given(url_lists, url_lists)
    def test_jaccard_symmetric_and_bounded(self, a, b):
        assert jaccard_index(a, b) == jaccard_index(b, a)
        assert 0.0 <= jaccard_index(a, b) <= 1.0

    @given(url_lists)
    def test_edit_self_is_zero(self, items):
        assert damerau_levenshtein(items, items) == 0

    @given(url_lists, url_lists)
    def test_edit_symmetric(self, a, b):
        assert damerau_levenshtein(a, b) == damerau_levenshtein(b, a)

    @given(url_lists, url_lists)
    def test_edit_bounded_by_longer(self, a, b):
        assert damerau_levenshtein(a, b) <= max(len(a), len(b))

    @given(url_lists, url_lists)
    def test_edit_at_least_length_difference(self, a, b):
        assert damerau_levenshtein(a, b) >= abs(len(a) - len(b))

    def test_osa_breaks_triangle_inequality(self):
        # The paper's edit distance is optimal string alignment (OSA),
        # which may not edit a transposed pair again, so it is not a
        # metric: the detour through [a, c] costs 1 + 1.
        assert damerau_levenshtein(["c", "a"], ["a", "b", "c"]) == 3
        assert damerau_levenshtein(["c", "a"], ["a", "c"]) == 1
        assert damerau_levenshtein(["a", "c"], ["a", "b", "c"]) == 1

    @settings(max_examples=40)
    @given(url_lists, url_lists, url_lists)
    def test_edit_relaxed_triangle_inequality(self, a, b, c):
        # OSA <= Levenshtein <= 2 * OSA and Levenshtein is a metric, so
        # OSA satisfies the triangle inequality up to a factor of 2.
        assert damerau_levenshtein(a, c) <= 2 * (
            damerau_levenshtein(a, b) + damerau_levenshtein(b, c)
        )

    @given(url_lists, url_lists)
    def test_identical_sets_give_jaccard_one(self, a, b):
        if set(a) == set(b):
            assert jaccard_index(a, b) == 1.0


class TestGeoProperties:
    @given(lats, lons, lats, lons)
    def test_haversine_symmetric_nonnegative(self, lat1, lon1, lat2, lon2):
        a, b = LatLon(lat1, lon1), LatLon(lat2, lon2)
        assert haversine_km(a, b) >= 0
        assert haversine_km(a, b) == haversine_km(b, a)

    @given(lats, lons, st.floats(min_value=0, max_value=359.9),
           st.floats(min_value=0, max_value=500))
    def test_destination_distance_consistent(self, lat, lon, bearing, distance):
        origin = LatLon(lat, lon)
        target = destination(origin, bearing, distance)
        assert haversine_km(origin, target) == (
            __import__("pytest").approx(distance, rel=1e-4, abs=1e-6)
        )

    @given(lats, lons)
    def test_grid_snap_idempotent(self, lat, lon):
        grid = GeoGrid(1.0)
        point = LatLon(lat, lon)
        assert grid.snap(grid.snap(point)) == grid.snap(point)

    @given(lats, lons)
    def test_point_is_inside_its_cell(self, lat, lon):
        grid = GeoGrid(1.0)
        point = LatLon(lat, lon)
        cell = grid.cell_of(point)
        assert cell in grid.cells_within(point, 0.0)

    @given(lats, lons, st.floats(min_value=0.1, max_value=6.0))
    def test_cells_within_contains_center_cell(self, lat, lon, radius):
        grid = GeoGrid(1.0)
        point = LatLon(lat, lon)
        assert grid.cell_of(point) in grid.cells_within(point, radius)


class TestSeedingProperties:
    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
    def test_derive_seed_in_range(self, master, label):
        assert 0 <= derive_seed(master, label) < 2**64

    @given(st.text(max_size=20), st.integers(min_value=0, max_value=10**9))
    def test_stable_unit_in_range(self, label, n):
        assert 0.0 <= stable_unit(label, n) < 1.0

    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=10),
           st.text(max_size=10))
    def test_different_labels_rarely_collide(self, master, a, b):
        if a != b:
            # 64-bit collisions are possible but should never appear in
            # a hypothesis run.
            assert derive_seed(master, a) != derive_seed(master, b)


class TestIPv4Properties:
    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_parse_str_round_trip(self, value):
        ip = IPv4Address(value)
        assert IPv4Address.parse(str(ip)) == ip

    @given(st.integers(min_value=0, max_value=0xFFFFFF00), st.integers(0, 255))
    def test_subnet_membership_consistent(self, base, offset):
        network = IPv4Address(base & 0xFFFFFF00)
        subnet = IPv4Subnet(network, 24)
        member = IPv4Address((network.value & 0xFFFFFF00) | offset)
        assert member in subnet

    @given(st.integers(min_value=0, max_value=32))
    def test_subnet_size(self, prefix):
        subnet = IPv4Subnet(IPv4Address(0), prefix)
        assert subnet.size == 2 ** (32 - prefix)


class TestSummaryProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_mean_within_range(self, values):
        stats = summarize(values)
        assert min(values) - 1e-9 <= stats.mean <= max(values) + 1e-9
        assert stats.std >= 0
        assert stats.count == len(values)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
           st.integers(min_value=1, max_value=20))
    def test_constant_sequence_has_near_zero_std(self, value, count):
        # sum(v * n) / n need not equal v exactly in floating point, so
        # the property holds only to rounding tolerance.
        stats = summarize([value] * count)
        assert stats.std <= abs(value) * 1e-12 + 1e-12
        assert stats.mean == __import__("pytest").approx(value, rel=1e-12, abs=1e-12)
