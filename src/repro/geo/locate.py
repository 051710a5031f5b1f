"""Reverse geolocation: coordinate → enclosing top-level region.

The engine scopes some content (regional government pages, region-wide
news outlets) to the user's state/province.  Without offline
shapefiles, containment is approximated by nearest *anchor*: every
region contributes its centroid plus its major cities, and the region
owning the closest anchor wins.  City anchors matter near borders —
Cincinnati (Hamilton County, OH) is closer to Indiana's centroid than
to Ohio's, but its own anchor resolves it correctly.

The anchor set is a :class:`RegionLocator`, so the same mechanism works
for any country (see :mod:`repro.geo.germany` for the second pack,
demonstrating the paper's "extended to other countries" direction).
:func:`nearest_state` is the US-bound convenience used throughout.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

from repro.geo.coords import EARTH_RADIUS_KM, LatLon
from repro.geo.usa import US_STATES

__all__ = ["RegionLocator", "US_LOCATOR", "nearest_state"]

#: Relative slack on the latitude bound before the search stops: far
#: above float rounding, so an anchor that could tie is never pruned.
_PRUNE_SLACK = 1e-9


class RegionLocator:
    """Nearest-anchor assignment of coordinates to named regions."""

    def __init__(self, name: str, anchors: Sequence[Tuple[str, LatLon]]):
        if not anchors:
            raise ValueError("a locator needs at least one anchor")
        self.name = name
        self._anchors: List[Tuple[str, LatLon]] = list(anchors)
        # (lat, lon in radians, cos(lat), original index), sorted by
        # latitude: the search walks outward from the query's latitude.
        self._by_lat: List[Tuple[float, float, float, int]] = sorted(
            (
                math.radians(anchor.lat),
                math.radians(anchor.lon),
                math.cos(math.radians(anchor.lat)),
                index,
            )
            for index, (_, anchor) in enumerate(self._anchors)
        )
        self._lats: List[float] = [entry[0] for entry in self._by_lat]
        self._cache: Dict[LatLon, str] = {}

    @classmethod
    def from_tables(
        cls,
        name: str,
        centroids: Dict[str, LatLon],
        city_anchors: Dict[str, List[Tuple[float, float]]],
    ) -> "RegionLocator":
        """Build a locator from centroid + city-anchor tables."""
        anchors: List[Tuple[str, LatLon]] = []
        for region in sorted(centroids):
            anchors.append((region, centroids[region]))
            for lat, lon in city_anchors.get(region, ()):
                anchors.append((region, LatLon(lat, lon)))
        return cls(name, anchors)

    def regions(self) -> List[str]:
        """All region names the locator can resolve to."""
        return sorted({name for name, _ in self._anchors})

    def nearest_region(self, point: LatLon) -> str:
        """Name of the region owning the anchor closest to ``point``.

        Anchors are visited in order of latitude distance from
        ``point``, nearer side first.  An anchor's ``sin²(Δlat/2)`` is a
        lower bound on its haversine term and only grows along the walk,
        so once it exceeds the best term so far by :data:`_PRUNE_SLACK`
        every anchor left is strictly farther, and the walk stops.  Each
        visited distance is computed with
        :func:`~repro.geo.coords.haversine_km`'s float operations in its
        order, and equal distances go to the anchor listed first, so the
        answer is the full scan's, bit for bit.
        """
        cached = self._cache.get(point)
        if cached is not None:
            return cached
        lat1 = math.radians(point.lat)
        lon1 = math.radians(point.lon)
        cos1 = math.cos(lat1)
        by_lat = self._by_lat
        count = len(by_lat)
        hi = bisect_left(self._lats, lat1)
        lo = hi - 1
        best_index = count
        best_distance = float("inf")
        bound = float("inf")
        while lo >= 0 or hi < count:
            if hi == count or (lo >= 0 and lat1 - by_lat[lo][0] <= by_lat[hi][0] - lat1):
                lat2, lon2, cos2, index = by_lat[lo]
                lo -= 1
            else:
                lat2, lon2, cos2, index = by_lat[hi]
                hi += 1
            lat_term = math.sin((lat2 - lat1) / 2) ** 2
            if lat_term > bound:
                break
            h = lat_term + cos1 * cos2 * math.sin((lon2 - lon1) / 2) ** 2
            distance = 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))
            if distance < best_distance or (distance == best_distance and index < best_index):
                best_index, best_distance = index, distance
                bound = h * (1 + _PRUNE_SLACK)
        best = self._anchors[best_index][0]
        if len(self._cache) < 65536:
            self._cache[point] = best
        return best


#: Major-city anchors per US state (approximate coordinates).  Only
#: cities that materially improve border resolution are needed;
#: centroids cover the interior.
_US_CITY_ANCHORS: Dict[str, List[Tuple[float, float]]] = {
    "Ohio": [
        (41.4993, -81.6944),  # Cleveland
        (39.9612, -82.9988),  # Columbus
        (39.1031, -84.5120),  # Cincinnati
        (41.6528, -83.5379),  # Toledo
        (39.7589, -84.1916),  # Dayton
        (40.7989, -81.3784),  # Canton
        (41.0998, -80.6495),  # Youngstown
        (40.7684, -82.5515),  # Mansfield
        (39.3292, -82.1013),  # Athens
        (40.4203, -80.6520),  # Steubenville
        (41.0442, -83.6499),  # Findlay
        (40.7426, -84.1052),  # Lima
    ],
    "Indiana": [(39.7684, -86.1581), (41.5934, -87.3464), (37.9716, -87.5711)],
    "Kentucky": [(38.2527, -85.7585), (38.0406, -84.5037), (36.9685, -86.4808)],
    "West Virginia": [(38.3498, -81.6326), (39.6295, -79.9559), (40.0700, -80.7209)],
    "Pennsylvania": [(39.9526, -75.1652), (40.4406, -79.9959), (41.2033, -77.1945)],
    "Michigan": [(42.3314, -83.0458), (42.9634, -85.6681), (43.0125, -83.6875)],
    "New York": [(40.7128, -74.0060), (42.8864, -78.8784), (43.0481, -76.1474)],
    "Illinois": [(41.8781, -87.6298), (39.7817, -89.6501), (38.5200, -89.9839)],
    "Missouri": [(38.6270, -90.1994), (39.0997, -94.5786)],
    "Kansas": [(39.1141, -94.6275), (37.6872, -97.3301)],
    "New Jersey": [(40.7357, -74.1724), (39.9526, -75.1196)],
    "Maryland": [(39.2904, -76.6122), (38.5976, -77.0000)],
    "Virginia": [(37.5407, -77.4360), (38.8048, -77.0469)],
    "Texas": [(29.7604, -95.3698), (32.7767, -96.7970), (31.7619, -106.4850)],
    "California": [(34.0522, -118.2437), (37.7749, -122.4194), (32.7157, -117.1611)],
    "Florida": [(25.7617, -80.1918), (30.3322, -81.6557), (27.9506, -82.4572)],
    "Georgia": [(33.7490, -84.3880), (32.0809, -81.0912)],
    "Massachusetts": [(42.3601, -71.0589), (42.1015, -72.5898)],
    "Washington": [(47.6062, -122.3321), (46.2396, -119.1006)],
    "Oregon": [(45.5152, -122.6784), (44.0521, -123.0868)],
    "Nevada": [(36.1699, -115.1398), (39.5296, -119.8138)],
    "Arizona": [(33.4484, -112.0740), (32.2226, -110.9747)],
    "Colorado": [(39.7392, -104.9903), (38.8339, -104.8214)],
    "Minnesota": [(44.9778, -93.2650), (46.7867, -92.1005)],
    "Wisconsin": [(43.0389, -87.9065), (43.0731, -89.4012)],
    "Iowa": [(41.5868, -93.6250), (42.5006, -96.4003)],
    "Nebraska": [(41.2565, -95.9345), (40.8136, -96.7026)],
    "Tennessee": [(36.1627, -86.7816), (35.1495, -90.0490), (35.0456, -85.3097)],
    "North Carolina": [(35.2271, -80.8431), (35.7796, -78.6382)],
    "South Carolina": [(34.0007, -81.0348), (32.7765, -79.9311)],
    "Alabama": [(33.5186, -86.8104), (30.6954, -88.0399)],
    "Louisiana": [(29.9511, -90.0715), (32.5093, -92.1193)],
    "Oklahoma": [(35.4676, -97.5164), (36.1540, -95.9928)],
    "Arkansas": [(34.7465, -92.2896)],
    "Mississippi": [(32.2988, -90.1848)],
    "Utah": [(40.7608, -111.8910)],
    "New Mexico": [(35.0844, -106.6504)],
    "Idaho": [(43.6150, -116.2023)],
    "Montana": [(45.7833, -108.5007)],
    "Wyoming": [(41.1400, -104.8202)],
    "North Dakota": [(46.8772, -96.7898)],
    "South Dakota": [(43.5446, -96.7311)],
    "Maine": [(43.6591, -70.2568)],
    "New Hampshire": [(42.9956, -71.4548)],
    "Vermont": [(44.4759, -73.2121)],
    "Connecticut": [(41.7658, -72.6734), (41.3083, -72.9279)],
    "Rhode Island": [(41.8240, -71.4128)],
    "Delaware": [(39.7391, -75.5398)],
    "Alaska": [(61.2181, -149.9003)],
    "Hawaii": [(21.3069, -157.8583)],
}

#: The default locator: the 50 US states.
US_LOCATOR = RegionLocator.from_tables("USA", US_STATES, _US_CITY_ANCHORS)


def nearest_state(point: LatLon) -> str:
    """Name of the US state owning the anchor closest to ``point``."""
    return US_LOCATOR.nearest_region(point)
