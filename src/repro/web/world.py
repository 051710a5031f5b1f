"""The WebWorld facade: every candidate document the engine can rank.

``WebWorld`` ties together the grid, the POI database, the news pool,
and the entity generators.  It is *scoring-free*: it returns documents
with their generation-time base scores and geographic anchors, and the
engine layers distance decay, location-keyed personalization, and noise
on top.  This split keeps the "what exists on the web" model separate
from "how the engine ranks it" — the paper's findings are claims about
the latter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.geo.coords import LatLon
from repro.queries.model import Query, QueryCategory
from repro.seeding import derive_seed
from repro.web.documents import DocKind, Document, GeoScope
from repro.web.entities import (
    ambiguous_entities,
    city_docs,
    state_docs,
    universal_docs,
)
from repro.web.grid import GeoGrid, GridCell
from repro.web.news import NewsPool
from repro.web.pois import Poi, PoiDatabase, category_for_term
from repro.web.urls import Url, slugify

__all__ = ["WebWorld"]


class WebWorld:
    """A deterministic synthetic web.

    Args:
        seed: World seed.  Two worlds with the same seed are identical.
        cell_miles: Fine-grid cell size (POI generation + snapping).
        metro_miles: Metro-grid cell size (cities, local outlets).
    """

    def __init__(
        self,
        seed: int,
        *,
        cell_miles: float = 1.0,
        metro_miles: float = 8.0,
        locator=None,
    ):
        from repro.geo.locate import US_LOCATOR

        self.seed = seed
        self.grid = GeoGrid(cell_miles)
        self.metro_grid = GeoGrid(metro_miles)
        self.pois = PoiDatabase(derive_seed(seed, "poi-db"), self.grid, self.metro_grid)
        self.news = NewsPool(derive_seed(seed, "news-pool"))
        #: Which country's top-level regions scope state-level content.
        self.locator = locator or US_LOCATOR
        # universal_docs and ambiguous_entities are pure functions of the
        # query (and this world's seed), and documents are frozen, so one
        # slate per query serves every request.
        self._universal: Dict[Query, Tuple[Document, ...]] = {}
        self._ambiguity: Dict[Query, Tuple[Document, ...]] = {}

    # -- organic candidates -------------------------------------------------

    def universal_candidates(self, query: Query) -> Tuple[Document, ...]:
        """Nationally scoped pages for ``query``, built once per query."""
        slate = self._universal.get(query)
        if slate is None:
            slate = self._universal[query] = tuple(universal_docs(query))
        return slate

    def state_candidates(self, query: Query, state: str) -> List[Document]:
        """State-scoped pages for ``query`` as seen from ``state``."""
        return state_docs(query, state)

    def city_candidates(self, query: Query, metro_cell: GridCell) -> List[Document]:
        """City-scoped pages for ``query`` in one metro cell."""
        return city_docs(query, metro_cell)

    def ambiguity_candidates(self, query: Query) -> Tuple[Document, ...]:
        """Pages of same-named non-politicians (common names only),
        built once per query."""
        slate = self._ambiguity.get(query)
        if slate is None:
            slate = self._ambiguity[query] = tuple(
                entity.document for entity in ambiguous_entities(query, self.seed)
            )
        return slate

    def poi_candidates(
        self,
        query: Query,
        point: LatLon,
        *,
        radius_miles: float,
        limit: Optional[int] = None,
    ) -> List[Document]:
        """Local-business documents near ``point`` for a local query.

        Returned with ``base_score`` equal to the POI's intrinsic
        quality; the engine subtracts its distance penalty using the
        document's anchor.
        """
        if query.category is not QueryCategory.LOCAL:
            return []
        spec = category_for_term(query.text, is_brand=query.is_brand)
        pois = self.pois.pois_near(spec, point, radius_miles, limit=limit)
        return [self._poi_document(query, poi) for poi in pois]

    def _poi_document(self, query: Query, poi: Poi) -> Document:
        if query.is_brand:
            # Chain outlets live under the chain's own domain.
            url = Url(
                host=f"{slugify(query.text)}.example.com",
                path=f"/locations/{slugify(poi.city)}/{slugify(poi.poi_id)}",
            )
            title = f"{query.text} - {poi.city}"
        else:
            url = poi.url
            title = poi.name
        return Document(
            url=url,
            title=title,
            kind=DocKind.LOCAL_BUSINESS,
            scope=GeoScope.POINT,
            base_score=max(0.0, poi.quality),
            anchor=poi.location,
        )

    # -- meta-card content --------------------------------------------------

    def maps_places(self, query: Query, point: LatLon, count: int) -> List[Document]:
        """The ``count`` nearest places for a Maps card.

        Place links are distinct from organic links (they point into the
        maps product), matching how the paper's parser sees them.
        """
        if query.category is not QueryCategory.LOCAL:
            return []
        spec = category_for_term(query.text, is_brand=query.is_brand)
        pois = self.pois.pois_near(spec, point, radius_miles=6.0, limit=count)
        return [
            Document(
                url=Url(host="maps.example.com", path=f"/place/{slugify(poi.poi_id)}"),
                title=poi.name,
                kind=DocKind.MAP_PLACE,
                scope=GeoScope.POINT,
                base_score=0.0,
                anchor=poi.location,
            )
            for poi in pois
        ]

    def news_articles(
        self,
        query: Query,
        day: int,
        state: Optional[str],
        count: int,
    ) -> List[Document]:
        """The top ``count`` news articles for a News card."""
        articles = self.news.articles_for(query.text, day, state=state)
        return [a.document for a in articles[:count]]
