"""Related-search suggestions — a second personalization surface.

Real SERPs end with a "related searches" strip, and prior auditing work
(e.g. Bobble's autocomplete studies) found suggestions are personalized
too.  The engine composes a per-request strip from a query-type pool:

* local queries draw location-flavoured variants ("<term> near me",
  "<term> in <city>", "<term> <state>") alongside generic ones — so the
  strip varies by location;
* controversial/politician queries draw stable informational variants.

Selection is deterministic per (query, state, metro): the suggestion
strip has *no* A/B noise, matching how suggestion services are cached
far more aggressively than rankings.
"""

from __future__ import annotations

from typing import List

from repro.queries.model import Query, QueryCategory
from repro.seeding import stable_hashes
from repro.web.grid import GridCell
from repro.web.naming import city_name

__all__ = ["related_searches", "SUGGESTION_COUNT"]

#: Suggestions per strip.
SUGGESTION_COUNT = 6

_GENERIC_TEMPLATES = [
    "{term} near me",
    "best {term}",
    "{term} reviews",
    "{term} hours",
    "24 hour {term}",
    "{term} prices",
    "cheap {term}",
    "{term} open now",
]

_LOCAL_PLACE_TEMPLATES = [
    "{term} in {city}",
    "{term} {state}",
    "{term} downtown {city}",
]

_INFO_TEMPLATES = [
    "what is {term}",
    "{term} explained",
    "{term} pros and cons",
    "{term} facts",
    "{term} history",
    "{term} news",
    "{term} statistics",
    "is {term} good",
]

_PERSON_TEMPLATES = [
    "{term} biography",
    "{term} voting record",
    "{term} net worth",
    "{term} contact",
    "{term} news",
    "{term} age",
    "{term} twitter",
    "{term} family",
]


def related_searches(
    query: Query,
    state: str,
    metro: GridCell,
    *,
    seed: int,
    count: int = SUGGESTION_COUNT,
) -> List[str]:
    """The suggestion strip for one request.

    Deterministic per (query, state, metro): simultaneous identical
    requests always agree (no suggestion noise), while locations differ
    through the place-flavoured entries and the location-keyed ranking
    of the pool.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    term = query.text.lower()
    if query.category is QueryCategory.LOCAL:
        city = city_name(metro)
        pool = [t.format(term=term, city=city, state=state)
                for t in _GENERIC_TEMPLATES + _LOCAL_PLACE_TEMPLATES]
        location_weight = 1.0
    elif query.category is QueryCategory.POLITICIAN:
        # Person suggestions are location-independent (who is asking
        # does not change what is asked about a person).
        pool = [t.format(term=query.text) for t in _PERSON_TEMPLATES]
        location_weight = 0.0
    else:
        pool = [t.format(term=term) for t in _INFO_TEMPLATES]
        location_weight = 0.1

    # Rank key per suggestion: base + location_weight * local, each a
    # hash of the suggestion drawn in one batch per family.
    bases = stable_hashes(("suggestion-base", seed, query.key), pool)
    locals_ = stable_hashes(
        ("suggestion-local", seed, query.key), pool, (state, metro.ix, metro.iy)
    )
    rank_key = {
        suggestion: base % 1000 + location_weight * (local % 1000)
        for suggestion, base, local in zip(pool, bases, locals_)
    }
    ranked = sorted(pool, key=rank_key.__getitem__)
    return ranked[:count]
