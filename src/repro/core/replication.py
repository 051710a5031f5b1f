"""Multi-seed replication: are the findings seed artifacts?

The whole study is deterministic given a seed — which invites the
question whether a finding (say, "the county→state jump is the biggest
step") is a property of the *system* or a fluke of one synthetic-world
draw.  :func:`replicate` reruns a reduced study across several seeds
and aggregates the headline metrics, so every claim can be reported as
mean ± std over independent worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.experiment import StudyConfig
from repro.core.personalization import PersonalizationAnalysis
from repro.core.runner import Study
from repro.stats.summaries import MeanStd, summarize

__all__ = ["SeedOutcome", "ReplicationResult", "replicate"]

_GRANULARITIES = ("county", "state", "national")


@dataclass(frozen=True)
class SeedOutcome:
    """Headline metrics from one seed's study."""

    seed: int
    local_noise: float
    local_edit: Dict[str, float]  # per granularity
    local_net: Dict[str, float]
    controversial_net_national: float
    politician_net_national: float

    @property
    def gradient_holds(self) -> bool:
        """county < state < national for local personalization."""
        return (
            self.local_edit["county"]
            < self.local_edit["state"]
            < self.local_edit["national"]
        )

    @property
    def county_state_jump_is_largest(self) -> bool:
        """The paper's 'especially high between county and state'."""
        return (self.local_edit["state"] - self.local_edit["county"]) > (
            self.local_edit["national"] - self.local_edit["state"]
        )


@dataclass(frozen=True)
class ReplicationResult:
    """Aggregate over all replicated seeds."""

    outcomes: List[SeedOutcome]

    @property
    def seeds(self) -> int:
        return len(self.outcomes)

    def gradient_fraction(self) -> float:
        """Fraction of seeds where the distance gradient holds."""
        return sum(o.gradient_holds for o in self.outcomes) / self.seeds

    def jump_fraction(self) -> float:
        """Fraction of seeds where the county→state jump is largest."""
        return sum(o.county_state_jump_is_largest for o in self.outcomes) / self.seeds

    def local_net(self, granularity: str) -> MeanStd:
        """Net local personalization across seeds."""
        return summarize(o.local_net[granularity] for o in self.outcomes)

    def local_noise(self) -> MeanStd:
        """Local noise floor across seeds."""
        return summarize(o.local_noise for o in self.outcomes)

    def render(self) -> str:
        """A text summary of the replication."""
        lines = [
            f"multi-seed replication ({self.seeds} independent worlds)",
            f"  distance gradient holds:      {self.gradient_fraction():.0%} of seeds",
            f"  county→state jump largest:    {self.jump_fraction():.0%} of seeds",
            f"  local noise floor:            {self.local_noise()}",
        ]
        for granularity in _GRANULARITIES:
            lines.append(
                f"  net local @ {granularity:8s}          {self.local_net(granularity)}"
            )
        lines.append(
            "  non-local near noise:         "
            + ", ".join(
                f"{o.controversial_net_national:.2f}" for o in self.outcomes[:5]
            )
            + " (controversial, national)"
        )
        return "\n".join(lines)


def replicate(
    seeds: Sequence[int],
    *,
    base_config: Optional[StudyConfig] = None,
    locations_per_granularity: int = 6,
    days: int = 1,
) -> ReplicationResult:
    """Run the reduced study once per seed and aggregate.

    Args:
        seeds: Independent seeds (each builds its own world + engine +
            location sample).
        base_config: Template configuration; per-seed configs override
            only the seed.  Defaults to a balanced reduced corpus.
        locations_per_granularity: Study size when no template given.
        days: Days per study when no template given.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")

    outcomes: List[SeedOutcome] = []
    for seed in seeds:
        if base_config is not None:
            config = base_config.with_overrides(seed=seed)
        else:
            from repro.queries.corpus import build_corpus
            from repro.queries.model import QueryCategory

            corpus = build_corpus()
            local = corpus.by_category(QueryCategory.LOCAL)
            queries = (
                [q for q in local if not q.is_brand][:6]
                + [q for q in local if q.is_brand][:2]
                + corpus.by_category(QueryCategory.CONTROVERSIAL)[:4]
                + corpus.by_category(QueryCategory.POLITICIAN)[:4]
            )
            config = StudyConfig.small(
                queries,
                seed=seed,
                days=days,
                locations_per_granularity=locations_per_granularity,
            )
        dataset = Study(config).run()
        personalization = PersonalizationAnalysis(dataset)
        outcomes.append(
            SeedOutcome(
                seed=seed,
                local_noise=personalization.noise.cell("local", "county").edit.mean,
                local_edit={
                    g: personalization.cell("local", g).edit.mean
                    for g in _GRANULARITIES
                },
                local_net={
                    g: personalization.net_edit("local", g) for g in _GRANULARITIES
                },
                controversial_net_national=personalization.net_edit(
                    "controversial", "national"
                ),
                politician_net_national=personalization.net_edit(
                    "politician", "national"
                ),
            )
        )
    return ReplicationResult(outcomes=outcomes)
