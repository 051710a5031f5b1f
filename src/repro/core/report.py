"""Figure/table assembly and text rendering.

One builder per table/figure in the paper.  Each returns plain data
(lists of rows) and has a ``render_*`` companion producing an aligned
text table with the paper's expectation alongside the measured value,
so a benchmark run reads like EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.comparisons import PairAnalysis
from repro.core.consistency import ConsistencyAnalysis, ConsistencySeries
from repro.core.datastore import SerpDataset
from repro.core.parser import ResultType
from repro.core.personalization import PersonalizationAnalysis

__all__ = ["StudyReport", "CATEGORY_ORDER", "GRANULARITY_ORDER"]

#: Display order used by every figure (matches the paper's axes).
CATEGORY_ORDER = ["politician", "controversial", "local"]
GRANULARITY_ORDER = ["county", "state", "national"]

_GRANULARITY_LABELS = {
    "county": "County (Cuyahoga)",
    "state": "State (Ohio)",
    "national": "National (USA)",
}
_CATEGORY_LABELS = {
    "politician": "Politicians",
    "controversial": "Controversial",
    "local": "Local",
}


@dataclass(frozen=True)
class FigureRow:
    """One row of a rendered figure table."""

    label: str
    values: Dict[str, float]


def _format_table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    def fmt(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


class StudyReport:
    """All figure builders over one collected dataset."""

    def __init__(self, dataset: SerpDataset):
        self.dataset = dataset
        self.personalization = PersonalizationAnalysis(dataset)
        self.noise = self.personalization.noise

    # -- helpers ---------------------------------------------------------------

    def _present(self, order: List[str], available: List[str]) -> List[str]:
        return [value for value in order if value in available]

    def categories(self) -> List[str]:
        return self._present(CATEGORY_ORDER, self.dataset.categories())

    def granularities(self) -> List[str]:
        return self._present(GRANULARITY_ORDER, self.dataset.granularities())

    def _per_term_rows(self, analysis: PairAnalysis, category: str) -> List[dict]:
        """Per-term mean edit distance at each granularity, terms in
        ascending order of their national (else first) value."""
        per_granularity = {
            granularity: analysis.per_term(category, granularity)
            for granularity in self.granularities()
        }
        national = per_granularity.get("national") or next(iter(per_granularity.values()))
        terms = sorted(national, key=lambda t: national[t].edit.mean)
        rows = []
        for term in terms:
            row = {"term": term}
            for granularity, cells in per_granularity.items():
                row[granularity] = cells[term].edit.mean if term in cells else None
            rows.append(row)
        return rows

    def _render_per_term(self, title: str, figure_rows: List[dict]) -> str:
        rows = [
            [r["term"]]
            + [
                f"{r[g]:.2f}" if r.get(g) is not None else "-"
                for g in self.granularities()
            ]
            for r in figure_rows
        ]
        return title + "\n" + _format_table(
            ["Term"] + [_GRANULARITY_LABELS[g] for g in self.granularities()], rows
        )

    # -- Figure 2: noise ---------------------------------------------------------

    def fig2_rows(self) -> List[dict]:
        """Average noise per (granularity, category): Jaccard and edit."""
        rows = []
        for granularity in self.granularities():
            for category in self.categories():
                cell = self.noise.cell(category, granularity)
                rows.append(
                    {
                        "granularity": granularity,
                        "category": category,
                        "jaccard_mean": cell.jaccard.mean,
                        "jaccard_std": cell.jaccard.std,
                        "edit_mean": cell.edit.mean,
                        "edit_std": cell.edit.std,
                        "pairs": cell.jaccard.count,
                    }
                )
        return rows

    def render_fig2(self) -> str:
        rows = [
            [
                _GRANULARITY_LABELS[r["granularity"]],
                _CATEGORY_LABELS[r["category"]],
                f"{r['jaccard_mean']:.3f} ± {r['jaccard_std']:.3f}",
                f"{r['edit_mean']:.2f} ± {r['edit_std']:.2f}",
                str(r["pairs"]),
            ]
            for r in self.fig2_rows()
        ]
        return (
            "Figure 2 — noise (treatment vs control)\n"
            + _format_table(
                ["Granularity", "Query type", "Avg Jaccard", "Avg edit distance", "n"],
                rows,
            )
        )

    # -- Figure 3: per-term noise ---------------------------------------------------

    def fig3_rows(self, category: str = "local") -> List[dict]:
        """Per-term edit-distance noise at each granularity."""
        return self._per_term_rows(self.noise, category)

    def render_fig3(self) -> str:
        return self._render_per_term(
            "Figure 3 — per-term noise for local queries (edit distance)",
            self.fig3_rows(),
        )

    # -- Figure 4: noise by result type --------------------------------------------

    def fig4_rows(
        self, category: str = "local", granularity: str = "county"
    ) -> List[dict]:
        """Per-term noise split into All / Maps / News (county, local)."""
        all_noise = self.noise.per_term_type_breakdown(category, granularity)
        maps_noise = self.noise.per_term_type_breakdown(
            category, granularity, result_type=ResultType.MAPS
        )
        news_noise = self.noise.per_term_type_breakdown(
            category, granularity, result_type=ResultType.NEWS
        )
        terms = sorted(all_noise, key=lambda t: all_noise[t])
        return [
            {
                "term": term,
                "all": all_noise[term],
                "maps": maps_noise[term],
                "news": news_noise[term],
            }
            for term in terms
        ]

    def render_fig4(self) -> str:
        rows = [
            [r["term"], f"{r['all']:.2f}", f"{r['maps']:.2f}", f"{r['news']:.2f}"]
            for r in self.fig4_rows()
        ]
        return (
            "Figure 4 — noise caused by result types (local queries, county)\n"
            + _format_table(["Term", "All", "Maps", "News"], rows)
        )

    # -- Figure 5: personalization ----------------------------------------------------

    def fig5_rows(self) -> List[dict]:
        """Average personalization per (granularity, category) with the
        noise floor alongside (the black bars of the paper's figure)."""
        rows = []
        for granularity in self.granularities():
            for category in self.categories():
                cell = self.personalization.cell(category, granularity)
                rows.append(
                    {
                        "granularity": granularity,
                        "category": category,
                        "jaccard_mean": cell.jaccard.mean,
                        "jaccard_std": cell.jaccard.std,
                        "edit_mean": cell.edit.mean,
                        "edit_std": cell.edit.std,
                        "noise_jaccard": self.noise.noise_floor_jaccard(
                            category, granularity
                        ),
                        "noise_edit": self.noise.noise_floor_edit(category, granularity),
                        "pairs": cell.jaccard.count,
                    }
                )
        return rows

    def render_fig5(self) -> str:
        rows = [
            [
                _GRANULARITY_LABELS[r["granularity"]],
                _CATEGORY_LABELS[r["category"]],
                f"{r['jaccard_mean']:.3f} ± {r['jaccard_std']:.3f}",
                f"{r['edit_mean']:.2f} ± {r['edit_std']:.2f}",
                f"{r['noise_jaccard']:.3f}",
                f"{r['noise_edit']:.2f}",
            ]
            for r in self.fig5_rows()
        ]
        return (
            "Figure 5 — personalization (all treatment pairs; noise floor alongside)\n"
            + _format_table(
                [
                    "Granularity",
                    "Query type",
                    "Avg Jaccard",
                    "Avg edit distance",
                    "Noise J",
                    "Noise E",
                ],
                rows,
            )
        )

    # -- Figure 6: per-term personalization ----------------------------------------------

    def fig6_rows(self, category: str = "local") -> List[dict]:
        """Per-term personalization edit distance at each granularity."""
        return self._per_term_rows(self.personalization, category)

    def render_fig6(self) -> str:
        return self._render_per_term(
            "Figure 6 — per-term personalization for local queries (edit distance)",
            self.fig6_rows(),
        )

    # -- Figure 7: personalization by result type ------------------------------------------

    def fig7_rows(self) -> List[dict]:
        """Edit distance decomposed into Maps / News / Other."""
        rows = []
        for category in self.categories():
            for granularity in self.granularities():
                parts = self.personalization.type_decomposition(category, granularity)
                rows.append(
                    {
                        "category": category,
                        "granularity": granularity,
                        **parts,
                        "total": parts["maps"] + parts["news"] + parts["other"],
                    }
                )
        return rows

    def render_fig7(self) -> str:
        rows = [
            [
                _CATEGORY_LABELS[r["category"]],
                _GRANULARITY_LABELS[r["granularity"]],
                f"{r['maps']:.2f}",
                f"{r['news']:.2f}",
                f"{r['other']:.2f}",
                f"{r['total']:.2f}",
            ]
            for r in self.fig7_rows()
        ]
        return (
            "Figure 7 — personalization by result type (edit-distance components)\n"
            + _format_table(
                ["Query type", "Granularity", "Maps", "News", "Other", "Total"], rows
            )
        )

    # -- chart renderers -----------------------------------------------------------

    def render_fig2_chart(self) -> str:
        """Figure 2 as an ASCII bar chart (edit-distance noise)."""
        from repro.core.plotting import BarChart

        chart = BarChart(title="Figure 2 — edit-distance noise by cell", width=44)
        for row in self.fig2_rows():
            label = f"{_CATEGORY_LABELS[row['category']][:13]} @ {row['granularity']}"
            chart.add(label, row["edit_mean"])
        return chart.render()

    def render_fig5_chart(self) -> str:
        """Figure 5 as an ASCII bar chart with noise-floor ticks."""
        from repro.core.plotting import BarChart

        chart = BarChart(
            title="Figure 5 — personalization (| marks the noise floor)", width=44
        )
        for row in self.fig5_rows():
            label = f"{_CATEGORY_LABELS[row['category']][:13]} @ {row['granularity']}"
            chart.add(label, row["edit_mean"], mark=row["noise_edit"])
        return chart.render()

    def render_fig8_chart(self, granularity: str, *, max_series: int = 6) -> str:
        """Figure 8 as an ASCII line chart (noise floor + locations)."""
        from repro.core.plotting import LineChart

        series = self.fig8_series(granularity)
        chart = LineChart(
            title=(
                f"Figure 8 ({_GRANULARITY_LABELS[granularity]}) — per-day edit "
                f"distance to {series.baseline}"
            ),
            width=48,
            height=12,
        )
        chart.add_series("noise floor", series.noise_floor)
        for name in sorted(series.per_location)[: max_series - 1]:
            chart.add_series(name.split("/")[-1], series.per_location[name])
        return chart.render()

    # -- Figure 8: consistency over time -----------------------------------------------

    def fig8_series(
        self, granularity: str, *, baseline: Optional[str] = None
    ) -> ConsistencySeries:
        """The per-day baseline-comparison series for one granularity."""
        return ConsistencyAnalysis(self.dataset).series(granularity, baseline=baseline)

    def render_fig8(self, granularity: str) -> str:
        series = self.fig8_series(granularity)
        rows = [
            ["noise floor (control)"]
            + [f"{value:.2f}" for value in series.noise_floor]
        ]
        for name in sorted(series.per_location):
            rows.append(
                [name] + [f"{value:.2f}" for value in series.per_location[name]]
            )
        return (
            f"Figure 8 ({_GRANULARITY_LABELS[granularity]}) — edit distance to "
            f"baseline {series.baseline} per day\n"
            + _format_table(
                ["Location"] + [f"day {d + 1}" for d in series.days], rows
            )
        )
