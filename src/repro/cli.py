"""Command-line interface: run the study, print figures, validate.

Examples::

    repro-study run --scale small --out study.jsonl.gz --workers 4
    repro-study report --dataset study.jsonl.gz --figure 5
    repro-study validate --machines 50
    repro-study demographics --dataset study.jsonl.gz
    repro-study serve-bench --routing geo-affinity --cache-size 4096
    repro-study serve-bench --gateways 4 --requests 300 --trace s.trace.jsonl
    repro-study chaos-serve --plan serve-chaos --gateways 3 --smoke
    repro-study chaos --plan chaos --workers 2 --checkpoint crawl.ckpt
    repro-study run --scale small --out s.jsonl.gz --trace s.trace.jsonl
    repro-study trace s.trace.jsonl --check --chrome s.chrome.json
    repro-study metrics s.metrics.json --format prom
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.datastore import SerpDataset
from repro.core.demographics_analysis import DemographicsAnalysis
from repro.core.experiment import DEFAULT_STUDY_SEED, StudyConfig
from repro.core.report import StudyReport
from repro.core.runner import Study
from repro.core.validation import run_gps_validation

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Reproduce the IMC'15 geolocation search-personalization study.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.faults.plan import NAMED_PLANS
    from repro.store.faults import DISK_NAMED_PLANS

    run = sub.add_parser("run", help="run the crawl and save the dataset")
    run.add_argument("--seed", type=int, default=DEFAULT_STUDY_SEED)
    run.add_argument(
        "--scale",
        choices=["small", "medium", "full"],
        default="small",
        help="small: tests-scale; medium: calibration-scale; full: the paper",
    )
    run.add_argument("--days", type=int, default=None, help="override day count")
    run.add_argument("--out", required=True, help="output dataset path (.jsonl[.gz])")
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="crawl worker processes (byte-identical to workers=1)",
    )
    run.add_argument(
        "--checkpoint",
        default=None,
        help="round-journal path: a killed run resumes from it "
        "byte-identically (same seed/scale/workers required)",
    )
    run.add_argument(
        "--gateway",
        action="store_true",
        help="route the crawl via the serving gateway",
    )
    run.add_argument(
        "--plan",
        choices=sorted(NAMED_PLANS),
        default=None,
        help="inject a named fault plan during the crawl",
    )
    run.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault schedule (with --plan)",
    )
    run.add_argument(
        "--supervise",
        action="store_true",
        help="run workers under repro.supervise: heartbeat monitoring, "
        "crash/hang recovery, shard reassignment",
    )
    run.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the unified metrics snapshot as JSON",
    )
    log = run.add_mutually_exclusive_group()
    log.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the --events log with the run's spans in it: one "
        "`span` event per round tree (read with `repro trace`)",
    )
    log.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="write the canonical wide-event log, a framed record log: "
        "one event per crawl cell, byte-identical for any --workers "
        "(resumes with --checkpoint; query with `repro telemetry`)",
    )

    report = sub.add_parser("report", help="print figure tables from a dataset")
    report.add_argument("--dataset", required=True)
    report.add_argument(
        "--figure",
        choices=["2", "3", "4", "5", "6", "7", "8", "all"],
        default="all",
    )

    validate = sub.add_parser("validate", help="run the GPS-vs-IP validation")
    validate.add_argument("--seed", type=int, default=DEFAULT_STUDY_SEED)
    validate.add_argument("--machines", type=int, default=50)

    demo = sub.add_parser("demographics", help="demographic-correlation analysis")
    demo.add_argument("--dataset", required=True)
    demo.add_argument("--seed", type=int, default=DEFAULT_STUDY_SEED)

    charts = sub.add_parser("chart", help="render ASCII charts from a dataset")
    charts.add_argument("--dataset", required=True)
    charts.add_argument("--figure", choices=["2", "5", "8"], default="5")
    charts.add_argument("--granularity", default="county",
                        choices=["county", "state", "national"])

    cross = sub.add_parser(
        "crossengine", help="audit two engines side by side (paper's extension)"
    )
    cross.add_argument("--seed", type=int, default=DEFAULT_STUDY_SEED)

    carry = sub.add_parser(
        "carryover", help="measure session-history contamination vs wait time"
    )
    carry.add_argument("--seed", type=int, default=DEFAULT_STUDY_SEED)

    content = sub.add_parser(
        "content", help="content analysis: locality, diversity, advocacy balance"
    )
    content.add_argument("--dataset", required=True)

    export = sub.add_parser("export", help="export figure data as CSV/JSON")
    export.add_argument("--dataset", required=True)
    export.add_argument("--out", required=True, help="output directory")
    export.add_argument("--format", choices=["csv", "json"], default="csv")

    audit = sub.add_parser(
        "audit",
        help="term audits: one-shot, or the continuous audit service",
    )
    audit_sub = audit.add_subparsers(dest="audit_command", required=True)

    audit_terms = audit_sub.add_parser(
        "terms", help="one-shot audit of your own search terms"
    )
    audit_terms.add_argument("terms", nargs="+", help="search terms to audit")
    audit_terms.add_argument("--seed", type=int, default=DEFAULT_STUDY_SEED)
    audit_terms.add_argument("--days", type=int, default=2)

    audit_run = audit_sub.add_parser(
        "run-once",
        help="advance the registered audits by N cycles and exit",
    )
    audit_run.add_argument(
        "--store", default=".audit", help="audit store directory"
    )
    audit_run.add_argument("--seed", type=int, default=DEFAULT_STUDY_SEED)
    audit_run.add_argument("--cycles", type=int, default=1)
    audit_run.add_argument(
        "--workers", type=int, default=1, help="workers per cycle (byte-identical)"
    )
    audit_run.add_argument(
        "--smoke",
        action="store_true",
        help="CI tier: tiny audit (4 queries, 1 day), seconds of wall clock",
    )
    audit_run.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="write the combined alert ledger as canonical JSONL",
    )

    audit_serve = audit_sub.add_parser(
        "serve", help="run cycles, then serve the HTTP API"
    )
    audit_serve.add_argument(
        "--store", default=".audit", help="audit store directory"
    )
    audit_serve.add_argument("--seed", type=int, default=DEFAULT_STUDY_SEED)
    audit_serve.add_argument(
        "--cycles", type=int, default=1, help="cycles to run before serving"
    )
    audit_serve.add_argument("--host", default="127.0.0.1")
    audit_serve.add_argument(
        "--port", type=int, default=0, help="0 lets the OS pick"
    )
    audit_serve.add_argument(
        "--smoke", action="store_true", help="CI tier: tiny audit"
    )
    audit_serve.add_argument(
        "--check",
        action="store_true",
        help="round-trip every API route over HTTP, then exit "
        "(non-zero on any failure)",
    )

    audit_status = audit_sub.add_parser(
        "status", help="summarize the audit stores in a directory"
    )
    audit_status.add_argument(
        "--store", default=".audit", help="audit store directory"
    )

    diff = sub.add_parser("diff", help="compare two collected datasets")
    diff.add_argument("--a", required=True, help="first dataset path")
    diff.add_argument("--b", required=True, help="second dataset path")

    reportcard = sub.add_parser(
        "reportcard", help="generate a one-page markdown audit report"
    )
    reportcard.add_argument("--dataset", required=True)
    reportcard.add_argument("--out", help="write to a file instead of stdout")
    reportcard.add_argument("--title", default="Location-personalization audit")

    schedule = sub.add_parser(
        "schedule", help="analyse crawl-schedule feasibility for a config"
    )
    schedule.add_argument("--machines", type=int, default=44)
    schedule.add_argument("--request-seconds", type=float, default=6.0)

    from repro.serve.routing import ROUTING_POLICIES

    serve = sub.add_parser(
        "serve-bench",
        help="load-test the gateway fleet: throughput, cache, admission",
    )
    serve.add_argument("--seed", type=int, default=DEFAULT_STUDY_SEED)
    serve.add_argument("--requests", type=int, default=2000)
    serve.add_argument("--clients", type=int, default=200)
    serve.add_argument(
        "--routing", choices=sorted(ROUTING_POLICIES), default="round-robin"
    )
    serve.add_argument(
        "--cache-size", type=int, default=4096, help="SERP-cache entries (0 disables)"
    )
    serve.add_argument("--queue-capacity", type=int, default=32)
    serve.add_argument(
        "--rate", type=float, default=40.0, help="mean arrivals per virtual minute"
    )
    serve.add_argument(
        "--hedge-after",
        type=float,
        default=None,
        help="hedge to a second replica beyond this projected queue wait (virtual minutes)",
    )
    serve.add_argument(
        "--pin-frontend",
        action="store_true",
        help="give every client the same DNS answer (the paper's pinning)",
    )
    serve.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write an event log of the timed cells' fleet.request span "
        "trees, one `span` event each (read with `repro trace`)",
    )
    serve.add_argument(
        "--gateways",
        type=_positive_int,
        default=1,
        help="largest fleet size N: the sweep times a 1-gateway fleet, "
        "then an N-gateway consistent-hash fleet when N > 1",
    )
    serve.add_argument(
        "--replication",
        type=int,
        default=2,
        help="shard replication factor R (clamped to the fleet size)",
    )

    chaos_serve = sub.add_parser(
        "chaos-serve",
        help="hurt the gateway fleet under a fault plan and audit the "
        "outcome accounting",
    )
    chaos_serve.add_argument(
        "--plan",
        choices=sorted(NAMED_PLANS),
        default="serve-chaos",
        help="named fault plan (see repro.faults.plan.NAMED_PLANS)",
    )
    chaos_serve.add_argument("--seed", type=int, default=DEFAULT_STUDY_SEED)
    chaos_serve.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the serve-fault schedule (independent of the load seed)",
    )
    chaos_serve.add_argument("--gateways", type=int, default=3)
    chaos_serve.add_argument("--replication", type=int, default=2)
    chaos_serve.add_argument("--requests", type=int, default=2000)
    chaos_serve.add_argument(
        "--clients",
        type=int,
        default=1_000_000,
        help="lazy client population size (never materialised)",
    )
    chaos_serve.add_argument(
        "--rate", type=float, default=40.0, help="mean arrivals per virtual minute"
    )
    chaos_serve.add_argument("--cache-size", type=int, default=1024)
    chaos_serve.add_argument("--queue-capacity", type=int, default=32)
    chaos_serve.add_argument(
        "--routing", choices=sorted(ROUTING_POLICIES), default="round-robin"
    )
    chaos_serve.add_argument(
        "--smoke",
        action="store_true",
        help="CI tier: few hundred requests, seconds of wall clock",
    )
    chaos_serve.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="write the accounting ledger as JSON (the CI artifact)",
    )
    chaos_serve.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="write the wide-event log: one `serve` event per request "
        "plus `serve.control` transitions (query with `repro telemetry`)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run the study under a named fault plan and audit recovery",
    )
    chaos.add_argument(
        "--plan",
        choices=sorted(NAMED_PLANS),
        default="chaos",
        help="named fault plan (see repro.faults.plan.NAMED_PLANS)",
    )
    chaos.add_argument("--seed", type=int, default=DEFAULT_STUDY_SEED)
    chaos.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault schedule (independent of the study seed)",
    )
    chaos.add_argument(
        "--scale", choices=["small", "medium", "full"], default="small"
    )
    chaos.add_argument("--days", type=int, default=None, help="override day count")
    chaos.add_argument("--workers", type=int, default=1)
    chaos.add_argument(
        "--checkpoint", default=None, help="round-journal path (resumable)"
    )
    chaos.add_argument("--out", default=None, help="optional dataset output path")
    chaos.add_argument(
        "--smoke",
        action="store_true",
        help="CI tier: tiny corpus, 1 day, seconds of wall clock",
    )
    chaos.add_argument(
        "--kill-workers",
        action="store_true",
        help="also crash/stall worker processes (adds worker-crash and "
        "worker-stall faults to the plan and runs under repro.supervise; "
        "prints the recovery ledger, fails if any result cell is lost "
        "unaccounted)",
    )
    chaos.add_argument(
        "--crash-rate",
        type=float,
        default=0.15,
        help="per-request worker-crash probability with --kill-workers",
    )
    chaos.add_argument(
        "--stall-rate",
        type=float,
        default=0.0,
        help="per-request worker-stall probability with --kill-workers "
        "(each stall costs a wall-clock detection timeout)",
    )
    chaos.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="write the supervision ledger as JSON (with --kill-workers)",
    )

    fsck = sub.add_parser(
        "fsck",
        help="scan a record log (checkpoint, audit store, event log "
        "with or without spans) for torn tails and corruption; "
        "--repair scavenges",
    )
    fsck.add_argument("path", help="record-log path (rotated segments included)")
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="scavenge intact records byte-for-byte into a recovered file "
        "that atomically replaces each damaged segment",
    )
    fsck.add_argument(
        "--json",
        dest="json_out",
        default=None,
        metavar="PATH",
        help="write the fsck report as JSON (`-` for stdout)",
    )

    disk_chaos = sub.add_parser(
        "disk-chaos",
        help="checkpointed crawl under injected disk faults: crash, "
        "fsck --repair, resume, prove byte parity against a clean run",
    )
    disk_chaos.add_argument(
        "--plan",
        choices=sorted(DISK_NAMED_PLANS),
        default="disk-chaos",
        help="named disk-fault plan (see repro.store.faults.DISK_NAMED_PLANS)",
    )
    disk_chaos.add_argument("--seed", type=int, default=DEFAULT_STUDY_SEED)
    disk_chaos.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the disk-fault schedule (independent of the study seed)",
    )
    disk_chaos.add_argument(
        "--scale", choices=["small", "medium", "full"], default="small"
    )
    disk_chaos.add_argument(
        "--days", type=int, default=None, help="override day count"
    )
    disk_chaos.add_argument(
        "--smoke",
        action="store_true",
        help="CI tier: tiny corpus, 1 day, seconds of wall clock",
    )
    disk_chaos.add_argument(
        "--checkpoint",
        default=None,
        help="journal path written under the fault plan "
        "(default: crawl.ckpt in a temp dir)",
    )
    disk_chaos.add_argument(
        "--out",
        default=None,
        help="dataset written by the faulted, resumed run (use a plain "
        ".jsonl path — gzip headers embed timestamps and break `cmp`)",
    )
    disk_chaos.add_argument(
        "--baseline-out",
        default=None,
        help="dataset written by the clean twin run (byte-parity reference)",
    )
    disk_chaos.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the chaos/fsck report JSON",
    )
    disk_chaos.add_argument(
        "--amplify",
        type=float,
        default=1.0,
        help="multiply every plan rate (capped at 0.9) — the smoke tier "
        "writes so few records that production rates draw no faults",
    )
    disk_chaos.add_argument(
        "--max-crashes",
        type=int,
        default=200,
        help="give up if the run has not completed after this many "
        "simulated crashes",
    )

    trace = sub.add_parser(
        "trace",
        help="validate, profile, or export the spans of a traced event log",
    )
    trace.add_argument(
        "path", help="event log written by run --trace or serve-bench --trace"
    )
    trace.add_argument(
        "--check",
        action="store_true",
        help="structural validation; non-zero exit on problems",
    )
    trace.add_argument(
        "--chrome",
        default=None,
        metavar="OUT",
        help="export Chrome trace_event JSON (chrome://tracing, Perfetto)",
    )
    trace.add_argument(
        "--top",
        type=int,
        default=10,
        help="top-N span names in the profile report",
    )
    trace.add_argument(
        "--folded",
        default=None,
        metavar="OUT",
        help="export folded stacks (flamegraph.pl / speedscope import)",
    )
    trace.add_argument(
        "--speedscope",
        default=None,
        metavar="OUT",
        help="export a speedscope.app profile (one row per crawl location)",
    )

    metrics = sub.add_parser(
        "metrics", help="render a metrics snapshot written by run --metrics"
    )
    metrics.add_argument("path", help="metrics snapshot JSON")
    metrics.add_argument(
        "--format",
        choices=["table", "prom"],
        default="table",
        help="table: aligned names; prom: Prometheus text exposition",
    )
    metrics.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the rendered output to a file instead of stdout",
    )

    telemetry = sub.add_parser(
        "telemetry",
        help="query a wide-event log: rollups, burn-rate SLOs, HTML report",
    )
    telemetry.add_argument(
        "path",
        help="wide-event log (run --events/--trace, chaos-serve --events)",
    )
    telemetry.add_argument(
        "--html",
        default=None,
        metavar="OUT",
        help="write the self-contained HTML telemetry report",
    )
    telemetry_sub = telemetry.add_subparsers(dest="telemetry_command")
    tel_query = telemetry_sub.add_parser(
        "query", help="print matching events as JSON lines"
    )
    tel_rollup = telemetry_sub.add_parser(
        "rollup", help="group events by dimensions into deterministic cells"
    )
    tel_rollup.add_argument(
        "--by",
        required=True,
        metavar="DIMS",
        help="comma-separated dimension names, e.g. outcome or rung,cache",
    )
    tel_rollup.add_argument(
        "--value",
        default=None,
        metavar="FIELD",
        help="numeric field to aggregate per cell (sum/mean/max), "
        "e.g. latency",
    )
    tel_slo = telemetry_sub.add_parser(
        "slo", help="evaluate burn-rate SLOs and print the alert ledger"
    )
    tel_slo.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on SLO violations, still-firing alerts, or "
        "brownout accounting mismatches",
    )
    tel_slo.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="write the deterministic alert ledger as JSON",
    )
    for tel in (tel_query, tel_rollup, tel_slo):
        # Accept --html after the subcommand too; SUPPRESS keeps the
        # parent parser's value when the subcommand omits it.
        tel.add_argument(
            "--html",
            default=argparse.SUPPRESS,
            metavar="OUT",
            help=argparse.SUPPRESS,
        )
    for tel in (tel_query, tel_rollup):
        tel.add_argument(
            "--stream",
            default=None,
            help="restrict to one stream (crawl, serve, serve.control, "
            "gateway, audit)",
        )
        tel.add_argument(
            "--where",
            action="append",
            default=[],
            metavar="DIM=VALUE",
            help="dimension equality filter, repeatable "
            "(e.g. --where outcome=shed --where day=1)",
        )
    tel_query.add_argument(
        "--limit", type=int, default=None, help="print at most N events"
    )
    return parser


def _positive_int(text: str) -> int:
    """An argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _config_for_scale(scale: str, seed: int, days: Optional[int]) -> StudyConfig:
    if scale == "small":
        config = StudyConfig.small(seed=seed)
    elif scale == "medium":
        from repro.queries.corpus import build_corpus
        from repro.queries.model import QueryCategory

        corpus = build_corpus()
        queries = (
            corpus.by_category(QueryCategory.LOCAL)
            + corpus.by_category(QueryCategory.CONTROVERSIAL)[:25]
            + corpus.by_category(QueryCategory.POLITICIAN)[:25]
        )
        config = StudyConfig.small(
            queries, seed=seed, days=2, locations_per_granularity=8
        )
    else:
        config = StudyConfig(seed=seed)
    if days is not None:
        config = config.with_overrides(days=days)
    return config


def _chaos_config(args) -> StudyConfig:
    """The study a chaos command crawls: ``--smoke`` is the CI tier (4
    queries, 1 day, 2 locations per granularity), else ``--scale``."""
    if not args.smoke:
        return _config_for_scale(args.scale, args.seed, args.days)
    from repro.queries.corpus import build_corpus

    return StudyConfig.small(
        list(build_corpus())[:4],
        seed=args.seed,
        days=1,
        locations_per_granularity=2,
    )


def _cmd_run(args) -> int:
    config = _config_for_scale(args.scale, args.seed, args.days)
    overrides = {}
    if args.gateway:
        overrides["route_via_gateway"] = True
    if args.plan:
        from repro.faults.plan import FaultPlan

        overrides["fault_plan"] = FaultPlan.named(args.plan, seed=args.fault_seed)
    if overrides:
        config = config.with_overrides(**overrides)
    study = Study(config)
    print(
        f"running {args.scale} study: {len(config.queries)} queries, "
        f"{study.locations.total()} locations, {config.days} days, "
        f"{args.workers} worker(s) ...",
        file=sys.stderr,
    )
    dataset = study.run(
        workers=args.workers,
        checkpoint=args.checkpoint,
        trace=args.trace,
        events=args.events,
        supervise=args.supervise,
    )
    dataset.save(args.out)
    if args.supervise and study.supervisor is not None:
        print(study.supervisor.render(limit=10), file=sys.stderr)
    print(
        f"collected {len(dataset)} pages ({len(study.failures)} failures) -> {args.out}",
        file=sys.stderr,
    )
    if study.stats.failures_by_kind:
        breakdown = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(study.stats.failures_by_kind.items())
        )
        print(f"failures by kind: {breakdown}", file=sys.stderr)
    if study.gateway is not None:
        stats = study.gateway.stats
        print(
            f"gateway: degraded(stale)={stats.degraded_served} "
            f"rejected={stats.rejected} rate-limited={stats.rate_limited}",
            file=sys.stderr,
        )
    if args.trace:
        print(f"trace -> {args.trace}", file=sys.stderr)
    if args.events:
        print(f"events -> {args.events}", file=sys.stderr)
    if args.metrics:
        import json

        snapshot = study.metrics_registry().snapshot()
        with open(args.metrics, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics -> {args.metrics}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    dataset = SerpDataset.load(args.dataset)
    report = StudyReport(dataset)
    sections = []
    wanted = args.figure
    if wanted in ("2", "all"):
        sections.append(report.render_fig2())
    if wanted in ("3", "all"):
        sections.append(report.render_fig3())
    if wanted in ("4", "all"):
        sections.append(report.render_fig4())
    if wanted in ("5", "all"):
        sections.append(report.render_fig5())
    if wanted in ("6", "all"):
        sections.append(report.render_fig6())
    if wanted in ("7", "all"):
        sections.append(report.render_fig7())
    if wanted in ("8", "all"):
        for granularity in report.granularities():
            sections.append(report.render_fig8(granularity))
    print("\n\n".join(sections))
    return 0


def _cmd_validate(args) -> int:
    result = run_gps_validation(args.seed, machine_count=args.machines)
    print(
        f"machines={result.machine_count} queries={result.query_count}\n"
        f"identical pages:   {result.identical_page_fraction:.1%}\n"
        f"result agreement:  {result.result_agreement.mean:.1%} "
        f"(paper: ~94% of results identical)\n"
        f"pairwise Jaccard:  {result.pairwise_jaccard.mean:.3f}"
    )
    return 0


def _cmd_demographics(args) -> int:
    from repro.geo.granularity import all_known_regions

    dataset = SerpDataset.load(args.dataset)
    analysis = DemographicsAnalysis(dataset, all_known_regions(), seed=args.seed)
    print("feature correlations with county-level result similarity:")
    for correlation in analysis.all_feature_correlations():
        flag = " *" if correlation.significant else ""
        print(
            f"  {correlation.feature:28s} r={correlation.pearson_r:+.3f} "
            f"rho={correlation.spearman_rho:+.3f} p={correlation.p_value:.3f}{flag}"
        )
    distance = analysis.distance_correlation()
    print(
        f"  {distance.feature:28s} r={distance.pearson_r:+.3f} "
        f"rho={distance.spearman_rho:+.3f} p={distance.p_value:.3f}"
    )
    return 0


def _cmd_chart(args) -> int:
    dataset = SerpDataset.load(args.dataset)
    report = StudyReport(dataset)
    if args.figure == "2":
        print(report.render_fig2_chart())
    elif args.figure == "5":
        print(report.render_fig5_chart())
    else:
        print(report.render_fig8_chart(args.granularity))
    return 0


def _cmd_crossengine(args) -> int:
    from repro.core.crossengine import compare_engines
    from repro.queries.corpus import build_corpus
    from repro.queries.model import QueryCategory

    corpus = build_corpus()
    local = corpus.by_category(QueryCategory.LOCAL)
    queries = (
        [q for q in local if not q.is_brand][:8]
        + [q for q in local if q.is_brand][:3]
        + corpus.by_category(QueryCategory.CONTROVERSIAL)[:5]
        + corpus.by_category(QueryCategory.POLITICIAN)[:5]
    )
    config = StudyConfig.small(
        queries, seed=args.seed, days=1, locations_per_granularity=6
    )
    print(compare_engines(config).render())
    return 0


def _cmd_carryover(args) -> int:
    from repro.core.carryover import run_carryover_experiment

    print(run_carryover_experiment(args.seed).render())
    return 0


def _cmd_content(args) -> int:
    from repro.core.content import ContentAnalysis

    dataset = SerpDataset.load(args.dataset)
    analysis = ContentAnalysis(dataset)
    print("content analysis")
    for category in dataset.categories():
        locality = analysis.locality_share(category)
        entropy = analysis.source_entropy(category)
        print(
            f"  {category:13s} locality {locality.mean:.3f} ± {locality.std:.3f}   "
            f"source entropy {entropy.mean:.2f} bits"
        )
    print("\nsource mix (local queries):")
    for source_type, share in analysis.source_mix("local").items():
        print(f"  {source_type.value:14s} {share:.1%}")
    try:
        spread = analysis.advocacy_balance_spread("national")
        print(
            f"\nadvocacy-balance spread across national locations: {spread:.3f} "
            "(0 = no geolocal slant)"
        )
    except ValueError:
        print("\nno advocacy results collected (no controversial queries?)")
    return 0


def _cmd_export(args) -> int:
    from repro.core.export import export_all

    dataset = SerpDataset.load(args.dataset)
    written = export_all(StudyReport(dataset), args.out, fmt=args.format)
    for path in written:
        print(path)
    return 0


def _cmd_audit_terms(args) -> int:
    from repro.core.audit import audit_queries

    report = audit_queries(args.terms, seed=args.seed, days=args.days)
    print(report.render())
    return 0


def _audit_service(args):
    """Build the service for ``audit run-once`` / ``audit serve``.

    ``--smoke`` registers the tiny CI audit; otherwise a small-scale
    ``local`` audit (the full default corpus at test-scale geography)
    with an unbounded cycle budget.
    """
    from repro.audit import AuditService, AuditSpec, build_smoke_service

    workers = getattr(args, "workers", 1)
    if args.smoke:
        return build_smoke_service(
            args.store, seed=args.seed, cycles=args.cycles, workers=workers
        )
    service = AuditService(args.store)
    service.register(
        AuditSpec(
            name="local",
            config=StudyConfig.small(seed=args.seed),
            workers=workers,
        )
    )
    return service


def _cmd_audit_run_once(args) -> int:
    service = _audit_service(args)
    try:
        outcomes = service.run_once(cycles=args.cycles)
        for outcome in outcomes:
            print(
                f"{outcome.audit} cycle {outcome.cycle}: "
                f"{outcome.result['pages']} pages, "
                f"{outcome.result['pairs']} pairs, "
                f"{len(outcome.alerts)} alert(s)",
                file=sys.stderr,
            )
        print(service.render_status())
        if args.ledger:
            ledger = b"".join(
                service._scheduler.audits[name].store.alert_ledger_bytes()
                for name in sorted(service._scheduler.audits)
            )
            with open(args.ledger, "wb") as handle:
                handle.write(ledger)
            print(f"alert ledger -> {args.ledger}", file=sys.stderr)
    finally:
        service.close()
    return 0


def _cmd_audit_serve(args) -> int:
    from repro.audit import AuditAPIServer

    service = _audit_service(args)
    try:
        if args.cycles:
            service.run_once(cycles=args.cycles)
        server = AuditAPIServer(service, host=args.host, port=args.port).start()
        try:
            print(f"audit API on {server.url}", file=sys.stderr)
            if args.check:
                import urllib.request

                paths = ["/healthz", "/audits", "/metrics"]
                for name in sorted(service.status()["audits"]):
                    paths += [
                        f"/audits/{name}",
                        f"/audits/{name}/series",
                        f"/audits/{name}/alerts",
                    ]
                for path in paths:
                    with urllib.request.urlopen(server.url + path, timeout=30) as resp:
                        body = resp.read()
                        if resp.status != 200:
                            print(
                                f"GET {path} -> {resp.status}", file=sys.stderr
                            )
                            return 1
                        print(f"GET {path} -> 200 ({len(body)} bytes)")
                return 0
            try:  # pragma: no cover - interactive serve loop
                import threading

                threading.Event().wait()
            except KeyboardInterrupt:
                pass
            return 0
        finally:
            server.close()
    finally:
        service.close()


def _cmd_audit_status(args) -> int:
    import glob
    import os

    from repro.audit.store import AuditStore, AuditStoreError

    paths = sorted(glob.glob(os.path.join(args.store, "*.audit.jsonl")))
    if not paths:
        print(f"no audit stores under {args.store}")
        return 0
    for path in paths:
        try:
            header, cycles = AuditStore.read(path)
        except AuditStoreError as error:
            print(f"{path}: UNREADABLE ({error})", file=sys.stderr)
            continue
        alerts = sum(len(cycle["alerts"]) for cycle in cycles)
        print(
            f"{header['audit']}: {len(cycles)} cycle(s), "
            f"{alerts} alert(s) -> {path}"
        )
    return 0


_AUDIT_HANDLERS = {
    "terms": _cmd_audit_terms,
    "run-once": _cmd_audit_run_once,
    "serve": _cmd_audit_serve,
    "status": _cmd_audit_status,
}


def _cmd_audit(args) -> int:
    return _AUDIT_HANDLERS[args.audit_command](args)


def _cmd_diff(args) -> int:
    from repro.core.diff import diff_datasets

    diff = diff_datasets(SerpDataset.load(args.a), SerpDataset.load(args.b))
    print(diff.render())
    return 0


def _cmd_reportcard(args) -> int:
    from repro.core.reportcard import generate_markdown

    dataset = SerpDataset.load(args.dataset)
    text = generate_markdown(dataset, title=args.title)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_serve_bench(args) -> int:
    from repro.serve.bench import run_serve_bench

    sizes = sorted({1, args.gateways})
    tracer = log = None
    if args.trace:
        from repro.obs.events import EventLog
        from repro.obs.trace import Tracer, trace_id_for

        bench_meta = {
            "bench": "serve",
            "seed": args.seed,
            "requests": args.requests,
            "clients": args.clients,
            "routing": args.routing,
            "cache_size": args.cache_size,
            "gateways": sizes,
        }
        trace_id = trace_id_for(bench_meta)
        tracer = Tracer()
        tracer.enable(trace_id)
        log = EventLog(args.trace, log_id=trace_id, meta=bench_meta)
    print(
        f"serve-bench: sizes={sizes} R={args.replication}, "
        f"{args.requests} requests over {args.clients} lazy clients",
        file=sys.stderr,
    )
    report = run_serve_bench(
        fleet_sizes=sizes,
        replication=args.replication,
        requests=args.requests,
        clients=args.clients,
        rate_per_minute=args.rate,
        routing=args.routing,
        cache_size=args.cache_size,
        queue_capacity=args.queue_capacity,
        hedge_after_minutes=args.hedge_after,
        pin_frontend=args.pin_frontend,
        seed=args.seed,
        tracer=tracer,
    )
    print(report.render())
    if log is not None:
        for tree in tracer.drain():
            log.emit_span(tree)
        log.close()
        tracer.disable()
        print(f"trace -> {args.trace}", file=sys.stderr)
    return 0


def _cmd_chaos_serve(args) -> int:
    from repro.engine.datacenters import DatacenterCluster
    from repro.faults.plan import FaultPlan
    from repro.queries.corpus import build_corpus
    from repro.seeding import derive_seed
    from repro.serve import (
        LazyClientPopulation,
        LoadGenerator,
        ServeChaos,
        build_fleet,
    )
    from repro.web.world import WebWorld

    requests = min(args.requests, 400) if args.smoke else args.requests
    gateways = min(args.gateways, 3) if args.smoke else args.gateways
    plan = FaultPlan.named(args.plan, seed=args.fault_seed)
    if not plan.has_serve_faults:
        print(
            f"plan {args.plan!r} has no serve-side faults; the run will "
            "exercise the happy path only",
            file=sys.stderr,
        )
    corpus = build_corpus()
    world = WebWorld(derive_seed(args.seed, "world"))
    cluster = DatacenterCluster()
    population = LazyClientPopulation(args.seed, args.clients, cluster)
    fleet = build_fleet(
        world,
        cluster,
        population.geoip_view(),
        count=gateways,
        corpus=corpus,
        seed=derive_seed(args.seed, "engine"),
        queue_capacity=args.queue_capacity,
        cache_size=args.cache_size,
        policy=args.routing,
        replication=args.replication,
        plan=plan,
    )
    loadgen = LoadGenerator(
        list(corpus), population, args.seed, rate_per_minute=args.rate
    )
    print(
        f"chaos-serve: plan={args.plan} (fault seed {args.fault_seed}, "
        f"~{plan.serve_fault_rate:.1%} of requests fault a shard), "
        f"{gateways} gateways R={args.replication}, {requests} requests "
        f"over {args.clients} lazy clients ...",
        file=sys.stderr,
    )
    stats = ServeChaos(fleet, loadgen).run(requests, events=args.events)
    print(stats.render())
    if args.events:
        print(f"events -> {args.events}", file=sys.stderr)
    if args.ledger:
        import json

        ledger = stats.capture_state()
        ledger["unaccounted"] = stats.unaccounted()
        with open(args.ledger, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"ledger -> {args.ledger}", file=sys.stderr)
    if stats.unaccounted() != 0:
        print(
            f"ACCOUNTING VIOLATION: {stats.unaccounted()} of "
            f"{stats.requests} requests unaccounted for",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_chaos(args) -> int:
    from repro.core.comparisons import per_location_coverage
    from repro.faults.plan import FaultPlan

    plan = FaultPlan.named(args.plan, seed=args.fault_seed)
    if args.kill_workers:
        import dataclasses

        plan = dataclasses.replace(
            plan,
            worker_crash_rate=args.crash_rate,
            worker_stall_rate=args.stall_rate,
        )
    config = _chaos_config(args).with_overrides(fault_plan=plan)
    study = Study(config)
    print(
        f"chaos run: plan={args.plan} (fault seed {args.fault_seed}, "
        f"~{plan.request_fault_rate:.1%} of requests faulted), "
        f"{len(config.queries)} queries, {study.locations.total()} locations, "
        f"{config.days} day(s), {args.workers} worker(s) ...",
        file=sys.stderr,
    )
    if args.kill_workers:
        from repro.supervise import SupervisorPolicy

        # Tight stall policy: chaos runs are short, so missed-deadline
        # detection must not sit behind the production 120 s watchdog.
        policy = SupervisorPolicy(
            stall_timeout_seconds=20.0,
            stall_grace_seconds=1.0,
            stall_rounds=1,
        )
        from repro.parallel import run_parallel

        dataset = run_parallel(
            study,
            workers=args.workers,
            checkpoint=args.checkpoint,
            supervise=True,
            policy=policy,
        )
    else:
        dataset = study.run(workers=args.workers, checkpoint=args.checkpoint)
    if args.out:
        dataset.save(args.out)
        print(f"dataset -> {args.out}", file=sys.stderr)

    stats, fault_stats = study.stats, study.fault_stats
    print(f"collected {len(dataset)} pages, {len(study.failures)} queries lost")
    print(
        f"requests={stats.requests} retries={stats.retries} "
        f"crashes={stats.crashes} (restarts absorbed) "
        f"breaker-fastfails={stats.breaker_fastfails}"
    )
    print("\nfault ledger (injected = recovered + lost):")
    kinds = sorted(
        set(fault_stats.injected) | set(fault_stats.absorbed) | set(fault_stats.terminal)
    )
    for kind in kinds:
        print(
            f"  {kind:18s} injected={fault_stats.injected.get(kind, 0):<6d} "
            f"recovered={fault_stats.absorbed.get(kind, 0):<6d} "
            f"lost={fault_stats.terminal.get(kind, 0):<6d}"
        )
    unaccounted = fault_stats.unaccounted()

    from repro.obs.metrics import Histogram

    print("\nretry histogram (attempts per delivered query):")
    print(
        Histogram.from_counts(fault_stats.retry_histogram).render(
            indent="  ", unit="attempt(s)"
        )
    )

    transitions = study.breakers.transitions() if study.breakers else []
    print(f"\nbreaker transitions: {len(transitions)}")
    for transition in transitions[-10:]:
        print(
            f"  t={transition.minutes:9.2f}  {transition.key:18s} "
            f"{transition.old.value} -> {transition.new.value}"
        )

    coverage = per_location_coverage(dataset, study.failures)
    incomplete = sorted(
        (slot for slot in coverage.values() if slot.lost),
        key=lambda slot: slot.coverage,
    )
    print(f"\nlocation coverage: {len(coverage) - len(incomplete)}/{len(coverage)} complete")
    for slot in incomplete[:10]:
        worst = max(slot.lost_by_kind, key=slot.lost_by_kind.get)
        print(
            f"  {slot.location_name:28s} {slot.coverage:7.1%} "
            f"({slot.lost} lost, mostly {worst})"
        )

    status = 0
    if unaccounted:
        print(f"\nACCOUNTING FAILURE: unaccounted faults {unaccounted}", file=sys.stderr)
        status = 1
    else:
        print("\nall injected faults accounted for")

    if args.kill_workers:
        report = study.supervisor
        print()
        print(report.render(limit=15))
        expected = study.round_count() * len(study.treatments)
        got = len(dataset) + len(study.failures)
        if got != expected:
            print(
                f"\nACCOUNTING FAILURE: {got} result cells "
                f"(collected + failed) != {expected} scheduled",
                file=sys.stderr,
            )
            status = 1
        else:
            print(
                f"every scheduled cell accounted for: {len(dataset)} collected "
                f"+ {len(study.failures)} failed = {expected}"
            )
        if args.ledger:
            import json

            ledger = {
                "plan": args.plan,
                "workers": args.workers,
                "expected_cells": expected,
                "collected": len(dataset),
                "failed": len(study.failures),
                "accounted": got == expected,
                "supervision": report.to_dict(),
            }
            with open(args.ledger, "w", encoding="utf-8") as handle:
                json.dump(ledger, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"ledger -> {args.ledger}", file=sys.stderr)
    return status


def _cmd_fsck(args) -> int:
    import json

    from repro.store import fsck_path

    report = fsck_path(args.path, repair=args.repair)
    if not report.segments:
        print(f"{args.path}: no such file", file=sys.stderr)
        return 2
    for segment in report.segments:
        if segment.corrupt:
            verdict = "repaired" if segment.repaired else "CORRUPT"
        elif segment.torn is not None:
            verdict = "repaired (torn tail)" if segment.repaired else "torn tail"
        else:
            verdict = "clean"
        legacy = (
            f", {segment.legacy_records} legacy" if segment.legacy_records else ""
        )
        print(
            f"{segment.segment}: {verdict} — {segment.records} record(s), "
            f"{segment.size} byte(s){legacy}"
        )
        for region in segment.corrupt:
            print(
                f"  corrupt after record {region['record_index']} at byte "
                f"{region['offset']} ({region['bytes']} byte(s)): "
                f"{region['reason']}"
            )
        if segment.torn is not None:
            print(
                f"  truncated: true — durable prefix ends at byte "
                f"{segment.durable_end}"
            )
        if segment.repaired:
            print(
                f"  scavenged {segment.scavenged_records} record(s), dropped "
                f"{segment.dropped_bytes} byte(s)"
            )
    if report.exit_code:
        print(
            f"{report.path}: {report.corrupt_records} corrupt record(s) left "
            "in place (run with --repair to scavenge)",
            file=sys.stderr,
        )
    elif report.repaired:
        print(f"{report.path}: repaired; log is clean")
    else:
        print(f"{report.path}: ok ({report.records} record(s))")
    if args.json_out:
        payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.json_out == "-":
            print(payload)
        else:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"report -> {args.json_out}", file=sys.stderr)
    return report.exit_code


def _cmd_disk_chaos(args) -> int:
    import json
    import os
    import tempfile

    from repro.faults.checkpoint import CheckpointError
    from repro.store import (
        REAL_OPS,
        STORE_STATS,
        DiskFault,
        DiskFaultPlan,
        FaultyFileOps,
        StoreCorruption,
        fsck_path,
        use_fileops,
    )

    plan = DiskFaultPlan.named(args.plan, seed=args.fault_seed)
    if args.amplify != 1.0:
        import dataclasses

        plan = dataclasses.replace(
            plan,
            **{
                spec.name: min(getattr(plan, spec.name) * args.amplify, 0.9)
                for spec in dataclasses.fields(plan)
                if spec.name.endswith("_rate")
            },
        )
    config = _chaos_config(args)

    workdir = None
    if not (args.checkpoint and args.out and args.baseline_out):
        workdir = tempfile.mkdtemp(prefix="repro-disk-chaos-")
    checkpoint = args.checkpoint or os.path.join(workdir, "crawl.ckpt")
    out = args.out or os.path.join(workdir, "faulted.jsonl")
    baseline_out = args.baseline_out or os.path.join(workdir, "baseline.jsonl")

    print(
        f"disk-chaos: plan={args.plan} (fault seed {args.fault_seed}), "
        f"{len(config.queries)} queries, {config.days} day(s), "
        f"checkpoint={checkpoint}",
        file=sys.stderr,
    )

    # The parity reference: the same study on a healthy disk.
    baseline = Study(config).run()
    baseline.save(baseline_out)

    STORE_STATS.reset()
    ops = FaultyFileOps(plan)
    crash_log = []
    dataset = None
    while dataset is None:
        study = Study(config)
        try:
            with use_fileops(ops):
                dataset = study.run(checkpoint=checkpoint)
        except DiskFault as fault:
            ops.simulate_crash()
            entry = {
                "crash": ops.stats.crashes,
                "fault": fault.kind.value,
                "file": os.path.basename(fault.path),
            }
            detail = ""
            # Recovery always runs on a healthy disk: real file ops,
            # outside the fault seam.
            if os.path.exists(checkpoint):
                repair = fsck_path(checkpoint, repair=True, ops=REAL_OPS)
                entry["fsck"] = {
                    "repaired": repair.repaired,
                    "corrupt_records": repair.corrupt_records,
                    "torn_segments": repair.torn_segments,
                }
                if repair.repaired:
                    detail = (
                        f"; fsck scavenged {repair.corrupt_records} corrupt, "
                        f"{repair.torn_segments} torn segment(s)"
                    )
            crash_log.append(entry)
            print(
                f"  crash {ops.stats.crashes}: {fault.kind.value}{detail}",
                file=sys.stderr,
            )
        except (CheckpointError, StoreCorruption) as error:
            # A crash can leave a journal with no durable header (or a
            # scavenge can drop it): start the journal over.
            crash_log.append({"crash": ops.stats.crashes, "reset": str(error)})
            print(f"  journal unusable ({error}); starting fresh", file=sys.stderr)
            if os.path.exists(checkpoint):
                os.remove(checkpoint)
        if dataset is None and ops.stats.crashes >= args.max_crashes:
            print(
                f"gave up after {ops.stats.crashes} simulated crashes",
                file=sys.stderr,
            )
            return 1

    # Final verdict: repair anything a silent fault left behind, then
    # the log must scan clean.
    fsck_path(checkpoint, repair=True, ops=REAL_OPS)
    final = fsck_path(checkpoint, ops=REAL_OPS)
    dataset.save(out)
    with open(out, "rb") as handle:
        faulted_bytes = handle.read()
    with open(baseline_out, "rb") as handle:
        baseline_bytes = handle.read()
    parity = faulted_bytes == baseline_bytes

    injected = ", ".join(
        f"{kind}={count}" for kind, count in sorted(ops.stats.injected.items())
    )
    print(
        f"\nsurvived {ops.stats.crashes} crash(es); "
        f"injected: {injected or 'none'}"
    )
    print(
        f"recovery: {STORE_STATS.torn_tails_recovered} torn tail(s) scavenged, "
        f"{STORE_STATS.corrupt_records_detected} corrupt record(s) detected, "
        f"{STORE_STATS.repairs} repair(s)"
    )
    status = 0
    if final.exit_code != 0:
        print(
            "FSCK FAILURE: corruption remains after repair", file=sys.stderr
        )
        status = 1
    else:
        print("fsck: clean after repair (exit 0)")
    if not parity:
        print(
            "PARITY FAILURE: faulted run's dataset differs from the clean run",
            file=sys.stderr,
        )
        status = 1
    else:
        print(
            f"byte parity: faulted dataset == clean dataset "
            f"({len(dataset)} records)"
        )
    if args.report:
        payload = {
            "plan": args.plan,
            "fault_seed": args.fault_seed,
            "seed": args.seed,
            "checkpoint": checkpoint,
            "records": len(dataset),
            "crashes": ops.stats.crashes,
            "injected": dict(sorted(ops.stats.injected.items())),
            "crash_log": crash_log,
            "store_stats": STORE_STATS.as_dict(),
            "final_fsck": final.to_dict(),
            "parity": parity,
            "status": status,
        }
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report -> {args.report}", file=sys.stderr)
    return status


def _cmd_schedule(args) -> int:
    from repro.core.schedule import simulate_crawl_schedule

    config = StudyConfig().with_overrides(machine_count=args.machines)
    print(
        simulate_crawl_schedule(
            config, request_duration_seconds=args.request_seconds
        ).render()
    )
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.exporters import (
        read_trace,
        validate_trace,
        write_chrome_trace,
        write_speedscope,
    )
    from repro.obs.profile import profile_trace, write_folded

    acted = False
    if args.check:
        problems = validate_trace(args.path)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            return 1
        header, spans, _ = read_trace(args.path)
        rounds = sum(span["name"] == "round" for span in spans)
        print(
            f"{args.path}: ok (trace {header['log_id']}, "
            f"{rounds} round(s), {len(spans)} spans)"
        )
        acted = True
    if args.chrome:
        write_chrome_trace(args.path, args.chrome)
        print(f"chrome trace -> {args.chrome}", file=sys.stderr)
        acted = True
    if args.folded:
        write_folded(args.path, args.folded)
        print(f"folded stacks -> {args.folded}", file=sys.stderr)
        acted = True
    if args.speedscope:
        write_speedscope(args.path, args.speedscope)
        print(f"speedscope profile -> {args.speedscope}", file=sys.stderr)
        acted = True
    if not acted:
        print(profile_trace(args.path).render(top=args.top))
    return 0


def _cmd_metrics(args) -> int:
    import json

    from repro.obs.metrics import render_prometheus, render_table

    with open(args.path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    if args.format == "prom":
        rendered = render_prometheus(snapshot)
    else:
        rendered = render_table(snapshot)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"metrics -> {args.out}", file=sys.stderr)
    else:
        print(rendered)
    return 0


def _parse_where(pairs) -> dict:
    where = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--where expects DIM=VALUE, got {pair!r}")
        dim, _, value = pair.partition("=")
        where[dim] = value
    return where


def _cmd_telemetry(args) -> int:
    import json

    from repro.obs.events import read_events, validate_events
    from repro.obs.slo import evaluate_slos
    from repro.obs.telemetry import (
        filter_events,
        format_kv_rows,
        rollup,
        write_html_report,
    )

    header, events, _ = read_events(args.path)
    exit_code = 0
    sub = args.telemetry_command
    if sub == "query":
        selected = filter_events(
            events, stream=args.stream, where=_parse_where(args.where)
        )
        if args.limit is not None:
            selected = selected[: args.limit]
        for event in selected:
            print(json.dumps(event, sort_keys=True, separators=(",", ":")))
    elif sub == "rollup":
        selected = filter_events(
            events, stream=args.stream, where=_parse_where(args.where)
        )
        by = [dim.strip() for dim in args.by.split(",") if dim.strip()]
        print(rollup(selected, by, value=args.value).render())
    elif sub == "slo":
        report = evaluate_slos(events)
        rows = []
        for result in report.results:
            state = "met" if result.met else "VIOLATED"
            if result.firing:
                state += ", alert firing"
            rows.append(
                (
                    result.slo.name,
                    f"{result.good_fraction:.4f} good "
                    f"(objective {result.slo.objective:g}, "
                    f"{result.bad}/{result.total} bad) [{state}]",
                )
            )
        rows.append(("ledger entries", len(report.ledger)))
        rows.append(
            (
                "brownout replay",
                "exact"
                if not report.brownout_mismatches
                else f"{len(report.brownout_mismatches)} mismatch(es)",
            )
        )
        width = max(len(label) for label, _ in rows) + 2
        print(
            "\n".join(
                [f"slo report: {args.path}"]
                + [f"  {label:<{width}}{value}" for label, value in rows]
            )
        )
        if args.ledger:
            with open(args.ledger, "w", encoding="utf-8") as handle:
                json.dump(report.ledger, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"alert ledger -> {args.ledger}", file=sys.stderr)
        if args.check:
            for problem in report.violations:
                print(f"VIOLATION: {problem}", file=sys.stderr)
            exit_code = 1 if report.violations else 0
    else:
        problems = validate_events(args.path)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            return 1
        streams = {}
        for event in events:
            stream = event.get("stream", "?")
            streams[stream] = streams.get(stream, 0) + 1
        rows = [("log id", header.get("log_id"))]
        rows.extend(
            (f"stream {name}", count) for name, count in sorted(streams.items())
        )
        print(
            "\n".join(
                [f"{args.path}: ok ({len(events)} events)"]
                + format_kv_rows(rows)
            )
        )
    if args.html:
        write_html_report(args.path, args.html)
        print(f"html report -> {args.html}", file=sys.stderr)
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Back-compat: `repro-study audit <term>...` predates the audit
    # service subcommands and still means `audit terms <term>...`.
    if (
        len(argv) >= 2
        and argv[0] == "audit"
        and argv[1] not in _AUDIT_HANDLERS
        and argv[1] not in ("-h", "--help")
    ):
        argv.insert(1, "terms")
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "report": _cmd_report,
        "validate": _cmd_validate,
        "demographics": _cmd_demographics,
        "chart": _cmd_chart,
        "crossengine": _cmd_crossengine,
        "carryover": _cmd_carryover,
        "content": _cmd_content,
        "export": _cmd_export,
        "audit": _cmd_audit,
        "diff": _cmd_diff,
        "reportcard": _cmd_reportcard,
        "schedule": _cmd_schedule,
        "serve-bench": _cmd_serve_bench,
        "chaos-serve": _cmd_chaos_serve,
        "chaos": _cmd_chaos,
        "fsck": _cmd_fsck,
        "disk-chaos": _cmd_disk_chaos,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "telemetry": _cmd_telemetry,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
