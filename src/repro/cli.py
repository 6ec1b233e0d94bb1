"""Command-line interface: ``repro-lb``.

Subcommands::

    repro-lb list                         # available scenarios
    repro-lb run table1/current_load      # run one scenario
    repro-lb run --topology spec.json     # run a declarative topology
    repro-lb topology validate spec.json  # check a topology spec
    repro-lb topology show replicated_db  # render a topology spec
    repro-lb table1 [--workers 4]         # the full Table I comparison
    repro-lb replicate table1/current_load --runs 8 --workers 4
    repro-lb statan src/repro             # simulation lint (see DESIGN.md)
    repro-lb chaos --faults crash,slow --remedies none,full
    repro-lb controlplane --remedy admission+leveling --millibottleneck
    repro-lb trace run/original_total_request --slowest 3
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import (
    chaos_table,
    geo_table,
    rematch_table,
    table1,
    table1_with_paper,
)
from repro.cluster.runner import ExperimentRunner, compare_policies
from repro.cluster.scenarios import Scenario
from repro.core.remedies import TABLE1_BUNDLES


def _cmd_list(_args: argparse.Namespace) -> int:
    for key in Scenario.keys():
        print(key)
    return 0


def _load_topology(ref: str):
    import os

    from repro.cluster.spec import BUILTIN_TOPOLOGIES, TopologySpec, get_topology
    from repro.errors import ConfigurationError

    if ref in BUILTIN_TOPOLOGIES:
        return get_topology(ref)
    if os.path.exists(ref):
        return TopologySpec.load(ref)
    raise ConfigurationError(
        "no topology spec file {!r} (and not a builtin: {})".format(
            ref, ", ".join(sorted(BUILTIN_TOPOLOGIES))))


def _cmd_run(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.errors import ConfigurationError

    if args.topology is not None:
        if args.scenario is not None:
            raise ConfigurationError(
                "give either a scenario key or --topology, not both")
        from repro.cluster.runner import ExperimentConfig

        spec = _load_topology(args.topology)
        config = ExperimentConfig(
            topology=spec,
            duration=args.duration if args.duration is not None else 10.0)
    else:
        if args.scenario is None:
            raise ConfigurationError(
                "give a scenario key (see 'list') or --topology SPEC")
        config = Scenario.named(args.scenario)
        if args.duration is not None:
            config = replace(config, duration=args.duration)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    result = ExperimentRunner(config).run()
    print(result.metrics.summary())
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    for ref in args.specs:
        spec = _load_topology(ref)
        if args.action == "show":
            print(spec.describe())
        else:
            print("OK {} ({} tiers, {} boundaries)".format(
                spec.name, len(spec.tiers), len(spec.boundaries)))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    if args.policies is not None:
        from repro.cluster.config import ScaleProfile
        from repro.cluster.scenarios import PolicyRematch

        extra = _split(args.policies) or []
        suite = PolicyRematch(
            bundle_keys=[b.key for b in TABLE1_BUNDLES] + extra,
            fault_keys=_split(args.faults),
            duration=(args.duration if args.duration is not None
                      else 12.0),
            seed=args.seed,
            profile=(ScaleProfile() if args.full_scale
                     else ScaleProfile.smoke()),
        )
        print(rematch_table(suite.run(workers=args.workers)))
        return 0
    results = compare_policies(
        [bundle.key for bundle in TABLE1_BUNDLES],
        duration=args.duration if args.duration is not None else 20.0,
        seed=args.seed, workers=args.workers)
    print(table1(results))
    print()
    print(table1_with_paper(results))
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.parallel import replicate

    config = Scenario.named(args.scenario)
    if args.duration is not None:
        config = replace(config, duration=args.duration)
    seeds = range(args.base_seed, args.base_seed + args.runs)
    rep = replicate(config, seeds=seeds, workers=args.workers)
    for run in rep.runs:
        print("seed {:>4d}  {}".format(run.config.seed, run.summary()))
    aggregate = rep.aggregate()
    print("across {} seeds: avg RT {:.2f} +/- {:.2f} ms, "
          "VLRT {:.2f} +/- {:.2f} %".format(
              int(aggregate["runs"]),
              aggregate["avg_rt_ms_mean"], aggregate["avg_rt_ms_std"],
              aggregate["vlrt_pct_mean"], aggregate["vlrt_pct_std"]))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.analysis.export import export_result

    config = replace(Scenario.named(args.scenario), sample_dirty_pages=True)
    if args.duration is not None:
        config = replace(config, duration=args.duration)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    result = ExperimentRunner(config).run()
    out = export_result(result, args.out)
    print(result.metrics.summary())
    print("exported CSV/JSON to {}".format(out))
    return 0


def _split(value: str | None) -> list[str] | None:
    if value is None:
        return None
    return [item.strip() for item in value.split(",") if item.strip()]


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.cluster.config import ScaleProfile
    from repro.cluster.scenarios import ChaosSuite
    from repro.errors import ConfigurationError

    if args.full_scale and args.topology:
        raise ConfigurationError("--full-scale sizes the classic shape; "
                                 "a topology runs its declared workload")
    suite = ChaosSuite(
        fault_keys=_split(args.faults),
        remedy_keys=_split(args.remedies),
        bundle_keys=_split(args.bundles),
        duration=args.duration,
        seed=args.seed,
        profile=ScaleProfile() if args.full_scale else None,
        topology=(_load_topology(args.topology)
                  if args.topology else None),
    )
    print(chaos_table(suite.run(workers=args.workers)))
    return 0


def _cmd_geo(args: argparse.Namespace) -> int:
    from repro.cluster.geo import GeoSuite

    suite = GeoSuite(
        fault_keys=_split(args.faults) if args.faults else None,
        duration=args.duration,
        seed=args.seed,
        clients=args.clients,
    )
    print(geo_table(suite.run()))
    return 0


def _cmd_controlplane(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.cluster.config import ScaleProfile
    from repro.cluster.runner import ExperimentConfig
    from repro.cluster.scenarios import fault_specs
    from repro.controlplane import get_controlplane
    from repro.errors import ConfigurationError

    if args.events < 0:
        raise ConfigurationError(
            "--events must be >= 0, got {}".format(args.events))
    remedy = get_controlplane(args.remedy)
    profile = ScaleProfile() if args.full_scale else ScaleProfile.smoke()
    if args.millibottleneck:
        profile = replace(profile, tomcat_disk_bandwidth=4e6)
    config = ExperimentConfig(
        bundle_key=args.bundle,
        profile=profile,
        duration=args.duration,
        seed=args.seed,
        trace_balancers=False,
        faults=fault_specs(args.fault, args.duration),
    )
    baseline = ExperimentRunner(config).run()
    remedied = ExperimentRunner(
        replace(config, controlplane=remedy)).run()

    def _line(tag, run):
        ttr = run.ttr
        print("{:<9s} vlrt {:6.3f}%  drops {:5d}  sheds {:5d}  "
              "goodput {:7.1f}/s  avail {:6.2f}%  ttr {}".format(
                  tag, 100 * run.response_stats.vlrt_fraction,
                  run.drops, run.sheds,
                  run.goodput(), 100 * run.availability(),
                  "-" if ttr is None else
                  ("never" if ttr == float("inf")
                   else "{:.2f}s".format(ttr))))

    print("fault={} remedy={} bundle={} duration={}s seed={}".format(
        args.fault, args.remedy, args.bundle, args.duration, args.seed))
    _line("baseline", baseline.metrics)
    _line("remedied", remedied.metrics)

    system = remedied.system
    for admission in system.admissions:
        print("\n{}: admitted={} queued={} shed={}".format(
            admission.name, admission.admitted, admission.queued,
            admission.shed))
        sheds = [r for r in admission.records if r.outcome == "shed"]
        if sheds:
            print("  first sheds at: " + ", ".join(
                "t={:.3f}".format(r.at) for r in sheds[:args.events]))
    for leveler in system.levelers:
        print("\n{}: offered={} accepted={} rejected={} evicted={} "
              "drained={} peak={}".format(
                  leveler.name, leveler.offered, leveler.accepted,
                  leveler.rejected, leveler.evicted, leveler.drained,
                  leveler.peak_length))
    for bulkhead in system.bulkheads:
        print("\n{}: read admitted={} shed={}; write admitted={} "
              "shed={}".format(
                  bulkhead.name,
                  bulkhead.admitted["read"], bulkhead.shed["read"],
                  bulkhead.admitted["write"], bulkhead.shed["write"]))
    for autoscaler in system.autoscalers:
        print("\n{}: replicas={} scale_ups={} scale_downs={} "
              "samples={}".format(
                  autoscaler.name, autoscaler.replicas,
                  autoscaler.scale_ups, autoscaler.scale_downs,
                  len(autoscaler.samples)))
        for event in autoscaler.events[:args.events]:
            print("  t={:7.3f} {:<12s} {:<10s} metric={:6.2f} "
                  "replicas={}".format(
                      event.at, event.action, event.replica,
                      event.metric, event.replicas))
    return 0


def _cmd_statan(args: argparse.Namespace) -> int:
    from repro.statan import (
        StatanError,
        Severity,
        check_paths,
        render_json,
        render_sarif,
        render_text,
        write_baseline,
    )
    from repro.statan.sarif import load_baseline

    try:
        baseline = None
        if args.baseline is not None:
            try:
                baseline = load_baseline(args.baseline)
            except (OSError, ValueError) as exc:
                raise StatanError(
                    "cannot load baseline: {}".format(exc)) from exc
        result = check_paths(
            args.paths,
            select=args.select.split(",") if args.select else None,
            ignore=args.ignore.split(",") if args.ignore else None,
            min_severity=Severity.from_label(args.min_severity),
            program_rules=None if args.no_program else "default",
            baseline=baseline,
        )
        if args.write_baseline is not None:
            write_baseline(args.write_baseline, result.findings)
            print("statan: wrote {} finding(s) to {}".format(
                len(result.findings), args.write_baseline),
                file=sys.stderr)
    except StatanError as exc:
        print("statan: error: {}".format(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure must not masquerade
        print("statan: internal error: {!r}".format(exc), file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result.findings))
    else:
        print(render_text(result))
    return 1 if result.findings else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    from dataclasses import replace

    from repro.tracing import trace_report, write_chrome_trace

    config = Scenario.named(args.scenario)
    if args.duration is not None:
        config = replace(config, duration=args.duration)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    config = replace(config, trace_requests=True)
    result = ExperimentRunner(config).run()
    print(result.metrics.summary())
    explanation = result.explain_vlrt()
    print()
    print(explanation.render())
    if args.chrome is not None:
        path = write_chrome_trace(result.traces(), args.chrome)
        print("chrome trace written to {}".format(path))
    if args.json:
        print(json.dumps(explanation.to_dict(), indent=2))
    slowest = result.slowest_traces(args.slowest)
    for trace in slowest:
        print()
        print(trace_report(trace))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lb",
        description="Reproduce the ICDCS 2017 millibottleneck "
                    "load-balancing study.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list scenario keys").set_defaults(
        func=_cmd_list)

    run = sub.add_parser("run", help="run one scenario or topology")
    run.add_argument("scenario", nargs="?", default=None,
                     help="scenario key (see 'list')")
    run.add_argument("--topology", default=None, metavar="SPEC",
                     help="run a declarative topology instead: a spec "
                          "JSON path or a builtin name "
                          "(classic, replicated_db, four_tier)")
    run.add_argument("--duration", type=float, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.set_defaults(func=_cmd_run)

    topo = sub.add_parser(
        "topology",
        help="validate or render declarative topology specs",
        description="Load each spec (JSON path or builtin name), run "
                    "its validation, and either confirm it (validate) "
                    "or render its tier/boundary chain (show).")
    topo.add_argument("action", choices=("validate", "show"))
    topo.add_argument("specs", nargs="+", metavar="SPEC",
                      help="spec JSON paths or builtin names")
    topo.set_defaults(func=_cmd_topology)

    t1 = sub.add_parser(
        "table1",
        help="run the Table I comparison (or its modern-policy rematch)",
        description="Without --policies: the paper's six-bundle Table I "
                    "comparison.  With --policies: the rematch report — "
                    "Table-I bundles plus the named modern bundles, "
                    "crossed with a chaos fault axis, with probe-"
                    "overhead and goodput columns.")
    t1.add_argument("--duration", type=float, default=None,
                    help="run length per cell (default: 20s for the "
                         "classic table, 12s for the rematch)")
    t1.add_argument("--seed", type=int, default=42)
    t1.add_argument("--workers", type=int, default=1,
                    help="process-pool size; 1 runs serially (default)")
    t1.add_argument("--policies", default=None, metavar="KEYS",
                    help="comma-separated modern bundles to rematch "
                         "against the Table-I rows (e.g. "
                         "prequal,jsq_d,jiq,weighted_least_conn,sticky)")
    t1.add_argument("--faults", default=None, metavar="KEYS",
                    help="rematch fault axis (default: "
                         "none,slow,packet_loss; only with --policies)")
    t1.add_argument("--full-scale", action="store_true",
                    help="rematch at the paper-scale profile instead of "
                         "the fast smoke profile (only with --policies)")
    t1.set_defaults(func=_cmd_table1)

    rep = sub.add_parser(
        "replicate", help="run one scenario across several seeds")
    rep.add_argument("scenario", help="scenario key (see 'list')")
    rep.add_argument("--runs", type=int, default=5,
                     help="number of seeds (default 5)")
    rep.add_argument("--base-seed", type=int, default=42,
                     help="first seed; runs use base..base+runs-1")
    rep.add_argument("--duration", type=float, default=None)
    rep.add_argument("--workers", type=int, default=1,
                     help="process-pool size; 1 runs serially (default)")
    rep.set_defaults(func=_cmd_replicate)

    export = sub.add_parser(
        "export", help="run a scenario and dump its series as CSV/JSON")
    export.add_argument("scenario", help="scenario key (see 'list')")
    export.add_argument("--out", required=True,
                        help="output directory for the CSV/JSON files")
    export.add_argument("--duration", type=float, default=None)
    export.add_argument("--seed", type=int, default=None)
    export.set_defaults(func=_cmd_export)

    chaos = sub.add_parser(
        "chaos",
        help="run the fault x remedy x policy chaos grid",
        description="Cross the fault zoo with the resilience bundles "
                    "and the Table-I policy bundles; report "
                    "availability, %VLRT, retry amplification and "
                    "goodput per cell.")
    chaos.add_argument("--faults", default="crash,slow,packet_loss",
                       metavar="KEYS",
                       help="comma-separated fault scenarios "
                            "(default: crash,slow,packet_loss)")
    chaos.add_argument("--remedies", default="none,full", metavar="KEYS",
                       help="comma-separated remedy bundles, resilience "
                            "or control-plane (e.g. none,full,"
                            "admission+leveling; default: none,full)")
    chaos.add_argument("--bundles",
                       default="original_total_request,"
                               "current_load_modified",
                       metavar="KEYS",
                       help="comma-separated policy bundles")
    chaos.add_argument("--duration", type=float, default=12.0)
    chaos.add_argument("--seed", type=int, default=42)
    chaos.add_argument("--workers", type=int, default=1,
                       help="process-pool size; 1 runs serially (default)")
    chaos.add_argument("--full-scale", action="store_true",
                       help="use the paper-scale profile instead of the "
                            "fast smoke profile (not with --topology)")
    chaos.add_argument("--topology", default=None, metavar="REF",
                       help="builtin name or spec file to run the cells "
                            "against, with the spec's declared workload "
                            "(required for zone faults; default: the "
                            "classic 3-tier build)")
    chaos.set_defaults(func=_cmd_chaos)

    geo = sub.add_parser(
        "geo",
        help="run the geo headline grid: {hierarchy, flat} x zone faults",
        description="Cross the two-zone geo topologies (zone-local "
                    "balancer hierarchy vs one flat global balancer) "
                    "with zone outage, WAN degradation and cache "
                    "failover; report %VLRT, drops, spillovers, WAN "
                    "retransmits and cache hit ratio per cell.")
    geo.add_argument("--faults", default=None, metavar="KEYS",
                     help="comma-separated geo fault keys (default: all)")
    geo.add_argument("--duration", type=float, default=12.0)
    geo.add_argument("--seed", type=int, default=42)
    geo.add_argument("--clients", type=int, default=160)
    geo.set_defaults(func=_cmd_geo)

    cp = sub.add_parser(
        "controlplane",
        help="run one fault cell with and without a control-plane "
             "remedy and audit the mechanisms",
        description="Run the same fault twice — bare, then with a "
                    "control-plane bundle — and report the headline "
                    "metrics side by side plus each mechanism's "
                    "internals: admission decisions, leveling queue "
                    "counters, bulkhead partitions, autoscaler scale "
                    "events.")
    cp.add_argument("--remedy", default="admission+leveling",
                    metavar="KEY",
                    help="control-plane bundle (default: "
                         "admission+leveling; see also autoscale, "
                         "autoscale_fast, admission, leveling, "
                         "bulkhead)")
    cp.add_argument("--fault", default="packet_loss", metavar="KEY",
                    help="fault scenario (default: packet_loss)")
    cp.add_argument("--bundle", default="original_total_request",
                    metavar="KEY", help="policy bundle")
    cp.add_argument("--duration", type=float, default=12.0)
    cp.add_argument("--seed", type=int, default=42)
    cp.add_argument("--events", type=int, default=10, metavar="N",
                    help="show at most N per-mechanism events "
                         "(default 10)")
    cp.add_argument("--full-scale", action="store_true",
                    help="use the paper-scale profile instead of the "
                         "fast smoke profile")
    cp.add_argument("--millibottleneck", action="store_true",
                    help="tighten the app tier's disk bandwidth so "
                         "flush stalls produce VLRTs (the headline "
                         "demo cell)")
    cp.set_defaults(func=_cmd_controlplane)

    statan = sub.add_parser(
        "statan",
        help="simulation lint: determinism, process discipline, "
             "resource safety",
        description="AST-based static analysis for simulation code. "
                    "Exit codes: 0 clean, 1 findings, 2 internal error. "
                    "Suppress one line with '# statan: ignore[rule-id]'.")
    statan.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories (default: src/repro)")
    statan.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format")
    statan.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids or finding codes "
                             "to run exclusively")
    statan.add_argument("--ignore", default=None, metavar="RULES",
                        help="comma-separated rule ids or finding codes "
                             "to skip")
    statan.add_argument("--min-severity", default="info",
                        choices=("info", "warning", "error"),
                        help="report findings at or above this severity")
    statan.add_argument("--baseline", default=None, metavar="PATH",
                        help="suppress findings whose fingerprints are "
                             "recorded in this baseline file; only new "
                             "findings fail the run")
    statan.add_argument("--write-baseline", default=None, metavar="PATH",
                        help="write the run's findings to a baseline "
                             "file (after --baseline filtering, if any)")
    statan.add_argument("--no-program", action="store_true",
                        help="skip the whole-program passes (seed "
                             "provenance, yield atomicity, resource "
                             "escape); per-file rules only")
    statan.set_defaults(func=_cmd_statan)

    trace = sub.add_parser(
        "trace",
        help="run a scenario with request tracing and explain VLRTs",
        description="Record one span tree per request, decompose the "
                    "critical path of each, group VLRT requests by "
                    "dominant cause, and print reports for the "
                    "slowest requests.")
    trace.add_argument("scenario", help="scenario key (see 'list')")
    trace.add_argument("--duration", type=float, default=None)
    trace.add_argument("--seed", type=int, default=None)
    trace.add_argument("--slowest", type=int, default=5, metavar="N",
                       help="print span trees of the N slowest "
                            "requests (default 5)")
    trace.add_argument("--chrome", default=None, metavar="PATH",
                       help="also write a Chrome trace-event JSON file "
                            "(open in chrome://tracing or Perfetto)")
    trace.add_argument("--json", action="store_true",
                       help="also dump the VLRT explanation as JSON")
    trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.errors import ConfigurationError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print("repro-lb: error: {}".format(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
