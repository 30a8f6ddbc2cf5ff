"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's workflow:

* ``benchmarks`` — list the workload suite and its static shape;
* ``simulate`` — compare execution-driven and statistical simulation
  on one benchmark (the quickstart, scriptable);
* ``profile`` — measure a statistical profile and save it to JSON;
* ``synthesize`` — generate a synthetic trace from a saved profile and
  report its composition;
* ``experiment`` — regenerate one of the paper's tables/figures;
* ``dse`` — run a parallel, cached design-space sweep (the section 4.6
  protocol as a first-class subsystem; see ``docs/design_space.md``);
* ``fuzz`` — differential fuzzing and statistical acceptance: seeded
  random programs through both pipeline implementations plus the
  profile → synthesize loop, with failure minimization and a replayable
  regression corpus (see ``docs/fuzzing.md``).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path
from typing import List, Optional

from repro import faults, obs
from repro.errors import ChaosSpecError, ReproError

#: Experiments whose ``run`` accepts a fault-tolerant ``runner=``
#: (multi-benchmark batch jobs whose finished units a run directory
#: keeps for reuse).
RUNNER_AWARE_EXPERIMENTS = frozenset(
    {"table1", "fig6", "table4", "sec46", "speedup"})

EXPERIMENTS = {
    "table1": "table1_baseline",
    "fig3": "fig3_branch_profiling",
    "fig4": "fig4_sfg_order",
    "table3": "table3_sfg_size",
    "fig5": "fig5_delayed_update",
    "fig6": "fig6_absolute",
    "sec41": "sec41_convergence",
    "fig7": "fig7_hls",
    "fig8": "fig8_phases",
    "table4": "table4_relative",
    "sec46": "sec46_design_space",
    "ablation-models": "ablation_workload_models",
    "ablation-fifo": "ablation_fifo_size",
    "ablation-reduction": "ablation_reduction",
    "extension-inorder": "extension_inorder",
    "speedup": "speedup",
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {value}")
    return value


def _obs_parent() -> argparse.ArgumentParser:
    """Observability flags, accepted both before and after the
    subcommand (defaults are SUPPRESSed so a subparser never clobbers a
    value given at the top level)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_mutually_exclusive_group()
    group.add_argument(
        "-q", "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="console shows only warnings and errors")
    group.add_argument(
        "-v", "--verbose", action="store_true",
        default=argparse.SUPPRESS,
        help="console shows debug events (spans, unit lifecycle)")
    parent.add_argument(
        "--log-json", default=argparse.SUPPRESS, metavar="PATH",
        help="write every event as one JSON object per line to PATH "
             "(schema: docs/observability.md); also writes a "
             "metrics.json snapshot next to it")
    parent.add_argument(
        "--metrics", default=argparse.SUPPRESS, metavar="PATH",
        help="write the end-of-run metrics registry snapshot to PATH")
    # dest is namespaced: several subcommands have a positional
    # ``profile`` (the saved-profile path) that would share the dest.
    parent.add_argument(
        "--profile", dest="obs_profile", default=argparse.SUPPRESS,
        choices=("cprofile",),
        help="dump a pstats profile per work unit for hot-path "
             "analysis")
    parent.add_argument(
        "--profile-dir", dest="obs_profile_dir",
        default=argparse.SUPPRESS, metavar="DIR",
        help="where --profile dumps land (default: profiles/)")
    parent.add_argument(
        "--trace-dir", dest="trace_dir", default=argparse.SUPPRESS,
        metavar="DIR",
        help="activate fleet telemetry: every process of this run "
             "appends spans to DIR/trace-<pid>.jsonl and metrics to "
             "DIR/metrics-<pid>.json, and keeps a crash flight "
             "recorder; stitch with 'repro trace DIR'")
    return parent


def _build_parser() -> argparse.ArgumentParser:
    obs_parent = _obs_parent()
    parser = argparse.ArgumentParser(
        prog="repro",
        parents=[obs_parent],
        description="Statistical simulation with control-flow modeling "
                    "(Eeckhout et al., ISCA 2004 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("benchmarks", help="list the workload suite",
                   parents=[obs_parent])

    simulate = sub.add_parser(
        "simulate", parents=[obs_parent],
        help="execution-driven vs statistical simulation")
    simulate.add_argument("benchmark")
    simulate.add_argument("--instructions", type=_positive_int,
                          default=60_000)
    simulate.add_argument("--warmup", type=_non_negative_int,
                          default=40_000)
    simulate.add_argument("-R", "--reduction-factor",
                          type=_positive_float, default=6.0)
    simulate.add_argument("-k", "--order", type=_positive_int, default=1)
    simulate.add_argument("--seed", type=int, default=0)

    profile = sub.add_parser(
        "profile", parents=[obs_parent],
        help="measure and save a statistical profile")
    profile.add_argument("benchmark")
    profile.add_argument("-o", "--output", required=True)
    profile.add_argument("--instructions", type=_positive_int,
                         default=60_000)
    profile.add_argument("--warmup", type=_non_negative_int,
                         default=40_000)
    profile.add_argument("-k", "--order", type=_positive_int, default=1)
    profile.add_argument("--branch-mode", default="delayed",
                         choices=("delayed", "immediate", "perfect"))

    synthesize = sub.add_parser(
        "synthesize", parents=[obs_parent],
        help="generate a synthetic trace from a profile")
    synthesize.add_argument("profile")
    synthesize.add_argument("-R", "--reduction-factor",
                            type=_positive_float, default=6.0)
    synthesize.add_argument("--seed", type=int, default=0)
    synth_mode = synthesize.add_mutually_exclusive_group()
    synth_mode.add_argument(
        "--vector", action="store_true",
        help="synthesize with the columnar batch kernels "
             "(statistically equivalent draws, see "
             "docs/performance.md)")
    synth_mode.add_argument(
        "--scalar", action="store_true",
        help="synthesize with the scalar generator (the default)")
    synthesize.add_argument("--simulate", action="store_true",
                            help="also simulate the synthetic trace")

    experiment = sub.add_parser(
        "experiment", parents=[obs_parent],
        help="regenerate a table/figure of the paper")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--scale", default="quick",
                            choices=("quick", "default"))
    experiment.add_argument(
        "--benchmarks", default=None, metavar="NAME[,NAME...]",
        help="restrict the run to a comma-separated benchmark subset")
    experiment.add_argument(
        "--run-dir", default=None,
        help="run directory: each finished work unit is stored there "
             "by its inputs' content hash and reused by any later run "
             "with the same inputs (a resume after a crash or kill)")
    experiment.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted run from --run-dir (reuse is "
             "automatic whenever --run-dir is given; this flag only "
             "asserts a run directory is present)")
    experiment.add_argument(
        "--timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="wall-clock budget per work unit (exceeded units are "
             "retried, then recorded as failures)")
    experiment.add_argument(
        "--retries", type=_non_negative_int, default=2,
        help="retry budget for retryable failures (default: 2)")
    experiment.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="deterministic fault-injection spec (same grammar as "
             "REPRO_CHAOS, e.g. 'seed=1;task-fail:rate=0.2'); "
             "overrides the environment")

    # No prefix matching: a stale ``--bench PATH`` must be an error,
    # not a silent ``--benchmark PATH``.
    dse = sub.add_parser(
        "dse", parents=[obs_parent], allow_abbrev=False,
        help="parallel, cached design-space sweep "
             "(the section 4.6 protocol as a subsystem)")
    dse.add_argument(
        "--sweep", default=None, metavar="SPEC.json",
        help="sweep specification file (see docs/design_space.md); "
             "defaults to the reduced section 4.6 RUU/LSQ/width grid")
    dse.add_argument("--benchmark", default="twolf",
                     help="workload to profile and sweep (default: "
                          "twolf)")
    dse.add_argument("-j", "--jobs", type=_positive_int, default=1,
                     help="worker processes for the sweep (default: 1 "
                          "= serial in-process)")
    dse.add_argument(
        "--cache-dir", default=None,
        help="content-addressed result cache: evaluations are stored "
             "by (profile, config, seed) hash and re-used across "
             "sweeps that share design points")
    dse.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted sweep from --cache-dir (cache "
             "reuse is automatic whenever --cache-dir is given; this "
             "flag only asserts a cache directory is present)")
    dse.add_argument("--scale", default="quick",
                     choices=("quick", "default"))
    dse.add_argument(
        "--seeds", default=None, metavar="N[,N...]",
        help="synthesis seeds to average per design point (default: "
             "the scale's seeds)")
    dse.add_argument("-R", "--reduction-factor", type=_positive_float,
                     default=None,
                     help="synthetic trace reduction factor (default: "
                          "the scale's)")
    dse.add_argument("--verify-margin", type=_positive_float,
                     default=0.03,
                     help="EDS-verify every point within this margin "
                          "of the SS optimum (default: 0.03, as the "
                          "paper)")
    dse.add_argument("--no-verify", action="store_true",
                     help="skip the execution-driven verification "
                          "pass")
    dse.add_argument("--timeout", type=_positive_float, default=None,
                     metavar="SECONDS",
                     help="wall-clock budget per design-point "
                          "evaluation")
    dse.add_argument("--retries", type=_non_negative_int, default=2,
                     help="retry budget per design-point evaluation "
                          "(default: 2)")
    dse.add_argument(
        "--max-point-retries", type=_non_negative_int, default=2,
        metavar="N",
        help="worker crashes attributed to one design point before it "
             "is quarantined as a poison point (default: 2)")
    dse.add_argument(
        "--quarantine", default=None, metavar="MANIFEST.json",
        help="write the poison-point quarantine manifest (config + "
             "last error per quarantined task) to this path")
    dse.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="deterministic fault-injection spec (same grammar as "
             "REPRO_CHAOS, e.g. 'seed=1;worker-kill:rate=0.3'); "
             "overrides the environment")
    dse.add_argument(
        "--deadline", type=_positive_float, default=None,
        metavar="SECONDS",
        help="wall-clock budget for the whole sweep; evaluations "
             "past the cutoff fail fast with DeadlineExceededError "
             "at their next cooperative checkpoint (overrides the "
             "REPRO_HEALTH deadline)")
    dse_mode = dse.add_mutually_exclusive_group()
    dse_mode.add_argument(
        "--vector", action="store_true",
        help="evaluate through the columnar batch kernels (shared "
             "sampling tables published to workers; statistically "
             "equivalent draws, cached under distinct keys — see "
             "docs/performance.md)")
    dse_mode.add_argument(
        "--scalar", action="store_true",
        help="evaluate through the scalar object path (the default; "
             "named so scripts can say what they mean)")

    fuzz = sub.add_parser(
        "fuzz", parents=[obs_parent],
        help="differential fuzzing + statistical acceptance "
             "(see docs/fuzzing.md)")
    fuzz.add_argument("--cases", type=_positive_int, default=25,
                      help="number of seeded cases to run "
                           "(default: 25)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="fuzz stream seed; identical (seed, cases) "
                           "invocations produce identical verdicts "
                           "(default: 0)")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="corpus directory: failing cases are "
                           "minimized and written here; required "
                           "with --replay")
    fuzz.add_argument("--replay", action="store_true",
                      help="instead of generating cases, replay every "
                           "entry in --corpus and fail if a pinned "
                           "bug regressed")
    fuzz.add_argument("--stats-only", default=None, metavar="STATS.json",
                      help="write the deterministic JSON summary "
                           "(verdict counts, acceptance margins per "
                           "statistic) to this path")
    fuzz.add_argument("--timeout", type=_positive_float, default=None,
                      metavar="SECONDS",
                      help="wall-clock budget per fuzz case")
    fuzz.add_argument("--retries", type=_non_negative_int, default=0,
                      help="retry budget per case (default: 0; a fuzz "
                           "failure is deterministic, retries only "
                           "matter under chaos)")
    fuzz.add_argument("--max-shrink-trials", type=_positive_int,
                      default=200,
                      help="predicate evaluations the minimizer may "
                           "spend per failing case (default: 200)")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="file failing cases unshrunk (faster triage "
                           "of a broad breakage)")
    fuzz.add_argument("--vector", action="store_true",
                      help="add the vector layer: the columnar batch "
                           "generator's draws must pass the same "
                           "statistical acceptance as the scalar "
                           "generator's (failures filed as kind "
                           "'vector')")
    fuzz.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="deterministic fault-injection spec (same grammar as "
             "REPRO_CHAOS; the pipeline-skew site plants a one-cycle "
             "discrepancy the oracle must catch); overrides the "
             "environment")

    analyze = sub.add_parser(
        "analyze", parents=[obs_parent],
        help="analyze a saved profile's flow graph")
    analyze.add_argument("profile")
    analyze.add_argument("-R", "--reduction-factor", type=float,
                         default=None,
                         help="also report the reduced graph at this R")
    analyze.add_argument("--top", type=int, default=8)

    validate = sub.add_parser(
        "validate", parents=[obs_parent],
        help="drift report: profile vs synthetic trace")
    validate.add_argument("profile")
    validate.add_argument("-R", "--reduction-factor", type=float,
                          default=6.0)
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--threshold", type=float, default=0.05)

    trace = sub.add_parser(
        "trace", parents=[obs_parent],
        help="record a workload's dynamic trace to a file, OR — given "
             "a run directory — stitch its per-process telemetry "
             "into one critical-path tree")
    trace.add_argument("benchmark",
                       help="workload name to record, or a directory "
                            "of trace-<pid>.jsonl files to stitch")
    trace.add_argument("-o", "--output", default=None,
                       help="output trace file (required when "
                            "recording a workload)")
    trace.add_argument("--instructions", type=_positive_int,
                       default=60_000)
    trace.add_argument("--warmup", type=_non_negative_int, default=0)
    trace.add_argument("--trace-id", default=None,
                       help="stitch this trace id (default: the one "
                            "with the most spans)")
    trace.add_argument("--export", default=None, metavar="PERFETTO.json",
                       help="also write the stitched trace as "
                            "Chrome/Perfetto trace-event JSON")
    trace.add_argument("--openmetrics", default=None,
                       metavar="METRICS.txt",
                       help="also aggregate the run dir's "
                            "metrics-<pid>.json files and write them "
                            "as OpenMetrics text")

    report = sub.add_parser(
        "report", parents=[obs_parent],
        help="run every experiment and write a Markdown report")
    report.add_argument("-o", "--output", required=True)
    report.add_argument("--scale", default="quick",
                        choices=("quick", "default"))

    return parser


def _cmd_benchmarks() -> int:
    from repro.workloads.spec import SPEC_INT_2000, build_benchmark

    print(f"{'benchmark':10} {'blocks':>7} {'static insns':>13} "
          f"{'code KB':>8} {'data KB':>8}")
    for name, config in SPEC_INT_2000.items():
        program = build_benchmark(name)
        print(f"{name:10} {program.num_blocks:>7} "
              f"{program.static_instruction_count:>13} "
              f"{config.code_footprint_kb:>8} "
              f"{config.working_set_kb:>8}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.config import baseline_config
    from repro.core.framework import (run_execution_driven,
                                      run_statistical_simulation)
    from repro.core.metrics import absolute_error
    from repro.frontend.warming import run_program_with_warmup
    from repro.workloads.spec import build_benchmark

    config = baseline_config()
    warm, trace = run_program_with_warmup(
        build_benchmark(args.benchmark), warmup=args.warmup,
        n_instructions=args.instructions)
    reference, power = run_execution_driven(trace, config,
                                            warmup_trace=warm)
    report = run_statistical_simulation(
        trace, config, order=args.order,
        reduction_factor=args.reduction_factor, seed=args.seed,
        warmup_trace=warm)
    print(f"execution-driven: IPC {reference.ipc:.3f}  "
          f"EPC {power.total:.1f} W")
    print(f"statistical:      IPC {report.ipc:.3f}  "
          f"EPC {report.epc:.1f} W  "
          f"({len(report.synthetic_trace):,} synthetic instructions, "
          f"{report.profile.num_nodes} SFG nodes)")
    print(f"IPC error {absolute_error(report.ipc, reference.ipc) * 100:.1f}%  "
          f"EPC error "
          f"{absolute_error(report.epc, power.total) * 100:.1f}%")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.config import baseline_config
    from repro.core.profiler import profile_trace
    from repro.core.serialization import save_profile
    from repro.frontend.warming import run_program_with_warmup
    from repro.workloads.spec import build_benchmark

    config = baseline_config()
    warm, trace = run_program_with_warmup(
        build_benchmark(args.benchmark), warmup=args.warmup,
        n_instructions=args.instructions)
    profile = profile_trace(trace, config, order=args.order,
                            branch_mode=args.branch_mode,
                            warmup_trace=warm)
    save_profile(profile, args.output)
    print(f"profiled {profile.trace_instructions:,} instructions into "
          f"{profile.num_nodes} order-{profile.order} SFG nodes "
          f"-> {args.output}")
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.core.serialization import load_profile
    from repro.core.synthesis import generate_synthetic_trace
    from repro.core.validation import synthetic_rates

    profile = load_profile(args.profile)
    columnar = None
    if args.vector:
        from repro.core.columnar import generate_columnar_trace

        columnar = generate_columnar_trace(
            profile, args.reduction_factor, seed=args.seed)
        synthetic = columnar.to_synthetic_trace()
    else:
        synthetic = generate_synthetic_trace(
            profile, args.reduction_factor, seed=args.seed)
    rates = synthetic_rates(synthetic).as_dict()
    mode = " [vector]" if args.vector else ""
    print(f"synthetic trace: {len(synthetic):,} instructions "
          f"(R = {args.reduction_factor:g}){mode}")
    for key in ("load_fraction", "branch_fraction", "il1_miss_rate",
                "dl1_miss_rate", "misprediction_rate"):
        print(f"  {key}: {rates[key]:.4f}")
    if args.simulate:
        if columnar is not None:
            from repro.core.framework import simulate_columnar_trace

            result, power = simulate_columnar_trace(columnar,
                                                    profile.config)
        else:
            from repro.core.framework import simulate_synthetic_trace

            result, power = simulate_synthetic_trace(synthetic,
                                                     profile.config)
        print(f"  simulated: IPC {result.ipc:.3f}  "
              f"EPC {power.total:.1f} W")
    return 0


#: Exit status for a run cut short by Ctrl-C (128 + SIGINT), distinct
#: from 1 (error) and 2 (bad arguments) so scripts can tell an
#: interrupted sweep — whose partial report and quarantine manifest
#: were still written — from a failed one.
EXIT_INTERRUPTED = 130

def _health_policy(deadline):
    """The sweep's health policy: REPRO_HEALTH from the environment,
    with ``--deadline`` (when given) overriding the spec's deadline.

    Returns the :class:`~repro.health.HealthPolicy`, or ``None`` after
    reporting a bad REPRO_HEALTH spec (caller exits 2).
    """
    from repro.errors import HealthSpecError
    from repro.health import HealthPolicy

    try:
        policy = HealthPolicy.from_env()
    except HealthSpecError as exc:
        obs.error(f"REPRO_HEALTH: {exc}", event="cli_error")
        return None
    if deadline is not None:
        policy = policy.with_deadline(deadline)
    return policy


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.common import DEFAULT_SCALE, QUICK_SCALE
    from repro.runner import RunnerPolicy, TaskRunner
    from repro.workloads.spec import benchmark_names

    scale = QUICK_SCALE if args.scale == "quick" else DEFAULT_SCALE
    if args.benchmarks:
        chosen = tuple(name.strip()
                       for name in args.benchmarks.split(",")
                       if name.strip())
        unknown = sorted(set(chosen) - set(benchmark_names()))
        if unknown:
            obs.error(f"unknown benchmark(s): {', '.join(unknown)}; "
                      f"run 'repro benchmarks' for the suite",
                      event="cli_error")
            return 2
        scale = scale.with_benchmarks(chosen)
    if args.resume and not args.run_dir:
        obs.error("--resume requires --run-dir (there is nothing "
                  "to resume from without a run directory)",
                  event="cli_error")
        return 2

    runner = None
    if args.name in RUNNER_AWARE_EXPERIMENTS:
        runner = TaskRunner(
            policy=RunnerPolicy(timeout=args.timeout,
                                max_retries=args.retries),
            run_dir=args.run_dir,
        )
    elif args.run_dir or args.timeout is not None or args.chaos:
        obs.info(f"note: experiment {args.name!r} does not run through "
                 f"the fault-tolerant runner; --run-dir/--resume/"
                 f"--timeout/--chaos are ignored")

    print(_run_experiment(args.name, scale, runner=runner))
    if runner is not None and runner.last_report is not None:
        summary = runner.last_report.summary()
        if args.run_dir:
            obs.info(f"checkpoints: {args.run_dir} ({summary})",
                     event="checkpoint_summary",
                     run_dir=str(args.run_dir))
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.dse import SupervisorPolicy, SweepSpec, \
        reduced_sec46_spec, run_study
    from repro.experiments.common import DEFAULT_SCALE, QUICK_SCALE
    from repro.runner import RunnerPolicy
    from repro.workloads.spec import benchmark_names

    if args.benchmark not in benchmark_names():
        obs.error(f"unknown benchmark {args.benchmark!r}; run "
                  f"'repro benchmarks' for the suite", event="cli_error")
        return 2
    if args.resume and not args.cache_dir:
        obs.error("--resume requires --cache-dir (the cache is the "
                  "sweep's resume state)", event="cli_error")
        return 2

    spec = (SweepSpec.from_file(args.sweep) if args.sweep
            else reduced_sec46_spec())
    scale = QUICK_SCALE if args.scale == "quick" else DEFAULT_SCALE
    if args.reduction_factor is not None:
        scale = replace(scale, reduction_factor=args.reduction_factor)
    seeds = None
    if args.seeds:
        try:
            seeds = tuple(int(part) for part in args.seeds.split(",")
                          if part.strip())
        except ValueError:
            obs.error(f"--seeds must be comma-separated integers, "
                      f"got {args.seeds!r}", event="cli_error")
            return 2
        if not seeds:
            obs.error("--seeds must name at least one seed",
                      event="cli_error")
            return 2
    health = _health_policy(args.deadline)
    if health is None:
        return 2
    study = run_study(
        spec, args.benchmark, scale, jobs=args.jobs,
        cache_dir=args.cache_dir,
        policy=RunnerPolicy(timeout=args.timeout,
                            max_retries=args.retries),
        verify=not args.no_verify, verify_margin=args.verify_margin,
        seeds=seeds,
        supervisor_policy=SupervisorPolicy(
            max_point_retries=args.max_point_retries),
        quarantine_path=args.quarantine,
        vector=args.vector, health=health)
    print(study.render(margin=args.verify_margin))
    if study.sweep.interrupted:
        obs.warn(
            f"sweep interrupted: {study.sweep.unstarted} "
            f"evaluation(s) never started; the report above covers "
            f"only finished work"
            + (f"; quarantine manifest: {args.quarantine}"
               if args.quarantine else ""),
            event="sweep_interrupted_summary",
            unstarted=study.sweep.unstarted)
        return EXIT_INTERRUPTED
    row = study.to_row()
    if row["quarantined"]:
        obs.warn(
            f"{row['quarantined']} evaluation(s) quarantined as "
            f"poison points"
            + (f"; manifest: {args.quarantine}" if args.quarantine
               else " (pass --quarantine PATH to keep the manifest)"),
            event="quarantine_summary",
            quarantined=row["quarantined"])
    if not args.no_verify and row["ss_optimal"] is not None:
        verdict = ("is the verified optimum" if row["found_optimal"]
                   else f"is {row['edp_gap'] * 100:.2f}% above the "
                        f"verified optimum "
                        f"{row['eds_optimal_in_region']}")
        print(f"\nSS optimum {row['ss_optimal']} {verdict} "
              f"({row['candidates_verified']} candidate(s) re-checked "
              f"execution-driven)")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from repro.fuzz import FuzzPolicy, replay_corpus, run_fuzz

    if args.replay:
        if not args.corpus:
            obs.error("--replay requires --corpus (the directory of "
                      "entries to replay)", event="cli_error")
            return 2
        results = replay_corpus(args.corpus)
        failures = [result for result in results if not result.passed]
        for result in results:
            status = "ok" if result.passed else "REGRESSED"
            print(f"{result.case_id} [{result.kind}]: {status}"
                  + (f" ({result.detail})" if result.detail else ""))
        print(f"{len(results)} corpus entr"
              f"{'y' if len(results) == 1 else 'ies'} replayed, "
              f"{len(failures)} regressed")
        return 1 if failures else 0

    policy = FuzzPolicy(
        cases=args.cases,
        seed=args.seed,
        timeout=args.timeout,
        retries=args.retries,
        corpus_dir=args.corpus,
        max_trials=args.max_shrink_trials,
        minimize=not args.no_minimize,
        vector=args.vector,
    )
    report = run_fuzz(policy)

    for verdict in report.verdicts:
        if verdict.status == "ok":
            continue
        line = f"{verdict.case_id}: {verdict.status} — {verdict.detail}"
        if verdict.minimization:
            line += (f" (minimized "
                     f"{verdict.minimization['original_size']} -> "
                     f"{verdict.minimization['minimized_size']} static "
                     f"instructions)")
        if verdict.corpus_path:
            line += f" [{verdict.corpus_path}]"
        print(line)
    print(report.summary())

    if args.stats_only:
        payload = report.stats_payload()
        stats_path = Path(args.stats_only)
        if stats_path.parent != Path(""):
            stats_path.parent.mkdir(parents=True, exist_ok=True)
        stats_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"stats written to {args.stats_only}")
    return 0 if report.passed else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.analysis import (hottest_contexts,
                                     reduced_connectivity,
                                     transition_entropy)
    from repro.core.reduction import reduce_flow_graph
    from repro.core.serialization import load_profile

    profile = load_profile(args.profile)
    sfg = profile.sfg
    print(f"{profile.name}: order-{profile.order} SFG, "
          f"{sfg.num_nodes} nodes, "
          f"{sfg.total_block_executions:,} block executions")
    print(f"transition entropy: {transition_entropy(sfg):.3f} bits")
    print(f"\nhottest contexts (top {args.top}):")
    for context, count, share in hottest_contexts(sfg, top=args.top):
        print(f"  {context}: {count} ({share * 100:.1f}%)")
    if args.reduction_factor is not None:
        reduced = reduce_flow_graph(sfg, args.reduction_factor)
        stats = reduced_connectivity(sfg, reduced)
        print(f"\nreduced at R={args.reduction_factor:g}: "
              f"{reduced.num_nodes} nodes, "
              f"{stats['components']} weakly connected components, "
              f"largest holds "
              f"{stats['largest_component_mass'] * 100:.1f}% of mass")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.serialization import load_profile
    from repro.core.synthesis import generate_synthetic_trace
    from repro.core.validation import drift_report, format_drift_report

    profile = load_profile(args.profile)
    synthetic = generate_synthetic_trace(
        profile, args.reduction_factor, seed=args.seed)
    report = drift_report(profile, synthetic, threshold=args.threshold)
    print(f"{profile.name}: profile expectation vs synthetic trace "
          f"(R = {args.reduction_factor:g}, seed {args.seed})")
    print(format_drift_report(report))
    flagged = sum(1 for entry in report.values() if "flagged" in entry)
    print(f"\n{flagged} characteristic(s) drift beyond "
          f"{args.threshold:g}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    # Dual personality: a directory argument means "stitch this run's
    # telemetry"; anything else is the original workload recorder.
    if Path(args.benchmark).is_dir():
        return _cmd_trace_stitch(args)

    from repro.frontend.functional import run_program
    from repro.frontend.tracefile import save_trace
    from repro.workloads.spec import build_benchmark

    if not args.output:
        obs.error("recording a workload trace needs -o/--output",
                  event="cli_error")
        return 2
    trace = run_program(build_benchmark(args.benchmark),
                        n_instructions=args.instructions,
                        warmup=args.warmup)
    save_trace(trace, args.output)
    print(f"recorded {len(trace):,} instructions of {args.benchmark} "
          f"-> {args.output}")
    return 0


def _cmd_trace_stitch(args: argparse.Namespace) -> int:
    import json

    from repro.obs.exposition import (aggregate_run_dir,
                                      render_openmetrics)
    from repro.obs.traceview import (build_tree, load_spans,
                                     to_chrome_trace)

    run_dir = Path(args.benchmark)
    spans = load_spans(run_dir)
    if not spans:
        obs.error(f"no trace-<pid>.jsonl files under {run_dir} "
                  f"(run with --trace-dir to record telemetry)",
                  event="cli_error")
        return 2
    tree = build_tree(spans, trace_id=args.trace_id)
    print(tree.render())
    if args.export:
        export_path = Path(args.export)
        export_path.parent.mkdir(parents=True, exist_ok=True)
        export_path.write_text(
            json.dumps(to_chrome_trace(tree), sort_keys=True),
            encoding="utf-8")
        print(f"perfetto trace written to {export_path} "
              f"(open at https://ui.perfetto.dev)")
    if args.openmetrics:
        snapshot = aggregate_run_dir(run_dir)
        metrics_path = Path(args.openmetrics)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(render_openmetrics(snapshot),
                                encoding="utf-8")
        print(f"openmetrics written to {metrics_path} "
              f"({snapshot.get('processes', 1)} process(es) "
              f"aggregated)")
    return 0 if tree.single_rooted() and tree.acyclic() else 1


#: Experiments whose ``run`` takes a benchmark name first.
_PER_BENCHMARK_EXPERIMENTS = ("sec41", "ablation-reduction")


def _run_experiment(name: str, scale, runner=None) -> str:
    module = importlib.import_module(
        f"repro.experiments.{EXPERIMENTS[name]}")
    if name == "sec46":
        rows = module.run_suite(benchmarks=scale.benchmarks[:3],
                                scale=scale, runner=runner)
    elif name in _PER_BENCHMARK_EXPERIMENTS:
        rows = module.run(scale.benchmarks[0], scale)
    elif name in RUNNER_AWARE_EXPERIMENTS:
        rows = module.run(scale, runner=runner)
    else:
        rows = module.run(scale)
    return module.format_rows(rows)


def _cmd_report(args: argparse.Namespace) -> int:
    import time

    from repro.experiments.common import DEFAULT_SCALE, QUICK_SCALE

    scale = QUICK_SCALE if args.scale == "quick" else DEFAULT_SCALE
    sections = []
    for name in sorted(EXPERIMENTS):
        started = time.perf_counter()
        table = _run_experiment(name, scale)
        elapsed = time.perf_counter() - started
        obs.info(f"{name}: done in {elapsed:.1f}s",
                 event="experiment_done", experiment=name,
                 elapsed=round(elapsed, 3))
        sections.append(f"## {name}\n\n```\n{table}\n```\n")
    body = (f"# repro experiment report ({args.scale} scale)\n\n"
            + "\n".join(sections))
    with open(args.output, "w") as handle:
        handle.write(body)
    print(f"report written to {args.output}")
    return 0


#: Commands whose work units are profiled individually by the runner;
#: the CLI-level profile wrapper skips them so one thread never hosts
#: two active profilers.
_UNIT_PROFILED_COMMANDS = frozenset({"experiment", "dse"})


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "benchmarks":
        return _cmd_benchmarks()
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "synthesize":
        return _cmd_synthesize(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "dse":
        return _cmd_dse(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "report":
        return _cmd_report(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _metrics_path(args: argparse.Namespace) -> Optional[Path]:
    """Where this run's metrics.json goes: an explicit ``--metrics``
    wins; with ``--log-json`` the snapshot lands next to the event log
    (the acceptance contract: a log always comes with its metrics)."""
    explicit = getattr(args, "metrics", None)
    if explicit:
        return Path(explicit)
    log_json = getattr(args, "log_json", None)
    if log_json:
        return Path(log_json).parent / "metrics.json"
    return None


def _traced(fn, trace_span, command: str) -> int:
    with trace_span("cli", command=command):
        return fn()


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    quiet = getattr(args, "quiet", False)
    verbose = getattr(args, "verbose", False)
    console_level = ("warning" if quiet
                     else "debug" if verbose else "info")
    obs.reset_registry()
    obs.configure(
        console_level=console_level,
        log_json=getattr(args, "log_json", None),
        profile=getattr(args, "obs_profile", None),
        profile_dir=getattr(args, "obs_profile_dir", None),
    )
    from repro.obs import flightrec, telemetry
    from repro.obs.tracing import trace_span

    telemetry.reset()
    trace_dir = getattr(args, "trace_dir", None)
    if trace_dir:
        telemetry.start(trace_dir=Path(trace_dir))
        flightrec.install(Path(trace_dir))
    obs.emit("run_start", level="debug", command=args.command,
             argv=list(argv) if argv is not None else sys.argv[1:])
    status = 1
    try:
        # Parsed before any expensive work, so a bad spec fails at
        # startup; --chaos overrides REPRO_CHAOS for the whole process
        # and the pool workers it starts.
        spec = getattr(args, "chaos", None)
        try:
            plan = (faults.ChaosPlan.parse(spec) if spec
                    else faults.active_plan())
        except ChaosSpecError as exc:
            obs.error(f"{'--chaos' if spec else 'REPRO_CHAOS'}: {exc}",
                      event="cli_error")
            status = 2
            return status
        fn = lambda: _dispatch(args)  # noqa: E731
        if args.command not in _UNIT_PROFILED_COMMANDS:
            fn = obs.maybe_profiled(fn, f"cli.{args.command}")
        if trace_dir:
            # The root span every other process's spans stitch under.
            inner = fn
            fn = lambda: _traced(inner, trace_span,  # noqa: E731
                                 args.command)
        with faults.use(plan):
            status = fn()
        return status
    except ReproError as exc:
        obs.error(str(exc), event="cli_error",
                  error=type(exc).__name__)
        return 1
    except KeyboardInterrupt:
        # An interrupt not already converted into a partial report by
        # a lower layer (e.g. Ctrl-C during profiling) still exits
        # cleanly with the distinct status instead of a raw traceback.
        obs.warn("interrupted", event="interrupted")
        status = EXIT_INTERRUPTED
        return status
    finally:
        obs.emit("run_end", level="debug", command=args.command,
                 status=status)
        metrics_path = _metrics_path(args)
        if metrics_path is not None:
            obs.get_registry().write(metrics_path)
        if trace_dir:
            telemetry.flush_metrics(force=True)
            flightrec.uninstall()
            telemetry.reset()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
