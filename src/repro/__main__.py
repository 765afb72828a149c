"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``demo`` - run a narrated simulated scenario (multicast, partition,
  heal, recovery) with the safety battery at the end;
* ``experiments [ID ...]`` - run registered experiments (all of them by
  default, ``--list`` to enumerate), print their claim-versus-measured
  tables and exit non-zero on a missed claim;
* ``scale`` - E19 at any grid, ``--check`` enforcing its acceptance bounds;
* ``simulate`` - run a parameterised reconfiguration and print its
  numbers (see ``--help`` for knobs);
* ``chaos`` - run seeded adversarial episodes (E16) on any substrate,
  with ``--servers`` to fold membership-server faults in (E20) and
  ``--self-test`` to prove the checkers catch an injected bug and
  shrink it to a replayable minimal schedule;
* ``soak`` - run an open-ended chaos stream (E20) for a target span of
  simulated or wall time, auditing the trace and endpoint memory as it
  goes;
* ``verdict`` - run the verdict engine over a scenario, a seeded chaos
  episode, or a saved plan: every registered rule in one pass, earliest
  violating event index per violated rule, stable ``VS-*``/``MBRSHP-*``
  codes, canonical (byte-stable) JSON output.  ``--record-golden`` /
  ``--golden`` record a trace skeleton on one substrate and assert it on
  another; ``--mutate CODE`` applies the registered forgery for a code;
  ``--shrink`` minimises a failing plan while preserving its finding.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import __version__
from repro.chaos import ChaosPlan, ChaosRunner, shrink_plan
from repro.checking import SAFETY_CODES, run_verdict
from repro.experiments import (
    ALGORITHMS,
    REGISTRY,
    ClaimMissed,
    experiment_ids,
    format_table,
    measure_reconfiguration,
)
from repro.experiments import scale as e19
from repro.net import ConstantLatency, LognormalLatency, SimWorld


def _cmd_demo(_args: argparse.Namespace) -> int:
    print("== repro demo: virtually synchronous group multicast ==\n")
    world = SimWorld(latency=ConstantLatency(1.0), round_duration=2.0)
    nodes = world.add_nodes(["alice", "bob", "carol", "dave"])
    world.start()
    world.run()
    print(f"[t={world.now():4.1f}] initial view: {sorted(nodes[0].current_view.members)}")

    nodes[0].send("hello everyone")
    world.run()
    print(f"[t={world.now():4.1f}] alice's message delivered at: "
          f"{[n.pid for n in nodes if ('alice', 'hello everyone') in n.delivered]}")

    world.partition([["alice", "bob"], ["carol", "dave"]])
    world.run()
    print(f"[t={world.now():4.1f}] partition: "
          f"{sorted(nodes[0].current_view.members)} | {sorted(nodes[2].current_view.members)}")

    nodes[2].send("island life")
    world.run()
    world.heal()
    world.run()
    final = world.oracle.views_formed[-1]
    transitional = dict(nodes[0].views)[final]
    print(f"[t={world.now():4.1f}] merged view: {sorted(final.members)}; "
          f"alice's transitional set: {sorted(transitional)}")

    world.crash("dave")
    world.run()
    world.recover("dave")
    world.run()
    print(f"[t={world.now():4.1f}] dave crashed, recovered, rejoined: "
          f"{sorted(world.nodes['dave'].current_view.members)}")

    run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()
    print("\nall safety properties verified on the recorded trace")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.list:
        for id in experiment_ids():
            entry = REGISTRY[id]
            print(f"{id:4s} {entry.title} [{entry.paper}]")
        return 0
    unknown = [id for id in args.ids if id not in REGISTRY]
    if unknown:
        print(f"unknown experiment id(s) {unknown}; choose from {experiment_ids()}",
              file=sys.stderr)
        return 2
    missed = 0
    for id in args.ids or experiment_ids():
        try:
            print("\n\n".join(REGISTRY[id].run()) + "\n")
        except ClaimMissed as exc:
            missed += 1
            print(f"FAIL: {id} missed its claim - {exc}", file=sys.stderr)
    return 1 if missed else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.algorithm not in ALGORITHMS:
        print(f"unknown algorithm {args.algorithm!r}; choose from {sorted(ALGORITHMS)}",
              file=sys.stderr)
        return 2
    latency = (
        LognormalLatency(args.latency, 0.5, seed=args.seed)
        if args.wan
        else ConstantLatency(args.latency)
    )
    result = measure_reconfiguration(
        ALGORITHMS[args.algorithm],
        group_size=args.nodes,
        latency=latency,
        round_duration=args.membership_round,
        algorithm_name=args.algorithm,
        check=True,
    )
    print(format_table(
        ["algorithm", "n", "membership latency", "gcs latency", "extra rounds"],
        [(result.algorithm, result.group_size, result.membership_latency,
          result.gcs_latency, result.extra_rounds)],
        title="reconfiguration simulation (safety-checked)",
    ))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments import chaos_self_test, chaos_sweep

    if args.self_test:
        result = chaos_self_test(substrate=args.backend, seed=args.seed)
        if result is None:
            print("chaos self-test FAILED: the injected known-bad mutation "
                  "was not caught by the checkers", file=sys.stderr)
            return 1
        print("chaos self-test: injected known-bad mutation caught and shrunk")
        print(result.summary())
        print("minimal replayable schedule (replay with "
              f"ChaosPlan.from_dict on backend {args.backend!r}):")
        print(result.plan.describe())
        print("finding (seed, code, witness_index, minimal_schedule):")
        print(result.finding_json())
        return 0

    plan_options = dict(
        intensity=args.intensity, overlay_leaders=args.overlay_leaders, servers=args.servers
    )
    if args.episodes == 1:
        plan = ChaosPlan.generate(args.seed, **plan_options)
        print(plan.describe())
        episode = ChaosRunner(args.backend).run(plan)
        print(episode.summary())
        if episode.ok:
            return 0
        first_bad = args.seed
    else:
        result = chaos_sweep(
            args.backend, episodes=args.episodes, seed_base=args.seed, **plan_options
        )
        injected = {k: v for k, v in result.injected.items() if k != "messages"}
        print(f"[{result.substrate}] {result.episodes} episodes "
              f"(seeds {args.seed}..{args.seed + args.episodes - 1}, "
              f"{result.por_skipped} POR-skipped), {result.ops} ops"
              + (f" (executed server ops {result.server_ops})" if args.servers else "")
              + f", injected faults {injected}: {result.violations} violation(s)")
        if not result.failures:
            return 0
        for failure in result.failures:
            print(failure, file=sys.stderr)
        first_bad = result.failing_seeds[0]
    # Shrink the (first) failing seed to a replayable minimal schedule.
    shrunk = shrink_plan(
        ChaosRunner(args.backend), ChaosPlan.generate(first_bad, **plan_options)
    )
    if shrunk is not None:
        print(shrunk.summary(), file=sys.stderr)
        print(shrunk.plan.describe(), file=sys.stderr)
        print(shrunk.finding_json(), file=sys.stderr)
    return 1


def _cmd_soak(args: argparse.Namespace) -> int:
    report = ChaosRunner(args.backend).soak(
        args.seed,
        duration=args.duration,
        servers=args.servers,
        intensity=args.intensity,
        audit_every=args.audit_every,
        max_ops=args.max_ops,
    )
    print(report.summary())
    if args.output is not None:
        with open(args.output, "w") as handle:
            json.dump(report.to_dict(), handle, sort_keys=True, indent=2)
            handle.write("\n")
    return 0 if report.ok else 1


def _cmd_verdict(args: argparse.Namespace) -> int:
    from repro.checking.codes import REGISTRY
    from repro.checking.forge import FORGERIES, as_mutator
    from repro.checking.refinement import TraceSkeleton, extract_skeleton

    if args.codes:
        registry = {code: info.to_dict() for code, info in sorted(REGISTRY.items())}
        print(json.dumps(registry, sort_keys=True, indent=2))
        return 0

    sources = [s for s in (args.scenario, args.plan, args.seed) if s is not None]
    if len(sources) != 1:
        print("verdict: give exactly one of --scenario, --plan, --seed "
              "(or --codes)", file=sys.stderr)
        return 2

    forgery = None
    if args.mutate is not None:
        forgery = FORGERIES.get(args.mutate)
        if forgery is None:
            print(f"verdict: no forgery for code {args.mutate!r}; "
                  f"choose from {sorted(FORGERIES)}", file=sys.stderr)
            return 2

    # -- obtain the trace ------------------------------------------------
    source: dict = {"backend": args.backend}
    episode = None
    if args.scenario is not None:
        from repro.deploy import SCENARIOS, run_scenario

        if args.scenario not in SCENARIOS:
            print(f"verdict: unknown scenario {args.scenario!r}; "
                  f"choose from {sorted(SCENARIOS)}", file=sys.stderr)
            return 2
        source.update(kind="scenario", name=args.scenario)
        deployment = run_scenario(args.backend, SCENARIOS[args.scenario])
        trace, procs = deployment.trace, deployment.processes()
    else:
        if args.plan is not None:
            with open(args.plan) as handle:
                plan = ChaosPlan.from_dict(json.load(handle))
            source.update(kind="plan", seed=plan.seed, path=args.plan)
        else:
            plan = ChaosPlan.generate(args.seed, intensity=args.intensity)
            source.update(kind="seed", seed=args.seed, intensity=args.intensity)
        episode = ChaosRunner(args.backend).run(plan)
        if episode.trace is None:  # stalled: the episode's verdict is the whole audit
            _emit_verdict({"source": source, "verdict": episode.verdict.to_dict()}, args.output)
            return 1
        trace, procs = episode.trace, list(plan.processes)

    # -- optional forgery / golden handling ------------------------------
    golden = None
    final_view = None
    if args.record_golden is not None:
        with open(args.record_golden, "w") as handle:
            handle.write(extract_skeleton(trace).to_json())
        source["recorded_golden"] = args.record_golden
    if args.golden is not None:
        with open(args.golden) as handle:
            golden = TraceSkeleton.from_json(handle.read())
        source["golden"] = args.golden
    if forgery is not None:
        if forgery.needs_golden and golden is None:
            golden = extract_skeleton(trace)
        forged = forgery.apply(trace)
        if forged is None:
            print(f"verdict: the trace has no material for --mutate "
                  f"{args.mutate} ({forgery.description})", file=sys.stderr)
            return 2
        trace = forged.trace
        final_view = forged.final_view
        source.update(mutate=args.mutate, expected_index=forged.expected_index)

    verdict = run_verdict(trace, procs, final_view=final_view, golden=golden)
    output = {"source": source, "verdict": verdict.to_dict()}

    # -- optional finding-preserving shrink ------------------------------
    if args.shrink and not verdict.ok and episode is not None:
        mutator = as_mutator(forgery) if forgery is not None else None
        shrunk = shrink_plan(
            ChaosRunner(args.backend, mutate_trace=mutator), episode.plan
        )
        if shrunk is not None:
            output["finding"] = shrunk.finding()

    _emit_verdict(output, args.output)
    return 0 if verdict.ok else 1


def _emit_verdict(output: dict, path: Optional[str]) -> None:
    """Canonical JSON: key-sorted, time-free, byte-stable per trace."""
    text = json.dumps(output, sort_keys=True, indent=2)
    print(text)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text + "\n")


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


def _cmd_scale(args: argparse.Namespace) -> int:
    tables, violations = e19.run_scale(
        args.n, args.g, args.processes, [s.strip() for s in args.substrates.split(",")]
    )
    print("\n\n".join(tables))
    if not args.check:
        return 0
    for violation in violations:
        print(f"FAIL: {violation}", file=sys.stderr)
    if not violations:
        print("all acceptance bounds hold")
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Client-server virtually synchronous group multicast "
                    "(Keidar & Khazan, ICDCS 2000) - reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run a narrated simulated scenario")
    experiments = sub.add_parser(
        "experiments",
        help="run registered experiments and assert their claims",
        description="Print the claim-versus-measured tables of the given "
                    "experiment ids (default: every registered id) and "
                    "exit 1 if any measured row misses its claim.",
    )
    experiments.add_argument("ids", nargs="*", metavar="ID",
                             help="registry ids, e.g. E4 E13 (default: all)")
    experiments.add_argument("--list", action="store_true",
                             help="list the registered ids and exit")

    simulate = sub.add_parser("simulate", help="run one parameterised reconfiguration")
    simulate.add_argument("--algorithm", default="gcs-1round (paper)",
                          help="one of: " + ", ".join(sorted(ALGORITHMS)))
    simulate.add_argument("--nodes", type=int, default=8)
    simulate.add_argument("--latency", type=float, default=1.0)
    simulate.add_argument("--membership-round", type=float, default=3.0)
    simulate.add_argument("--wan", action="store_true",
                          help="lognormal (heavy-tailed) latency instead of constant")
    simulate.add_argument("--seed", type=int, default=0)

    chaos = sub.add_parser(
        "chaos",
        help="run seeded adversarial fault schedules (E16)",
        description="Run seeded chaos episodes: randomized operation "
                    "schedules under message drop/duplicate/delay/reorder "
                    "faults, audited by the full safety battery.  A "
                    "violating schedule is shrunk to a minimal replayable "
                    "form and printed with its seed.",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="seed of the episode (or the sweep's first seed)")
    chaos.add_argument("--backend", default="sim", choices=["sim", "async", "tcp"])
    chaos.add_argument("--episodes", type=int, default=1,
                       help="number of consecutive seeds to run (default 1)")
    chaos.add_argument("--intensity", type=float, default=1.0,
                       help="fault-rate multiplier (0 disables message faults)")
    chaos.add_argument("--overlay-leaders", type=int, default=0,
                       help="run episodes under the two-tier scale overlay "
                            "with this many leaders, enabling leader_crash "
                            "ops (default 0: no overlay)")
    chaos.add_argument("--servers", type=int, default=0,
                       help="run episodes on a crashable membership tier of "
                            "this many servers, enabling server_crash/"
                            "server_recover/server_partition ops (E20; "
                            "default 0: infallible membership)")
    chaos.add_argument("--self-test", action="store_true",
                       help="inject a known-bad trace mutation and require "
                            "the pipeline to catch and shrink it")

    soak = sub.add_parser(
        "soak",
        help="run an open-ended chaos stream with periodic audits (E20)",
        description="Soak mode: stream the seeded chaos op distribution "
                    "for a target time span (simulated seconds on the sim "
                    "backend, wall seconds on async/tcp), settling and "
                    "running the full verdict battery every --audit-every "
                    "ops, and asserting bounded endpoint memory at every "
                    "clean audit point on the simulator.",
    )
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--backend", default="sim", choices=["sim", "async", "tcp"])
    soak.add_argument("--duration", type=float, default=3600.0,
                      help="time span: simulated seconds on sim (default "
                           "3600 = one simulated hour), wall seconds on "
                           "async/tcp (shorten it there)")
    soak.add_argument("--servers", type=int, default=3,
                      help="membership-tier size; >= 2 folds server faults "
                           "into the stream (default 3; 0 disables)")
    soak.add_argument("--intensity", type=float, default=1.0,
                      help="fault-rate multiplier (0 disables message faults)")
    soak.add_argument("--audit-every", type=int, default=50,
                      help="ops between settle+verdict audits (default 50)")
    soak.add_argument("--max-ops", type=int, default=None,
                      help="hard cap on operations regardless of duration")
    soak.add_argument("--output", default=None, metavar="FILE",
                      help="write the soak report JSON to FILE (CI artifact)")

    scale = sub.add_parser(
        "scale",
        help="run the E19 scale sweep (two-tier overlay + many groups on the server tier)",
        description="Measure both scalability axes: sync traffic of a "
                    "crash reconfiguration at group size n with the "
                    "two-tier overlay (vs the §9 cost model), and "
                    "reconfiguration locality with g groups placed over "
                    "~sqrt(g) membership servers.",
    )
    scale.add_argument("--n", type=int, nargs="*", default=list(e19.DEFAULT_NS),
                       help="endpoint-axis group sizes on the simulator "
                            "(default: the registry's E19 grid)")
    scale.add_argument("--g", type=int, nargs="*", default=list(e19.DEFAULT_GS),
                       help="group-axis group counts (default: the E19 grid)")
    scale.add_argument("--processes", type=int, default=e19.DEFAULT_PROCESSES,
                       help="process pool for the group axis (default: the E19 grid)")
    scale.add_argument("--substrates", default="sim",
                       help="comma-separated endpoint-axis substrates; async "
                            f"and tcp run at smoke scale (n={e19.REAL_SUBSTRATE_N})")
    scale.add_argument("--check", action="store_true",
                       help="exit 1 unless every row converged/settled with "
                            "sync volume within 2x of the §9 model")

    verdict = sub.add_parser(
        "verdict",
        help="run the verdict engine: every trace rule, earliest witness",
        description="Run every registered trace rule over one run's trace "
                    "in a single pass and print the structured verdict: "
                    "PASS, or FAIL with the earliest violating event index "
                    "per violated rule under stable VS-*/MBRSHP-* codes. "
                    "Output JSON is canonical (key-sorted, time-free): two "
                    "runs over the same trace are byte-identical.",
    )
    verdict.add_argument("--scenario", default=None,
                         help="audit a named scenario run (the E21 scripts)")
    verdict.add_argument("--plan", default=None, metavar="FILE",
                         help="audit a saved chaos plan (JSON from a finding)")
    verdict.add_argument("--seed", type=int, default=None,
                         help="audit the chaos episode generated from a seed")
    verdict.add_argument("--backend", default="sim", choices=["sim", "async", "tcp"])
    verdict.add_argument("--intensity", type=float, default=1.0,
                         help="fault-rate multiplier for --seed (default 1.0)")
    verdict.add_argument("--mutate", default=None, metavar="CODE",
                         help="apply the registered forgery for a violation "
                              "code before checking (negative self-test)")
    verdict.add_argument("--golden", default=None, metavar="FILE",
                         help="assert the run against a recorded skeleton")
    verdict.add_argument("--record-golden", default=None, metavar="FILE",
                         help="record this run's trace skeleton to FILE")
    verdict.add_argument("--shrink", action="store_true",
                         help="on a failing plan/seed source, shrink to a "
                              "minimal schedule preserving code and witness")
    verdict.add_argument("--codes", action="store_true",
                         help="print the violation-code registry and exit")
    verdict.add_argument("--output", default=None, metavar="FILE",
                         help="also write the verdict JSON to FILE (CI artifact)")

    from repro.analysis.cli import LINT_DESCRIPTION, add_lint_arguments

    lint = sub.add_parser(
        "lint",
        help="statically verify automaton definitions (R1-R6, SUP)",
        description=LINT_DESCRIPTION,
    )
    add_lint_arguments(lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "experiments": _cmd_experiments,
        "simulate": _cmd_simulate,
        "chaos": _cmd_chaos,
        "soak": _cmd_soak,
        "scale": _cmd_scale,
        "verdict": _cmd_verdict,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
