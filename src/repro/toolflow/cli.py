"""Command-line interface for the design-space exploration toolflow.

Usage examples::

    python -m repro.toolflow.cli evaluate --distance 3 --capacity 2
    python -m repro.toolflow.cli sweep --distances 3 5 --capacities 2 5 \\
        --topology grid --csv results.csv
    python -m repro.toolflow.cli sweep --distances 3 5 --shots 20000 \\
        --workers 4 --results sweep.jsonl --cache-dir .demcache --progress
    python -m repro.toolflow.cli sweep --distances 3 5 \\
        --decoders mwpm union_find --topologies grid switch \\
        --shots 2000 --target-failures 100 --max-shots 200000
    python -m repro.toolflow.cli sweep --distances 3 5 \\
        --routers greedy layered --topology grid --csv strategies.csv
    python -m repro.toolflow.cli sweep --distances 3 5 --shots 20000 \\
        --backend remote --workers-addr host1:7930,host2:7930 \\
        --results sweep.jsonl
    python -m repro.toolflow.cli project --distances 3 5 \\
        --improvement 5 --shots 8000 --target 1e-9

``evaluate`` runs one design point (optionally with a Monte-Carlo LER
estimate), ``sweep`` runs a grid of design points through the
execution engine (``repro.engine``) — with optional multiprocessing
shot sharding, an on-disk compilation cache, and JSONL resume —
``project`` fits the suppression model and reports the code distance
needed for a target logical error rate.
"""

from __future__ import annotations

import argparse
import csv
import sys

from ..core import available_routers
from ..engine.runner import DEFAULT_SHARD_SHOTS
from ..ler.projection import fit_projection
from .explorer import DesignSpaceExplorer
from .report import format_table

_RECORD_COLUMNS = [
    "code", "d", "cap", "topo", "wiring", "router", "improve",
    "round_us", "move_ops", "electrodes", "dacs", "Gbit/s", "W", "ler_round",
]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--code", default="rotated_surface",
                        choices=["rotated_surface", "unrotated_surface", "repetition"])
    parser.add_argument("--topology", default="grid",
                        choices=["grid", "linear", "switch"])
    parser.add_argument("--wiring", default="standard",
                        choices=["standard", "wise"])
    parser.add_argument("--router", default="greedy",
                        choices=list(available_routers()),
                        help="routing strategy (see repro.core.routing_base)")
    parser.add_argument("--improvement", type=float, default=1.0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--shots", type=int, default=0,
                        help="Monte-Carlo shots for LER (0 = skip)")
    parser.add_argument("--decoder", default="mwpm",
                        choices=["mwpm", "union_find"])
    parser.add_argument("--seed", type=int, default=2026)


def _evaluate_records(args, distances, capacities):
    explorer = DesignSpaceExplorer(code_name=args.code, seed=args.seed)
    records = []
    for d in distances:
        for cap in capacities:
            records.append(
                explorer.evaluate(
                    d,
                    capacity=cap,
                    topology=args.topology,
                    wiring=args.wiring,
                    gate_improvement=args.improvement,
                    rounds=args.rounds,
                    shots=args.shots,
                    decoder=args.decoder,
                    router=args.router,
                )
            )
    return records


def _print_records(records, csv_path=None, out=None):
    out = out if out is not None else sys.stdout
    rows = [[rec.as_row()[col] for col in _RECORD_COLUMNS] for rec in records]
    print(format_table(_RECORD_COLUMNS, rows), file=out)
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_RECORD_COLUMNS)
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {csv_path}", file=out)


def cmd_evaluate(args) -> int:
    records = _evaluate_records(args, [args.distance], [args.capacity])
    _print_records(records, args.csv)
    return 0


def cmd_sweep(args) -> int:
    """Grid sweep driven by the execution engine (repro.engine).

    Unlike ``evaluate``, this compiles each unique circuit once, can
    shard Monte-Carlo shots over worker processes, and can resume an
    interrupted sweep from a JSON-lines result store.  Every grid axis
    accepts multiple values: the plural flags (``--topologies``,
    ``--wirings``, ``--improvements``, ``--decoders``) default to their
    singular counterparts, and the sweep expands the full
    cross-product.

    ``--backend remote --workers-addr host:port,...`` fans the shot
    shards out to ``repro-worker`` processes over TCP; a worker lost
    mid-sweep is recovered (its shards rerun on survivors with their
    original seeds), and with ``--results`` every completed shard is
    checkpointed so even a killed driver resumes mid-job.

    Observability: ``--trace out.json`` records a Chrome
    ``trace_event`` file (load in https://ui.perfetto.dev — one lane
    per worker), ``--telemetry-jsonl`` dumps every metric and span as
    JSON lines, and ``--status [SECS]`` prints a live per-phase /
    per-worker status line while the sweep runs.  All three enable
    telemetry; sampled failure counts are bit-identical either way.
    """
    from .. import telemetry
    from ..engine import SweepSpec

    backend = None
    if args.backend == "remote" or (
        args.backend == "auto" and args.workers_addr
    ):
        from ..engine.remote import RemoteBackend

        if not args.workers_addr:
            print("--backend remote requires --workers-addr host:port[,...]",
                  file=sys.stderr)
            return 2
        backend = RemoteBackend(args.workers_addr, elastic=args.elastic)
    elif args.backend == "serial":
        from ..engine import SerialBackend

        backend = SerialBackend()
    elif args.backend == "multiprocess" or (
        args.backend == "auto" and args.workers > 1
    ):
        from ..engine import MultiprocessBackend

        # An explicit worker count is honoured exactly (even 1); only
        # the unset default (0) falls back to cpu_count.
        backend = MultiprocessBackend(
            args.workers if args.workers >= 1 else None
        )

    spec = SweepSpec(
        code=args.code,
        distances=tuple(args.distances),
        capacities=tuple(args.capacities),
        topologies=tuple(args.topologies or [args.topology]),
        wirings=tuple(args.wirings or [args.wiring]),
        routers=tuple(args.routers or [args.router]),
        gate_improvements=tuple(args.improvements or [args.improvement]),
        decoders=tuple(args.decoders or [args.decoder]),
        rounds=args.rounds,
        shots=args.shots,
        master_seed=args.seed,
        target_failures=args.target_failures,
        max_shots=args.max_shots,
        target_rel_stderr=args.target_rel_stderr,
    )
    telemetry_on = bool(
        args.trace or args.telemetry_jsonl or args.status is not None
    )
    if telemetry_on:
        telemetry.configure(enabled=True, trace=bool(args.trace))
    explorer = DesignSpaceExplorer(code_name=args.code, seed=args.seed)
    options = dict(
        workers=args.workers,
        cache_dir=args.cache_dir,
        cache_max_mb=args.cache_max_mb,
        results_path=args.results,
        shard_shots=args.shard_shots,
        # --status implies progress: the live view needs a reporter.
        progress=args.progress or args.status is not None,
        checkpoint_shards=not args.no_shard_checkpoints,
        status_interval=args.status,
        steal=not args.no_steal,
    )
    if backend is not None:
        # CLI-constructed backends are CLI-owned: close (or, on error,
        # terminate) them here rather than inside the runner.
        with backend:
            records = explorer.sweep(spec, backend=backend, **options)
    else:
        records = explorer.sweep(spec, **options)
    if args.trace:
        events = telemetry.write_chrome_trace(args.trace, telemetry.get())
        print(f"wrote {events} trace event(s) to {args.trace}", file=sys.stderr)
    if args.telemetry_jsonl:
        lines = telemetry.get().export_jsonl(args.telemetry_jsonl)
        print(f"wrote {lines} telemetry line(s) to {args.telemetry_jsonl}",
              file=sys.stderr)
    _print_records(records, args.csv)
    return 0


def cmd_project(args) -> int:
    if args.shots <= 0:
        print("project requires --shots > 0", file=sys.stderr)
        return 2
    records = _evaluate_records(args, args.distances, [args.capacity])
    points = [(r.distance, r.ler_per_round) for r in records]
    projection = fit_projection(points)
    _print_records(records, args.csv)
    print(f"Lambda = {projection.lam:.3f} "
          f"({'below' if projection.below_threshold else 'above'} threshold)")
    d = projection.distance_for(args.target)
    if d is None:
        print(f"target {args.target:g} unreachable (above threshold)")
    else:
        print(f"distance for {args.target:g}: d = {d} "
              f"(projected p_L = {projection.ler_at(d):.2e})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.toolflow",
        description="QCCD surface-code design-space exploration (Figure 2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="one design point")
    p_eval.add_argument("--distance", type=int, required=True)
    p_eval.add_argument("--capacity", type=int, default=2)
    p_eval.add_argument("--csv", default=None)
    _add_common(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser(
        "sweep", help="grid of design points (engine-backed; shardable, resumable)"
    )
    p_sweep.add_argument("--distances", type=int, nargs="+", required=True)
    p_sweep.add_argument("--capacities", type=int, nargs="+", default=[2])
    # Plural grid axes: each defaults to its singular flag, so
    # "--decoder mwpm" and "--decoders mwpm union_find" both work and
    # the sweep always expands the full cross-product.
    p_sweep.add_argument("--topologies", nargs="+", default=None,
                         choices=["grid", "linear", "switch"],
                         help="topology grid axis (default: --topology)")
    p_sweep.add_argument("--wirings", nargs="+", default=None,
                         choices=["standard", "wise"],
                         help="wiring grid axis (default: --wiring)")
    p_sweep.add_argument("--routers", nargs="+", default=None,
                         choices=list(available_routers()),
                         help="routing-strategy grid axis (default: --router)")
    p_sweep.add_argument("--improvements", type=float, nargs="+", default=None,
                         help="gate-improvement grid axis (default: --improvement)")
    p_sweep.add_argument("--decoders", nargs="+", default=None,
                         choices=["mwpm", "union_find"],
                         help="decoder grid axis (default: --decoder)")
    p_sweep.add_argument("--target-failures", type=int, default=None,
                         help="adaptive mode: stop sampling a design point "
                              "once it shows this many failures (--shots "
                              "becomes the initial tranche)")
    p_sweep.add_argument("--target-rel-stderr", type=float, default=None,
                         help="adaptive mode: retire a design point once "
                              "stderr/ler falls below this bound (may be "
                              "combined with --target-failures)")
    p_sweep.add_argument("--max-shots", type=int, default=None,
                         help="adaptive mode: per-point shot budget "
                              "(default: 100x --shots)")
    p_sweep.add_argument("--csv", default=None)
    p_sweep.add_argument("--backend", default="auto",
                         choices=["auto", "serial", "multiprocess", "remote"],
                         help="execution backend (auto = serial, or "
                              "multiprocess when --workers > 1, or remote "
                              "when --workers-addr is given)")
    p_sweep.add_argument("--workers-addr", default=None,
                         metavar="HOST:PORT[,HOST:PORT...]",
                         help="repro-worker addresses for the remote "
                              "backend; a worker lost mid-sweep is "
                              "recovered on the survivors")
    p_sweep.add_argument("--elastic", action="store_true",
                         help="remote backend: treat --workers-addr as an "
                              "elastic membership roster — tolerate "
                              "unreachable workers at start (any one "
                              "suffices) and rescan mid-sweep so "
                              "serve-forever workers can join a running "
                              "sweep")
    p_sweep.add_argument("--no-steal", action="store_true",
                         help="disable driver-side work stealing (by "
                              "default a fixed-shot job's straggling tail "
                              "shards are re-sharded across idle workers; "
                              "failure counts are bit-identical "
                              "either way)")
    p_sweep.add_argument("--no-shard-checkpoints", action="store_true",
                         help="with --results: skip per-shard checkpoint "
                              "records (interrupted jobs then restart "
                              "instead of resuming mid-job)")
    p_sweep.add_argument("--workers", type=int, default=0,
                         help="worker processes for shot sharding (0/1 = serial)")
    p_sweep.add_argument("--shard-shots", type=int, default=DEFAULT_SHARD_SHOTS,
                         help="shots per shard (fixed; determines RNG streams)")
    p_sweep.add_argument("--results", default=None, metavar="PATH",
                         help="JSONL result store; completed jobs are "
                              "skipped on re-run")
    p_sweep.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="on-disk DEM cache shared across runs")
    p_sweep.add_argument("--cache-max-mb", type=float, default=None,
                         metavar="MB",
                         help="size bound for --cache-dir; least-recently-"
                              "used entries are evicted past it")
    p_sweep.add_argument("--trace", default=None, metavar="PATH",
                         help="enable telemetry and write a Chrome "
                              "trace_event JSON file (Perfetto-loadable, "
                              "one lane per worker)")
    p_sweep.add_argument("--telemetry-jsonl", default=None, metavar="PATH",
                         help="enable telemetry and dump every metric / "
                              "phase aggregate / span as JSON lines")
    p_sweep.add_argument("--status", type=float, nargs="?", const=5.0,
                         default=None, metavar="SECS",
                         help="enable telemetry and print a live status "
                              "line (per-phase time share, memo hit rate, "
                              "worker utilisation) every SECS seconds "
                              "(default 5); implies --progress")
    p_sweep.add_argument("--progress", action="store_true",
                         help="per-job progress lines on stderr, plus an "
                              "end-of-sweep summary with compilation-cache "
                              "and syndrome-memo (dedupe) statistics")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_proj = sub.add_parser("project", help="fit and extrapolate LER")
    p_proj.add_argument("--distances", type=int, nargs="+", required=True)
    p_proj.add_argument("--capacity", type=int, default=2)
    p_proj.add_argument("--target", type=float, default=1e-9)
    p_proj.add_argument("--csv", default=None)
    _add_common(p_proj)
    p_proj.set_defaults(func=cmd_project)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
