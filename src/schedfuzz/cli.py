"""Command-line front end: run campaigns, compare strategies, enumerate, replay.

A JSON config file mirrors the flags (its values become defaults, so
explicit flags win).  Benchmark parameters travel as dotted keys
(micro.m=2, raft.procs=5, ...), via repeated --param flags or a "params"
object in the config file.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .benchmarks import BENCHMARKS, make_benchmark
from .coverage import NOTIONS, enumerate_orderings
from .fuzzer import CampaignConfig, fuzz_campaign
from .harness import execute_schedule, export_execution_json
from .model import bfs_reachable
from .schedule import parse_schedule, serialize_schedule
from .stats import CompareConfig, compare_strategies


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = _peek_config(argv)
        parser = build_parser(cfg)
        args = parser.parse_args(argv)
        args.param = [f"{k}={v}" for k, v in cfg.get("params", {}).items()] + args.param
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _peek_config(argv) -> dict:
    if "--config" in argv:
        i = argv.index("--config") + 1
        if i == len(argv):
            raise ValueError("--config needs a file path")
        path = Path(argv[i])
        cfg = json.loads(path.read_text())
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
        return cfg
    return {}


def build_parser(cfg: dict | None = None) -> argparse.ArgumentParser:
    cfg = cfg or {}
    parser = argparse.ArgumentParser(prog="schedfuzz")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--bench", choices=list(BENCHMARKS),
                       default=cfg.get("bench"))
        p.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE", help="benchmark parameter, dotted key")
        p.add_argument("--config", type=Path, help="JSON config file")

    def campaign_flags(p):
        p.add_argument("--budget", type=int, default=cfg.get("budget", 1000))
        p.add_argument("--seed", type=int, default=cfg.get("seed", 0))
        p.add_argument("--corpus-size", type=int, default=cfg.get("corpus-size", 20))
        p.add_argument("--energy", type=int, default=cfg.get("energy", 5))
        p.add_argument("--no-track-states", action="store_true",
                       default=cfg.get("no-track-states", False))
        p.add_argument("--stop-on-bug", metavar="KEYPART",
                       default=cfg.get("stop-on-bug"))
        p.add_argument("--out", type=Path, required="out" not in cfg,
                       default=cfg.get("out") and Path(cfg["out"]))

    p_run = sub.add_parser("run", help="one fuzzing campaign")
    common(p_run)
    p_run.add_argument("--notion", choices=NOTIONS, default=cfg.get("notion", "model"))
    p_run.add_argument("--budget-seconds", type=float,
                       default=cfg.get("budget-seconds"))
    campaign_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="multi-seed strategy comparison")
    common(p_cmp)
    p_cmp.add_argument("--notions", default=cfg.get("notions", "model,random"),
                       help="comma-separated coverage notions")
    p_cmp.add_argument("--runs", type=int, default=cfg.get("runs", 10))
    campaign_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_enum = sub.add_parser("enumerate", help="exhaustive small-instance oracle")
    common(p_enum)
    p_enum.add_argument("--max-depth", type=int, default=cfg.get("max-depth", 12))
    p_enum.add_argument("--dump-states", type=Path, default=None,
                        help="write reachable state fingerprints (hex) here")
    p_enum.set_defaults(func=cmd_enumerate)

    p_rep = sub.add_parser("replay", help="execute one schedule file")
    common(p_rep)
    p_rep.add_argument("--schedule", type=Path, required=True)
    p_rep.add_argument("--json-out", type=Path, default=None)
    p_rep.set_defaults(func=cmd_replay)
    return parser


def parse_params(args) -> dict:
    out = {}
    for item in args.param:
        if "=" not in item:
            raise ValueError(f"--param needs KEY=VALUE, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def get_benchmark(args):
    if not args.bench:
        raise ValueError("--bench is required (flag or config file)")
    return make_benchmark(args.bench, parse_params(args))


def write_timeline_csv(path: Path, timeline) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "total_coverage", "executions", "model_states"])
        w.writerows(timeline)


def cmd_run(args) -> int:
    bench = get_benchmark(args)
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    result = fuzz_campaign(
        CampaignConfig(
            benchmark=bench,
            notion=args.notion,
            budget=args.budget,
            budget_seconds=args.budget_seconds,
            master_seed=args.seed,
            corpus_size=args.corpus_size,
            energy_per_item=args.energy,
            track_states=not args.no_track_states,
            stop_on_bug=args.stop_on_bug,
        )
    )
    write_timeline_csv(out_dir / "coverage.csv", result.timeline)
    corpus_dir = out_dir / "corpus"
    corpus_dir.mkdir(exist_ok=True)
    with (out_dir / "corpus.jsonl").open("w") as fh:
        for entry in result.corpus:
            sched_file = corpus_dir / f"{entry.entry_id}.json"
            sched_file.write_bytes(serialize_schedule(entry.schedule))
            fh.write(json.dumps({
                "entry_id": entry.entry_id,
                "parent": entry.parent,
                "discovered_at": entry.discovered_at,
                "file": str(sched_file),
            }) + "\n")
    bug_dir = out_dir / "bugs"
    with (out_dir / "bugs.jsonl").open("w") as fh:
        for rec in result.bug_log:
            bug_dir.mkdir(exist_ok=True)
            sched_file = bug_dir / f"{rec.first_iteration}.json"
            sched_file.write_bytes(serialize_schedule(rec.schedule))
            fh.write(json.dumps({
                "key": rec.key,
                "first_iteration": rec.first_iteration,
                "schedule_file": str(sched_file),
            }) + "\n")
    print(json.dumps({
        "notion": result.notion,
        "iterations": result.iterations,
        "total_coverage": len(result.total_coverage),
        "model_states": len(result.state_coverage),
        "bugs": [rec.key for rec in result.bug_log],
    }, indent=2))
    return 0


def cmd_compare(args) -> int:
    notions = tuple(n.strip() for n in args.notions.split(",") if n.strip())
    for n in notions:
        if n not in NOTIONS:
            raise ValueError(f"unknown notion {n!r}")
    get_benchmark(args)  # a bad name or parameter fails before any campaign runs
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    result = compare_strategies(
        CompareConfig(
            benchmark_factory=lambda: get_benchmark(args),
            notions=notions,
            runs=args.runs,
            budget=args.budget,
            master_seed=args.seed,
            corpus_size=args.corpus_size,
            energy_per_item=args.energy,
            track_states=not args.no_track_states,
            stop_on_bug=args.stop_on_bug,
        )
    )
    for (notion, run), timeline in sorted(result.timelines.items()):
        write_timeline_csv(out_dir / f"{notion}_run{run}.csv", timeline)
    tables = {
        "notions": list(notions),
        "runs": args.runs,
        "budget": args.budget,
        "final_states": result.final_states,
        "final_coverage": result.final_coverage,
        "first_bug": result.first_bug,
        "find_count": result.find_count,
        "pairwise": {f"{a}|{b}": v for (a, b), v in result.pairwise.items()},
    }
    (out_dir / "stats.json").write_text(json.dumps(tables, indent=2))
    print(json.dumps(tables, indent=2))
    return 0


def cmd_enumerate(args) -> int:
    bench = get_benchmark(args)
    res = enumerate_orderings(bench, max_depth=args.max_depth)
    bfs = bfs_reachable(bench.lts)
    if args.dump_states:
        args.dump_states.write_text(
            "\n".join(sorted(fp.hex() for fp in bfs.fingerprints)) + "\n"
        )
    print(json.dumps({
        "orderings": res.orderings,
        "traceClasses": res.trace_classes,
        "reachableStates": len(bfs.states),
        "violations": sorted(res.violation_keys),
    }, indent=2))
    return 0


def cmd_replay(args) -> int:
    bench = get_benchmark(args)
    schedule = parse_schedule(args.schedule.read_bytes())
    result = execute_schedule(bench.sut, schedule)
    if args.json_out:
        args.json_out.write_bytes(export_execution_json(result))
    print(json.dumps({
        "events": len(result.trace.events),
        "skipped": list(result.trace.skipped),
        "points": sorted(result.points_hit),
        "violations": [v.key for v in result.violations],
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
