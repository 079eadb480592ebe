"""Command-line front end: run campaigns, compare strategies, enumerate, replay.

A JSON config file mirrors the command's flags, with values of their JSON
types; its values become defaults, so explicit flags win.  Benchmark
parameters travel as dotted keys (micro.m=2, raft.procs=5, ...), via repeated
--param flags or a "params" object in the config file.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .benchmarks import BENCHMARKS, make_benchmark
from .coverage import NOTIONS, EnumerationExplosion, enumerate_orderings
from .fuzzer import CampaignConfig, fuzz_campaign
from .harness import EV_CRASH, EV_DELIVER, EV_RESTART, execute_schedule
from .model import StateExplosion, bfs_reachable
from .schedule import parse_schedule, serialize_schedule
from .stats import CompareConfig, compare_strategies


def _path(text: str) -> Path:
    """The type of every path flag: an empty path would name the current directory."""
    if not text:
        raise argparse.ArgumentTypeError("needs a non-empty path")
    return Path(text)


# The JSON types a config value may have, by the argparse type of its flag.
_JSON_TYPES = {int: (int,), float: (int, float), None: (str,), _path: (str,)}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = _peek_config(argv)
        params = cfg.pop("params", {})
        args = build_parser(cfg).parse_args(argv)
        if args.unknown_config:
            raise ValueError(f"config keys {args.unknown_config} name no {args.command} flag")
        args.param = [f"{k}={v}" for k, v in params.items()] + args.param
        return args.func(args)
    except (ValueError, OSError, EnumerationExplosion, StateExplosion) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _peek_config(argv) -> dict:
    """The config file named by --config, read with the parser's own spelling
    rules (``--config PATH`` or ``--config=PATH``); {} without the flag."""
    peek = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    peek.add_argument("--config", type=_path)
    try:
        path = peek.parse_known_args(argv)[0].config
        cfg = json.loads(path.read_text()) if path else {}
    except argparse.ArgumentError as e:  # no path, or an empty one
        raise ValueError(str(e)) from None
    except (json.JSONDecodeError, RecursionError) as e:  # the latter: nested too deeply
        raise ValueError(f"malformed config JSON: {e}") from None
    if not isinstance(cfg, dict) or not isinstance(cfg.get("params", {}), dict):
        raise ValueError("config file and its 'params' must each hold a JSON object")
    return cfg


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints one error: line, not the usage
        raise ValueError(f"{self.prog}: {message}")


def build_parser(cfg: dict) -> argparse.ArgumentParser:
    parser = _Parser(prog="schedfuzz")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--bench", choices=list(BENCHMARKS))
        p.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE", help="benchmark parameter, dotted key")
        p.add_argument("--config", type=_path, help="JSON config file")

    def campaign_flags(p):
        p.add_argument("--budget", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--corpus-size", type=int, default=CampaignConfig.corpus_size)
        p.add_argument("--energy", type=int, default=CampaignConfig.energy_per_item)
        p.add_argument("--no-track-states", action="store_true")
        p.add_argument("--stop-on-bug", metavar="KEYPART")
        p.add_argument("--out", type=_path, required=True)

    p_run = sub.add_parser("run", help="one fuzzing campaign")
    common(p_run)
    p_run.add_argument("--notion", choices=NOTIONS, default="model")
    p_run.add_argument("--budget-seconds", type=float)
    campaign_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="multi-seed strategy comparison")
    common(p_cmp)
    p_cmp.add_argument("--notions", default="model,random",
                       help="comma-separated coverage notions")
    p_cmp.add_argument("--runs", type=int, default=10)
    campaign_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_enum = sub.add_parser("enumerate", help="exhaustive small-instance oracle")
    common(p_enum)
    p_enum.add_argument("--max-depth", type=int, default=12)
    p_enum.add_argument("--dump-states", type=_path, default=None,
                        help="write reachable state fingerprints (hex) here")
    p_enum.set_defaults(func=cmd_enumerate)

    p_rep = sub.add_parser("replay", help="execute one schedule file")
    common(p_rep)
    p_rep.add_argument("--schedule", type=_path, required=True)
    p_rep.add_argument("--json-out", type=_path, default=None)
    p_rep.set_defaults(func=cmd_replay)
    for p in sub.choices.values():
        p.set_defaults(unknown_config=_config_defaults(p, cfg))
    return parser


def _config_defaults(p: argparse.ArgumentParser, cfg: dict) -> list:
    """Make each config value the default of ``p``'s flag of that name and
    return the keys that name none; a value of the wrong JSON type is an error."""
    unknown = []
    for key, value in cfg.items():
        action = p._option_string_actions.get("--" + key)
        if action is None or action.dest in ("help", "config", "param"):
            unknown.append(key)
            continue
        want = (bool,) if action.nargs == 0 else _JSON_TYPES[action.type]
        if type(value) not in want:
            raise ValueError(f"config key {key!r} needs a JSON {want[-1].__name__}, "
                             f"got {json.dumps(value)}")
        try:
            action.default = action.type(value) if action.type else value
        except argparse.ArgumentTypeError as e:
            raise ValueError(f"config key {key!r} {e}") from None
        action.required = False
    return unknown


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


def campaign_settings(args) -> dict:
    """The settings that ``run`` and ``compare`` give each campaign, from
    the flags they share."""
    return dict(budget=args.budget, master_seed=args.seed, corpus_size=args.corpus_size,
                energy_per_item=args.energy, track_states=not args.no_track_states,
                stop_on_bug=args.stop_on_bug)


def cmd_run(args) -> int:
    config = CampaignConfig(benchmark=get_benchmark(args), notion=args.notion,
                            budget_seconds=args.budget_seconds, **campaign_settings(args))
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    result = fuzz_campaign(config)
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
        "repeats": result.repeats,
        "unmatched_actions": result.unmatched_actions,
        "bugs": [rec.key for rec in result.bug_log],
    }, indent=2))
    return 0


def cmd_compare(args) -> int:
    notions = tuple(n.strip() for n in args.notions.split(","))
    config = CompareConfig(benchmark_factory=lambda: get_benchmark(args), notions=notions,
                           runs=args.runs, **campaign_settings(args))
    args.out.mkdir(parents=True, exist_ok=True)
    result = compare_strategies(config)
    for (notion, run), timeline in sorted(result.timelines.items()):
        write_timeline_csv(args.out / f"{notion}_run{run}.csv", timeline)
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
    (args.out / "stats.json").write_text(json.dumps(tables, indent=2))
    print(json.dumps(tables, indent=2))
    return 0


def cmd_enumerate(args) -> int:
    if args.max_depth < 0:
        raise ValueError(f"--max-depth must be >= 0, got {args.max_depth}")
    bench = get_benchmark(args)
    res = enumerate_orderings(bench, max_depth=args.max_depth)
    bfs = bfs_reachable(bench.lts, depth_limit=args.max_depth)
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


def event_to_obj(ev) -> dict:
    """One trace event as ``replay --json-out`` writes it."""
    if ev.kind in (EV_CRASH, EV_RESTART):
        return {"kind": ev.kind, "proc": ev.recv, "step": ev.step}
    obj = {"kind": ev.kind}
    if ev.kind == EV_DELIVER:
        obj["from"] = ev.send
    obj.update(to=ev.recv, verb=ev.verb)
    if ev.fields:
        obj["fields"] = dict(ev.fields)
    obj["step"] = ev.step
    return obj


def export_execution_json(result) -> bytes:
    """The ``replay --json-out`` document of one execution."""
    obj = {
        "events": [event_to_obj(e) for e in result.trace.events],
        "skipped": list(result.trace.skipped),
        "violations": [
            {"kind": v.kind, "description": v.description, "step": v.step}
            for v in result.violations
        ],
        "points": sorted(result.points_hit),
    }
    return json.dumps(obj, separators=(",", ":")).encode()


def cmd_replay(args) -> int:
    bench = get_benchmark(args)
    schedule = parse_schedule(args.schedule.read_bytes())
    bench.check_schedule(schedule)
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
