"""Command-line interface: parse, compile, sweep, learn, infer, verify, keydoor.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a
verification check finds a soundness violation.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from . import gridworld as gw
from .bt import bt_to_json, export_dot
from .compiler import compile_mission
from .keydoor import run_experiment
from .ltlf import RESERVED_WORDS, LtlfError, format_formula, formula_to_json, tokenize
from .mission import (
    ACTION_PREFIX, MissionConfig, MissionError, TASK_FIELDS, expand_mission,
    parse_mission,
)
from .missions import C2H_TEXT, build_c2h
from .planners import (
    LearnerConfig, Policy, SoundnessViolation, evaluate_policy, learn,
    plan_grid_policies,
)
from .verify import BoundTooLarge, check_mission, fuzz_corpus_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

_KEYWORDS = {"task", "True", "False"} | set(TASK_FIELDS)

# paper-style sweep value sets
SWEEP_DEFAULTS = {
    "r_other": [round(-1.5 + 0.1 * i, 10) for i in range(15)] + [-0.04],
    "r_good": [0.1, 0.5, 1.0, 2.0, 5.0, 10.0],
    "r_fire": [-10.0, -5.0, -2.0, -1.0, -0.5, -0.1],
    "p_in": [round(0.4 + 0.05 * i, 10) for i in range(12)],
    "n_trials": 20,
    "gamma": 0.9,
}
# the value sets a sweep crosses, outermost first
SWEEP_AXES = ("r_other", "r_good", "r_fire", "p_in")


def _is_number(value) -> bool:
    # a bool is an int, but not a number here; nor are NaN, the infinities
    # and ints too large for a float (int-float comparison is exact)
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# what each key of a sweep config must hold
_SWEEP_KEYS = {
    **dict.fromkeys(SWEEP_AXES, ("a non-empty list of finite numbers", lambda v: (
        isinstance(v, list) and v != [] and all(map(_is_number, v))))),
    "gamma": ("a finite number", _is_number),
    "n_trials": ("a non-negative integer", lambda v: type(v) is int and v >= 0),
}


def non_negative_int(text: str) -> int:
    """argparse type of the count options."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type of the trace-length options ``--max-trace`` and ``--bound``."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def infer_alphabet(text: str) -> set[str]:
    """Every identifier in the text is admitted as an atom.

    Over-approximating (task names included) is harmless: the alphabet
    only gates which atoms conditions may mention.
    """
    return {tok.text for tok in tokenize(text)
            if tok.kind == "word" and tok.text not in _KEYWORDS}


def _check_atom_name(name: str) -> None:
    """A declared name that no condition can read as an atom would only
    multiply the streams ``verify`` enumerates."""
    if not (name.isascii() and name.isidentifier()):
        why = "is not a single identifier"
    elif name in {"True", "False"} | RESERVED_WORDS:
        why = "is a constant or a temporal operator"
    elif name.startswith(ACTION_PREFIX):
        why = "is reserved for action tracking"
    else:
        return
    raise MissionError(f"--alphabet name {name!r} {why}, never an atom")


def _load_mission(args):
    text = Path(args.mission).read_text() if args.mission else C2H_TEXT
    if args.alphabet is not None:
        alphabet = {name for name in args.alphabet.split(",") if name}
        for name in sorted(alphabet):
            _check_atom_name(name)
    else:
        alphabet = infer_alphabet(text)
    return parse_mission(text, alphabet), alphabet


def _write_json(data, out: str | None) -> None:
    payload = json.dumps(data, indent=2)
    if out:
        Path(out).write_text(payload + "\n")
    else:
        print(payload)


SWEEP_FIELDS = ["cell", "r_other", "r_good", "r_fire", "p_in", "n_trials",
                "seed", "success_probability", "mean_trace_len"]
LEARN_SUMMARY_FIELDS = ["p_in", "run", "seed", "learning_success",
                        "mean_learning_trace_len", "inference_success",
                        "mean_inference_trace_len"]
LEARN_CURVE_FIELDS = ["p_in", "run", "episode", "status", "trace_len", "seed"]


def _write_csv(rows: list[dict], fieldnames: list[str], out: str | None) -> None:
    with open(out, "w", newline="") if out else nullcontext(sys.stdout) as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def cmd_parse(args) -> int:
    expr, alphabet = _load_mission(args)
    formula = expand_mission(expr)
    _write_json({
        "mission": formula_to_json(expr),
        "alphabet": sorted(alphabet),
        "formula": format_formula(formula),
        "formula_json": formula_to_json(formula),
    }, args.out)
    return EXIT_OK


def cmd_compile(args) -> int:
    expr, _ = _load_mission(args)
    tree = compile_mission(expr, MissionConfig(theta=args.theta))
    if args.dot:
        Path(args.dot).write_text(export_dot(tree) + "\n")
    _write_json(bt_to_json(tree), args.out)
    return EXIT_OK


def _sweep_config(args) -> dict:
    cfg = dict(SWEEP_DEFAULTS)
    if args.config:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise ValueError("a sweep config is a JSON object")
        for key in loaded:
            if key not in _SWEEP_KEYS:
                raise ValueError(f"sweep config: unknown key {key!r}, expected "
                                 f"one of {', '.join(_SWEEP_KEYS)}")
        cfg.update(loaded)
    if args.trials is not None:
        cfg["n_trials"] = args.trials
    for key, (what, ok) in _SWEEP_KEYS.items():
        if not ok(cfg[key]):
            raise ValueError(f"sweep config: {key} must be {what}")
    return cfg


def cmd_sweep(args) -> int:
    cfg = _sweep_config(args)
    rows = []
    # zero trials sweeps no cell: the CSV is the header alone
    cells = (itertools.product(*(cfg[axis] for axis in SWEEP_AXES))
             if cfg["n_trials"] else ())
    for cell_index, (r_other, r_good, r_fire, p_in) in enumerate(cells):
        cell_seed = args.seed * 1_000_003 + cell_index
        grid = gw.GridConfig(p_in=p_in, r_other=r_other, r_good=r_good,
                             r_fire=r_fire, seed=cell_seed)
        policy = plan_grid_policies(grid, gamma=cfg["gamma"])
        result = evaluate_policy(build_c2h(grid), grid, policy, cfg["n_trials"],
                                 randomize_start=False, seed=cell_seed,
                                 max_trace=args.max_trace)
        rows.append({
            "cell": cell_index, "r_other": r_other, "r_good": r_good,
            "r_fire": r_fire, "p_in": p_in, "n_trials": cfg["n_trials"],
            "seed": cell_seed,
            "success_probability": result["success_probability"],
            "mean_trace_len": result["mean_trace_len"],
        })
    _write_csv(rows, SWEEP_FIELDS, args.out)
    return EXIT_OK


def cmd_learn(args) -> int:
    p_ins = [float(x) for x in args.p_in.split(",")]
    curves = []
    summary = []
    policy_out = None
    for p_in in p_ins:
        for run in range(args.runs):
            run_seed = args.seed * 7_919 + run
            grid = gw.GridConfig(p_in=p_in, start_cell=tuple(args.start),
                                 seed=run_seed)
            lcfg = LearnerConfig(episodes=args.episodes,
                                 max_trace=args.max_trace,
                                 mu=args.discount, seed=run_seed)
            expr = build_c2h(grid)
            policy, curve = learn(expr, grid, lcfg)
            if policy_out is None:
                policy_out = policy
            learning_success = (sum(r["status"] == "success" for r in curve)
                                / len(curve)) if curve else 0.0
            infer = evaluate_policy(expr, grid, policy,
                                    n_trials=args.trials,
                                    randomize_start=True,
                                    seed=run_seed + 1,
                                    max_trace=args.max_trace)
            for rec in curve:
                curves.append({"p_in": p_in, "run": run, **rec})
            summary.append({
                "p_in": p_in, "run": run, "seed": run_seed,
                "learning_success": learning_success,
                "mean_learning_trace_len":
                    (sum(r["trace_len"] for r in curve) / len(curve))
                    if curve else 0.0,
                "inference_success": infer["success_probability"],
                "mean_inference_trace_len": infer["mean_trace_len"],
            })
    if args.out:
        _write_csv(curves, LEARN_CURVE_FIELDS, args.out + ".curves.csv")
        _write_csv(summary, LEARN_SUMMARY_FIELDS, args.out + ".summary.csv")
        if policy_out is not None:
            _write_json(policy_out.to_json(), args.out + ".policy.json")
    else:
        _write_csv(summary, LEARN_SUMMARY_FIELDS, None)
    return EXIT_OK


def cmd_infer(args) -> int:
    policy = Policy.from_json(json.loads(Path(args.policy).read_text()))
    grid = gw.GridConfig(p_in=args.p_in_single, seed=args.seed)
    result = evaluate_policy(build_c2h(grid), grid, policy,
                             n_trials=args.trials, randomize_start=True,
                             seed=args.seed, max_trace=args.max_trace)
    _write_json({"p_in": args.p_in_single, "seed": args.seed, **result},
                args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.mission:
        expr, alphabet = _load_mission(args)
        report = check_mission(expr, alphabet, bound=args.bound,
                               theta=args.theta)
        data = report.to_json()
        violations = report.n_violations
        if violations and args.out:
            _write_csv(report.counterexamples_csv_rows(),
                       ["counterexample", "tick", "state"],
                       args.out + ".counterexamples.csv")
    else:
        data = fuzz_corpus_report(args.missions, seed=args.seed,
                                  bound=args.bound)
        violations = data["total_violations"]
    _write_json(data, args.out)
    if violations:
        print(f"verification FAILED: {violations} violating traces",
              file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_keydoor(args) -> int:
    modes = ["baseline", "bt"] if args.mode == "both" else [args.mode]
    reports = {}
    for mode in modes:
        reports[mode] = run_experiment(mode, theta=args.theta,
                                       reversible=not args.irreversible)
    _write_json(reports, args.out)
    for mode, report in reports.items():
        s = report["summary"]
        print(f"{mode}: normal {s['normal_successes']}/{s['normal_trials']}, "
              f"disturbed {s['disturbed_successes']}", file=sys.stderr)
    bad = any(not t.get("sound", True)
              for report in reports.values() for t in report["trials"])
    return EXIT_VIOLATION if bad else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="ppabt")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mission=True, seed_help=None):
        if mission:
            p.add_argument("--mission", help="mission file (default: built-in C2H)")
            p.add_argument("--alphabet", help="comma-separated atoms")
        if seed_help is not None:
            p.add_argument("--seed", type=int, default=0, help=seed_help)
        p.add_argument("--out", help="output path")

    p = sub.add_parser("parse", help="mission file to AST and formula JSON")
    common(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("compile", help="mission file to BT JSON and DOT")
    common(p)
    p.add_argument("--theta", type=non_negative_int, default=1)
    p.add_argument("--dot", help="write Graphviz text here")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("sweep", help="reward/p_in sweep with policy iteration")
    common(p, mission=False, seed_help="base of the per-cell seeds")
    p.add_argument("--config", help="JSON overriding the sweep value sets")
    p.add_argument("--trials", type=non_negative_int, default=None)
    p.add_argument("--max-trace", type=positive_int, default=50)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("learn", help="BT-feedback learning runs plus inference")
    common(p, mission=False, seed_help="base of the per-run seeds")
    p.add_argument("--p-in", default="0.95", help="comma-separated p_in values")
    p.add_argument("--runs", type=non_negative_int, default=50)
    p.add_argument("--episodes", type=non_negative_int, default=200)
    p.add_argument("--trials", type=non_negative_int, default=50,
                   help="inference trials per learned policy")
    p.add_argument("--max-trace", type=positive_int, default=50)
    p.add_argument("--discount", type=float, default=0.9)
    p.add_argument("--start", type=int, nargs=2, default=(4, 1),
                   help="learning start cell (column row)")
    p.set_defaults(fn=cmd_learn)

    p = sub.add_parser("infer", help="evaluate a stored policy")
    common(p, mission=False, seed_help="grid and trial seed")
    p.add_argument("--policy", required=True, help="policy JSON path")
    p.add_argument("--p-in", dest="p_in_single", type=float, default=0.95)
    p.add_argument("--trials", type=non_negative_int, default=50)
    p.add_argument("--max-trace", type=positive_int, default=50)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("verify", help="bounded soundness check")
    p.add_argument("--mission", help="mission file to check (default: a fuzzed corpus)")
    p.add_argument("--alphabet", help="comma-separated atoms; only with --mission")
    common(p, mission=False, seed_help="fuzzed corpus seed; only without --mission")
    p.add_argument("--missions", type=non_negative_int, default=50,
                   help="fuzzed corpus size; only without --mission")
    p.add_argument("--bound", type=positive_int, default=5)
    p.add_argument("--theta", type=non_negative_int, default=1,
                   help="Finally retry budget; only with --mission")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("keydoor", help="scripted key-door trials")
    common(p, mission=False)
    p.add_argument("--mode", choices=["both", "baseline", "bt"], default="both")
    p.add_argument("--theta", type=non_negative_int, default=1)
    p.add_argument("--irreversible", action="store_true")
    p.set_defaults(fn=cmd_keydoor)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LtlfError, MissionError, BoundTooLarge, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SoundnessViolation as err:
        print(f"verification FAILED: {err}", file=sys.stderr)
        for t, state in enumerate(err.trace_states):
            print(f"  tick {t}: {json.dumps(dict(state), sort_keys=True)}",
                  file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
