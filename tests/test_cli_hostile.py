"""Seeded hostile input for the CLI.

A small grammar builds argv and input files for every subcommand: JSON
of the wrong type, empty files, non-UTF-8 bytes, a directory where a
file belongs, missions nested at ``MAX_NESTING`` ± 1, zero and negative
counts and trace lengths, out-of-range and non-finite numbers, NaN and Infinity policy
rows, atoms outside the alphabet, and a ``verify`` alphabet of 24 names, past
``verify.MAX_WORK`` before any valuation is built.  Legal draws sit among them: a
full valid policy for ``infer`` and a sweep config of known keys only,
so that every subcommand reaches success as well as a typed error.
Each case runs ``cli.main`` in-process.  No exception may escape, the
exit code must be 0, 1 or 2, exit 1 must come with exactly one
``error:`` line, and each subcommand must exit both 0 and 1 somewhere
in the run.  A generated sweep crosses one cell at most, of at most
three trials, and a generated ``learn`` does one run per ``p_in`` of at
most two episodes and two inference trials.
"""

import contextlib
import io
import json
import random
from collections import defaultdict

from ppabt.cli import SWEEP_AXES, main
from ppabt.ltlf import MAX_NESTING
from ppabt.planners import PHASES

SEED = 0
N_CASES = 500

# JSON values of every type, most of them wrong wherever they are put
JUNK = [None, True, False, 0, -1, 3, 0.5, -2.5, "x", "3", "", [], [1], ["a"],
        [True], [None], {}, {"a": 1}, [[0.5]]]
COUNTS = ["-1", "0", "1", "2"]
PROBABILITIES = ["-0.5", "0", "0.95", "1", "1.5", "nan", "inf"]
NAN, INF = float("nan"), float("inf")
DEPTHS = [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1]
COMMANDS = ["parse", "compile", "verify", "infer", "sweep", "learn", "keydoor"]
# 2**24 valuations: verify refuses it at the first layer
WIDE_ALPHABET = ",".join(["a", "b", "Cheese", "Fire", "Home", "Unicorn", "Zebra",
                          *(f"x{i}" for i in range(17))])


def nested_mission(rng) -> str:
    n = rng.choice(DEPTHS)
    return rng.choice([
        "F (" * n + "task(t, post=a)" + ")" * n,
        "task(t, post=" + "(" * n + "a" + ")" * n + ")",
        "task(t, post=" + "!" * n + "a)",
    ])


def mission_text(rng) -> str:
    return rng.choice([
        nested_mission(rng),
        "task(t, post=Zebra, gc=!Fire)",
        "U (F task(a, post=Cheese)) (F task(b, post=Home, pre=Unicorn))",
        "task(t, post=a, gc=!b)",
        "task(t, post=__action_t)",
        "F (task(t, post=a)",
        "| task(a, post=a)",
    ])


def policy_data(rng):
    row = rng.choice([[0.25] * 4, [1, 0, 0, 0], [-1, 2, 0, 0], [0.5], "x", 5, [], None,
                      [NAN] * 4, [INF, 0, 0, 0], [INF, -INF, 1, 0], [0.5, 0.5, NAN, 0]])
    return rng.choice([
        rng.choice(JUNK),
        {"tables": rng.choice(JUNK)},
        {"tables": {"C": {"1,1": row}, "H": {}}},
        {"tables": {"C": {}, "H": {rng.choice(["0,0", "9,9", "x", ""]): row}}},
        {"tables": {"C": {}, "H": {}, "X": {}}},
    ])


def legal_policy_data(rng):
    """A valid policy: a move distribution for every cell of the default
    4x4 grid, in every phase."""
    rows = [[0.25] * 4, [1, 0, 0, 0], [0.1, 0.2, 0.3, 0.4]]
    return {"tables": {phase: {f"{j},{k}": rng.choice(rows)
                               for j in range(1, 5) for k in range(1, 5)}
                       for phase in PHASES}}


def legal_sweep_data(rng):
    """A config of one cell of legal values, with known keys only."""
    data = {"r_other": [rng.choice([-0.04, -1.0])], "r_good": [rng.choice([1.0, 5.0])],
            "r_fire": [rng.choice([-1.0, -10.0])], "p_in": [rng.choice([0.4, 0.8, 1.0])]}
    if rng.random() < 0.5:
        data["gamma"] = rng.choice([0.5, 0.9])
    if rng.random() < 0.5:
        data["n_trials"] = rng.choice([0, 1, 3])
    return data


def sweep_data(rng):
    """A config of at most one cell: every axis is a one-value list or junk."""
    data = {axis: rng.choice([[-0.04], [1.0], [-1.0], [0.9], [1.5], [-0.1]])
            for axis in SWEEP_AXES}
    for key in rng.sample([*SWEEP_AXES, "gamma", "n_trials", "seed", "foo"], 2):
        data[key] = rng.choice([*JUNK, 0.9, 1, 0])
    return data


def write_input(rng, path, content) -> str:
    """Write ``content`` (text, bytes or JSON data) to ``path``, or make
    ``path`` a directory, an empty file, a non-UTF-8 file or nothing."""
    kind = rng.choice(["content"] * 5 + ["empty", "bytes", "dir", "missing"])
    if kind == "content":
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif isinstance(content, str):
            path.write_text(content)
        else:
            path.write_text(json.dumps(content))
    elif kind == "empty":
        path.write_text("")
    elif kind == "bytes":
        path.write_bytes(b"\xff\xfe task(t, post=\x80a)")
    elif kind == "dir":
        path.mkdir()
    return str(path)


def build_case(rng, tmp_path, i: int) -> list[str]:
    command = rng.choice(COMMANDS)
    legal = rng.random() < 0.3
    argv = [command]
    if command in ("parse", "compile", "verify") and rng.random() < 0.8:
        argv += ["--mission", write_input(rng, tmp_path / f"m{i}.mission",
                                          mission_text(rng))]
    if command in ("parse", "compile", "verify") and rng.random() < 0.4:
        argv += ["--alphabet", rng.choice(["", ",", "a", "a,b,t", "Cheese,Fire,Home",
                                           WIDE_ALPHABET])]
    if command == "compile":
        argv += ["--theta", rng.choice(COUNTS)]
        if rng.random() < 0.5:
            argv += ["--dot", str(tmp_path / f"bt{i}.dot")]
    elif command == "verify":
        argv += ["--bound", rng.choice(["-3", *COUNTS[:3]]), "--theta", rng.choice(COUNTS)]
        if "--mission" not in argv:
            argv += ["--missions", rng.choice(COUNTS)]
    elif command == "infer" and legal:
        path = tmp_path / f"p{i}.json"
        path.write_text(json.dumps(legal_policy_data(rng)))
        argv += ["--policy", str(path), "--p-in", rng.choice(["0", "0.6", "0.95", "1"]),
                 "--trials", rng.choice(["0", "1", "2"]),
                 "--max-trace", rng.choice(["1", "50"])]
    elif command == "infer":
        argv += ["--policy", write_input(rng, tmp_path / f"p{i}.json", policy_data(rng)),
                 "--p-in", rng.choice(PROBABILITIES), "--trials", rng.choice(COUNTS[:3]),
                 "--max-trace", rng.choice(["-4", "-1", "0", "1", "50"])]
    elif command == "sweep":
        if legal:
            data = legal_sweep_data(rng)
            path = tmp_path / f"s{i}.json"
            path.write_text(json.dumps(data))
            argv += ["--config", str(path)]
            trials = ["0", "1", "3"]
        else:
            data = sweep_data(rng)
            argv += ["--config", write_input(rng, tmp_path / f"s{i}.json", data)]
            trials = ["-1", "0", "1"]
        if "n_trials" not in data or rng.random() < 0.5:
            argv += ["--trials", rng.choice(trials)]
        if rng.random() < 0.3:
            argv += ["--max-trace", rng.choice(["1", "50"] if legal else ["-1", "0", "1"])]
    elif command == "learn":
        argv += ["--p-in", rng.choice([*PROBABILITIES, "0.6,0.95", "0.95,", "x"]),
                 "--runs", rng.choice(COUNTS[:3]), "--episodes", rng.choice(COUNTS),
                 "--trials", rng.choice(COUNTS)]
        if rng.random() < 0.5:
            argv += ["--max-trace", rng.choice(["-4", "-1", "0", "1", "50"])]
        if rng.random() < 0.5:
            argv += ["--discount", rng.choice(["-1", "0", "0.9", "1", "1.5", "nan"])]
        if rng.random() < 0.5:
            argv += ["--start", *rng.choice([["4", "1"], ["0", "0"], ["9", "9"],
                                             ["4", "2"], ["x", "1"], ["4"]])]
    elif command == "keydoor":
        argv += ["--mode", rng.choice(["both", "baseline", "bt", "x"]),
                 "--theta", rng.choice(COUNTS)]
        if rng.random() < 0.5:
            argv.append("--irreversible")
    if rng.random() < 0.5:
        argv += ["--out", str(tmp_path / f"out{i}")]
    if rng.random() < 0.05:
        argv += ["--seed", rng.choice(["x", "-3"])]
    return argv


def run_case(argv) -> tuple[object, str]:
    """Exit code (or the escaped exception) and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - the test reports what escaped
            code = exc
    return code, err.getvalue()


def test_hostile_cli_input_exits_cleanly(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(SEED)
    faults, codes, refusals = [], defaultdict(set), 0
    for i in range(N_CASES):
        argv = build_case(rng, tmp_path, i)
        code, err = run_case(argv)
        codes[argv[0]].add(code)
        error_lines = [line for line in err.splitlines() if line.startswith("error:")]
        if code not in (0, 1, 2):
            faults.append((argv, repr(code)))
        elif code == 1 and len(error_lines) != 1:
            faults.append((argv, err))
        refusals += "tree ticks and audited states" in err
    assert not faults, "\n".join(f"{argv}: {what}" for argv, what in faults)
    # the grammar reaches both outcomes of every subcommand
    one_sided = [command for command in COMMANDS if not codes[command] >= {0, 1}]
    assert not one_sided, dict(codes)
    assert refusals
