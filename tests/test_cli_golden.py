"""Seeded CLI runs stay byte-identical to their stored outputs.

Each case runs ``cli.main`` in-process, in an empty working directory,
and compares stdout, stderr, the exit code and every file the command
wrote against ``tests/golden/cli/<case>/``.  A change that is meant to
move an output rewrites the goldens with

    PYTHONPATH=src python tests/test_cli_golden.py

and the diff of ``tests/golden/cli`` shows what moved.

The ``parse_*`` goldens record the alphabet that ``cli.infer_alphabet``
infers today, which wrongly admits task and action names as atoms
(``cheese`` and ``home`` in c2h; ``key``, ``door`` and ``prize`` in
key-door).  The fix that restricts the inferred alphabet to the atoms of
the mission's propositions must rewrite those two files: their
``"alphabet"`` lists are expected to lose those names, and nothing else
in them should move.  The ``compile_*`` cases infer the same alphabet
but do not print it.
"""

import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ppabt.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"
MISSIONS = ROOT / "missions"

# four sweep cells: two rewards for the good cell, two slip probabilities
SWEEP_CONFIG = {"r_other": [-0.04], "r_good": [1.0, 10.0], "r_fire": [-10.0],
                "p_in": [0.6, 0.95]}

CASES = {
    "parse_c2h": ["parse", "--mission", str(MISSIONS / "c2h.mission")],
    "parse_keydoor": ["parse", "--mission", str(MISSIONS / "keydoor.mission")],
    "compile_c2h": ["compile", "--mission", str(MISSIONS / "c2h.mission"),
                    "--dot", "bt.dot"],
    "compile_keydoor": ["compile", "--mission", str(MISSIONS / "keydoor.mission"),
                        "--dot", "bt.dot"],
    "keydoor_both": ["keydoor", "--mode", "both"],
    "keydoor_bt_irreversible": ["keydoor", "--mode", "bt", "--irreversible"],
    "learn": ["learn", "--p-in", "0.95", "--runs", "2"],
    "learn_out": ["learn", "--p-in", "0.95", "--runs", "2", "--out", "learn"],
    "verify_fuzz": ["verify", "--missions", "20"],
    "verify_c2h": ["verify", "--mission", str(MISSIONS / "c2h.mission"),
                   "--alphabet", "Cheese,Fire,Home", "--bound", "4"],
    "verify_keydoor": ["verify", "--mission", str(MISSIONS / "keydoor.mission"),
                       "--alphabet", "NoErr,KeyStacked,IsKeyDoor,VisibleKeyDoor,"
                       "KeyDoorPassive,PrizePassive,PrizeVisible"],
    "sweep": ["sweep", "--trials", "3", "--config", "sweep.json"],
    "infer": ["infer", "--policy", "policy.json", "--trials", "20"],
}

# the policy that the learn_out case stores, read back by the infer case
INPUTS = {"sweep.json": json.dumps(SWEEP_CONFIG),
          "policy.json": (GOLDEN / "learn_out" / "files" / "learn.policy.json").read_text()}


def run_case(argv, workdir: Path) -> dict[str, bytes]:
    """Outputs of one CLI run, keyed by the golden file name."""
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    outputs = {"stdout": out.getvalue().encode(),
               "stderr": err.getvalue().encode(),
               "exit_code": f"{code}\n".encode()}
    for path in sorted(workdir.iterdir()):
        if path.name not in INPUTS:
            outputs["files/" + path.name] = path.read_bytes()
    return outputs


def stored(case: str) -> dict[str, bytes]:
    base = GOLDEN / case
    return {p.relative_to(base).as_posix(): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_case(CASES[case], tmp_path)
    want = stored(case)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"{case}/{name} differs from its golden"


def write_goldens() -> None:
    cwd = os.getcwd()
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                outputs = run_case(argv, Path(tmp))
            finally:
                os.chdir(cwd)
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        for name, data in outputs.items():
            path = target / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        print(f"wrote {target.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    write_goldens()
