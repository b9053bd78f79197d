"""The lower layers of ppabt import downwards only, only ``ltlf`` counts
parser nesting, and tree nodes hold no run state.

``ppabt.ltlf`` is the formula layer and imports no other ppabt module.
It owns the parser cursor, and no other module reads or writes a
``depth`` or ``parens`` attribute: the nesting limit is decided in one
place.
The tick engine ``ppabt.bt`` reads formulas through ``ltlf`` alone,
knows nothing of the mission language and imports no ``random``: only
choosers draw, and the run loop calls them.  No ``tick`` method in
``ppabt.bt`` assigns to an attribute of ``self``: a run's memory lives
in its ``MissionRunner``, so one tree serves any number of runs, and
no other module reads or writes a runner's ``latched`` or ``resets``:
the memory's encoding, ``snapshot``, is decided in ``bt`` alone.  The
checks read the source with ``ast``, so an import inside a function
counts as well.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ppabt"


def ppabt_imports(path: Path) -> set[str]:
    """Names of the ppabt modules that the ppabt source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("ppabt."))
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name != "ppabt" and not name.startswith("ppabt."):
                    continue
                name = name.removeprefix("ppabt").lstrip(".")
            if name:
                found.add(name.split(".")[0])
            else:  # from . import x / from ppabt import x
                found.update(alias.name for alias in node.names)
    return found


def test_the_scanner_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\nimport ppabt.a\nfrom ppabt import b\nfrom ppabt.c import x\n"
        "from . import d, e\nfrom .f import y\n\ndef g():\n    from .h import z\n")
    assert ppabt_imports(probe) == {"a", "b", "c", "d", "e", "f", "h"}


@pytest.mark.parametrize("module, allowed", [("ltlf", set()), ("bt", {"ltlf"})])
def test_layer_imports_only_below_it(module, allowed):
    assert ppabt_imports(SRC / f"{module}.py") <= allowed


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of the modules that the source file imports absolutely."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_the_engine_holds_no_random_source(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os.path, json\nfrom random import Random\nfrom . import bt\n\n"
                     "def f():\n    import secrets\n")
    assert absolute_imports(probe) == {"os", "json", "random", "secrets"}
    assert "random" not in absolute_imports(SRC / "bt.py")


NESTING_COUNTS = {"depth", "parens"}


def attribute_uses(path: Path, names: set[str]) -> list[int]:
    """Lines where the file reads, writes or deletes an attribute whose
    name is in ``names``, on any object."""
    return sorted(node.lineno for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr in names)


def test_the_nesting_scan_sees_every_use(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "depth = parens = 0\n"
        "cur.depth = 1\n"
        "cur.parens -= 1\n"
        "x = cur.depth\n"
        "f(a.b.parens)\n"
        "del cur.depth\n"
        "cur.max_depth = cur.depths = depth\n"
        "y = {'depth': 1}\n")
    assert attribute_uses(probe, NESTING_COUNTS) == [2, 3, 4, 5, 6]


def test_only_ltlf_counts_nesting():
    users = {path.stem: lines for path in SRC.glob("*.py")
             if (lines := attribute_uses(path, NESTING_COUNTS))}
    assert set(users) == {"ltlf"}, f"nesting counts used outside ltlf: {users}"


def test_only_bt_touches_a_runners_memory():
    users = {path.stem: lines for path in SRC.glob("*.py")
             if (lines := attribute_uses(path, {"latched", "resets"}))}
    assert set(users) == {"bt"}, f"runner memory touched outside bt: {users}"


def _writes_self(target: ast.expr) -> bool:
    """Whether an assignment target stores into an attribute of ``self``
    (``self.x``, ``self.x.y``, ``self.x[i]``, or one inside a tuple)."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes_self(t) for t in target.elts)
    if isinstance(target, ast.Starred):
        return _writes_self(target.value)
    while isinstance(target, (ast.Attribute, ast.Subscript)):
        if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return True
        target = target.value
    return False


def tick_self_writes(path: Path) -> tuple[int, list[int]]:
    """How many ``tick`` methods the file defines, and the lines where one
    of them assigns to an attribute of ``self``."""
    ticks, lines = 0, []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, ast.FunctionDef) or func.name != "tick":
            continue
        ticks += 1
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            lines.extend(node.lineno for t in targets if _writes_self(t))
    return ticks, lines


def test_the_tick_scan_sees_every_store_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class N:\n"
        "    def tick(self, ctx):\n"
        "        self.a = 1\n"
        "        self.b += 1\n"
        "        x, self.c = 1, 2\n"
        "        self.d[0] = 1\n"
        "        self.e.f: int = 1\n"
        "        ctx.g = self.h\n"
        "        ctx.i[self.j] = 1\n"
        "        return ctx.k\n\n"
        "    def other(self):\n"
        "        self.l = 1\n")
    assert tick_self_writes(probe) == (1, [3, 4, 5, 6, 7])


def test_bt_tick_methods_keep_no_state_on_the_node():
    ticks, lines = tick_self_writes(SRC / "bt.py")
    assert ticks == 6
    assert lines == [], f"tick assigns to self at bt.py lines {lines}"
