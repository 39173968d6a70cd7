"""The reachability gate's allow-list cannot go stale unnoticed.

``benchmarks/reachability.py`` profiles every entry point (~100 s) and
fails on unreached code missing from its allow-list, on entries that
name reached or missing code, and on files under ``src/`` edited while
it ran.  This checks the list itself in a fraction
of a second: every entry resolves by AST to a ``def`` or class under
``src/repro``, gives a reason of a known kind, and a ``path`` reason
names a test that exists.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "reachability", ROOT / "benchmarks" / "reachability.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


gate = _load_gate()


def _qualnames(path: Path) -> dict[str, type]:
    """Qualname -> AST node type for every ``def`` and class in ``path``."""
    out: dict[str, type] = {}

    def walk(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                out[prefix + child.name] = type(child)
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


@pytest.mark.parametrize(
    "entry", gate.ALLOWED, ids=[f"{f}:{q}" for f, q, _ in gate.ALLOWED]
)
def test_entry_resolves_and_gives_a_reason(entry):
    file, qualname, reason = entry
    path = SRC / file
    assert path.is_file(), f"src/repro/{file} does not exist"
    names = _qualnames(path)
    if qualname.endswith("."):
        assert qualname[:-1] in names, f"no class or def {qualname[:-1]}"
    else:
        assert names.get(qualname) in (
            ast.FunctionDef,
            ast.AsyncFunctionDef,
        ), f"no def {qualname} in src/repro/{file}"
    kind, sep, why = reason.partition(": ")
    assert sep and why.strip(), f"{qualname}: empty reason"
    assert kind in gate.KINDS, f"{qualname}: unknown kind {kind!r}"
    if kind == "path":
        test_id = reason.rsplit("reached by ", 1)[-1]
        test_file, *parts = test_id.split("::")
        assert parts, f"{qualname}: a path reason names the test reaching it"
        text = (ROOT / test_file).read_text(encoding="utf-8")
        assert f"def {parts[-1]}(" in text, f"{test_id} does not exist"


def test_entries_are_unique():
    keys = [(f, q) for f, q, _ in gate.ALLOWED]
    assert len(keys) == len(set(keys))


def test_gate_flags_unlisted_and_stale_code():
    file, qualname, _ = gate.ALLOWED[0]
    unreached = {file: [qualname, "not_on_the_list"]}
    missing, stale = gate.check_allowed(unreached, {})
    assert missing == [(file, "not_on_the_list")]
    assert (file, qualname) not in stale
    # the same entry, once its def is reached, is stale
    missing, stale = gate.check_allowed({}, {file: [qualname]})
    assert missing == [] and (file, qualname) in stale


def test_class_prefix_goes_stale_once_any_method_is_reached():
    (file, prefix), = [
        (f, q) for f, q, _ in gate.ALLOWED if q == "ComputingElement."
    ]
    unreached = {file: [prefix + "enqueue"]}
    assert (file, prefix) not in gate.check_allowed(unreached, {})[1]
    reached = {file: [prefix + "cancel"]}
    assert (file, prefix) in gate.check_allowed(unreached, reached)[1]


def test_files_edited_during_the_run_are_named(tmp_path):
    (tmp_path / "a.py").write_text("def f():\n    pass\n")
    (tmp_path / "b.py").write_text("x = 1\n")
    tree = gate.read_tree(tmp_path)
    assert [rec[0] for rec in gate.defs_in(tree[tmp_path / "a.py"][1])] == ["f"]
    assert gate.changed_since(tree, tmp_path) == []
    (tmp_path / "a.py").write_text("\ndef f():\n    pass\n")
    (tmp_path / "b.py").unlink()
    (tmp_path / "c.py").write_text("")
    assert gate.changed_since(tree, tmp_path) == [
        tmp_path / name for name in ("a.py", "b.py", "c.py")
    ]
