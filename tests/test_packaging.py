"""Packaging checks: console scripts resolve, no module imports a name it never uses, no private name is unused, no private default goes unpassed.

The other tests call ``cli.main`` directly, so a stale ``[project.scripts]``
target would otherwise only show up after installing the package.
"""

import ast
import importlib
import math
from pathlib import Path

import pytest

import stepdist

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def test_console_scripts_resolve():
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{name} = {target!r} is not callable"


def test_modules_use_every_name_they_import():
    unused = []
    for path in sorted(Path(stepdist.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({a.asname or a.name.partition(".")[0]: node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: node.lineno for a in node.names})
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))  # a re-export counts as a use
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_private_definitions_are_used():
    defined = []
    used = set()
    for path in sorted(Path(stepdist.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((f"{path.name}:{node.lineno}", name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert [f"{where}: {name}" for where, name in defined if name not in used] == []


def test_private_defaults_are_overridden():
    """Every defaulted parameter of a private function or method is passed by some call in the package.

    A default that no call overrides is a constant under another name. A
    method counts as private when its name or its class's name is, and a
    private class's ``__init__`` is called by the class's name.
    """
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    functions = []  # (where, call name, leading parameters a call does not pass, definition)
    calls = []
    for path in sorted(Path(stepdist.__file__).parent.glob("*.py")):
        methods = set()
        # Breadth first, so a class is seen before its methods.
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef):
                        methods.add(f)
                        name = node.name if f.name == "__init__" else f.name
                        if private(node.name) or private(name):
                            functions.append((f"{path.name}:{f.lineno}", name, 1, f))
            elif isinstance(node, ast.FunctionDef) and node not in methods and private(node.name):
                functions.append((f"{path.name}:{node.lineno}", node.name, 0, node))
            elif isinstance(node, ast.Call):
                calls.append(node)

    def passes(call, position, param):
        if any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > position:
            return True
        return any(k.arg in (None, param) for k in call.keywords)

    never = []
    for where, name, skip, f in functions:
        args = f.args
        positional = [a.arg for a in (*args.posonlyargs, *args.args)]
        defaulted = [(i - skip, a) for i, a in enumerate(positional) if i >= len(positional) - len(args.defaults)]
        defaulted += [(math.inf, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        named = [c for c in calls if getattr(c.func, "id", getattr(c.func, "attr", None)) == name]
        never += [f"{where}: {name}({param})" for i, param in defaulted if not any(passes(c, i, param) for c in named)]
    assert never == []
