"""Source hygiene of the ``pkt`` package, read with ``ast``: no relative
import that its module never uses, no private function that no code of
the package calls (code that only tests use belongs in the tests), and
no module-level constant that no code of the package reads."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pkt"
SOURCES = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
TREES = {name: ast.parse(text) for name, text in SOURCES.items()}


def read_names(tree):
    """Names a module reads as bare names or lists in ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("module", list(SOURCES))
def test_every_relative_import_is_used(module):
    lines = SOURCES[module].splitlines()
    used = read_names(TREES[module])
    unused = []
    for node in ast.walk(TREES[module]):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        unused += [alias.asname or alias.name for alias in node.names if (alias.asname or alias.name) not in used]
    assert unused == []


def test_every_private_function_has_a_caller():
    referenced = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    uncalled = [f"{module}.{node.name}"
                for module, tree in TREES.items() for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_") and not node.name.startswith("__")
                and node.name not in referenced]
    assert uncalled == []


def test_every_module_constant_is_read():
    read = set()
    for tree in TREES.values():
        read |= read_names(tree) | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    constants = [(module, target.id) for module, tree in TREES.items() for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(target, ast.Name) and target.id.isupper()]
    assert constants
    assert [f"{module}.{name}" for module, name in constants if name not in read] == []


def test_every_default_of_a_private_function_is_set_by_some_call():
    # A keyword argument sets its parameter, and so does a positional one
    # at the parameter's place or a ``*args`` before it; a ``*args`` never
    # sets a keyword-only parameter.
    calls = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)

    def is_set(call, name, place):
        if any(keyword.arg == name for keyword in call.keywords):
            return True
        if place is None:
            return False
        return len(call.args) > place or any(isinstance(arg, ast.Starred) for arg in call.args[: place + 1])

    never_set = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")):
                continue
            positional = node.args.posonlyargs + node.args.args
            defaulted = [(arg.arg, place) for place, arg in enumerate(positional)
                         if place >= len(positional) - len(node.args.defaults)]
            defaulted += [(arg.arg, None) for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                          if default is not None]
            never_set += [f"{module}.{node.name}({name}=)" for name, place in defaulted
                          if not any(is_set(call, name, place) for call in calls.get(node.name, []))]
    assert never_set == []
