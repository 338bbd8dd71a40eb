"""Source hygiene of src/switchpass, in place of a linter: no name is defined
twice by `def` or `class` in one scope (a module or a class body), where the
later definition silently replaces the earlier, and no statement follows a
`return`, `raise`, `continue` or `break` in the same block, where it can never
run. Each finding reads "file:line name"."""

import ast
from collections import Counter
from pathlib import Path

import switchpass

SRC = Path(switchpass.__file__).parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
JUMPS = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def defined_twice(tree: ast.Module, name: str) -> list[str]:
    """Every def or class in a module or class body whose name another one
    in the same body also defines."""
    found = []
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        defs = [n for n in scope.body if isinstance(n, DEFS)]
        counts = Counter(n.name for n in defs)
        found += [f"{name}:{n.lineno} {n.name}" for n in defs if counts[n.name] > 1]
    return found


def unreachable(tree: ast.Module, name: str) -> list[str]:
    """Every statement that follows a return, raise, continue or break in the
    same block."""
    found = []
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for stmt, nxt in zip(block, block[1:]):
                if isinstance(stmt, JUMPS):
                    found.append(f"{name}:{nxt.lineno} unreachable")
    return found


def findings(source: str, name: str) -> list[str]:
    tree = ast.parse(source, name)
    return defined_twice(tree, name) + unreachable(tree, name)


def test_src_has_no_name_defined_twice_and_no_unreachable_statement():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += findings(path.read_text(), path.name)
    assert found == []


def test_the_checks_name_each_fault():
    source = (
        "def f(x):\n"            # 1
        "    return x\n"         # 2
        "    x += 1\n"           # 3
        "class C:\n"             # 4
        "    def g(self):\n"     # 5
        "        pass\n"         # 6
        "    def g(self):\n"     # 7
        "        for i in ():\n"  # 8
        "            break\n"    # 9
        "            i\n"        # 10
        "        raise ValueError\n"  # 11
        "def f(x):\n"            # 12
        "    try:\n"             # 13
        "        pass\n"         # 14
        "    finally:\n"         # 15
        "        return x\n"     # 16
        "        x\n"            # 17
    )
    assert sorted(findings(source, "m.py")) == sorted([
        "m.py:1 f", "m.py:12 f", "m.py:5 g", "m.py:7 g",
        "m.py:3 unreachable", "m.py:10 unreachable", "m.py:17 unreachable",
    ])
