"""Repository hygiene: no tracked file is one that .gitignore ignores, and
the package's own imports sit at module level and form no cycle."""

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "betafreeze"


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(),
    reason="needs git and a git checkout",
)
def test_no_tracked_file_is_ignored():
    r = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "", "tracked files that .gitignore ignores:\n" + r.stdout


def test_package_imports_at_module_level_without_cycles():
    # An import inside a function or class hides a dependency from the
    # reader; external imports there stay allowed.
    graph, nested = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inner = {id(node) for scope in ast.walk(tree)
                 if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                 for node in ast.walk(scope)}
        deps = set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            if id(node) in inner:
                nested.append(f"{path.stem}:{node.lineno}")
            deps.update([node.module.split(".")[0]] if node.module
                        else [alias.name for alias in node.names])
        if path.stem != "__init__":
            graph[path.stem] = deps - {"__init__"}
    assert not nested, f"function-level package imports: {nested}"

    done, stack = set(), []

    def visit(module):
        if module in stack:
            cycle = stack[stack.index(module):] + [module]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if module not in done:
            stack.append(module)
            for dep in sorted(graph.get(module, ())):
                visit(dep)
            stack.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)
