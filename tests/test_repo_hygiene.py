"""Repository hygiene: no tracked file is one that .gitignore ignores, the
package's own imports sit at module level and form no cycle, one function
cuts trials into blocks and builds the streams, only rng.py builds a
generator, every name the package exports is read somewhere outside
``__init__``, and every parameter with a default that an export takes is
set at some call."""

import ast
import inspect
import re
import shutil
import subprocess
from pathlib import Path

import pytest

import betafreeze as bf

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


def _loads_by_owner(names):
    """(module.owner, name) for each read of a name in ``names`` in
    ``src/betafreeze``, a call included.  The owner is the top-level
    function or class the read sits in (nested functions count for it), or
    <module>."""
    uses = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name in names and isinstance(node.ctx, ast.Load):
                    uses.add((f"{path.stem}.{owner}", name))
    return uses


def test_one_chunk_loop():
    # experiment._run_workers is the only place that builds worker streams
    # and cuts trials into blocks; every sampling command draws through
    # it, so the stream layout and the block split are written once.
    uses = _loads_by_owner({"worker_streams", "BLOCK"})
    assert uses == {("experiment._run_workers", "worker_streams"),
                    ("experiment._run_workers", "BLOCK")}, sorted(uses)


def test_streams_built_only_in_rng():
    # Every Generator, SeedSequence and Philox of the package is built in
    # rng.py, so the stream contract lives in one file.
    built = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                if name in ("Generator", "SeedSequence", "Philox",
                            "default_rng"):
                    built.add((path.stem, name))
    assert {module for module, _ in built} == {"rng"}, sorted(built)


def _loaded_names(source: str) -> set[str]:
    """Every name read in ``source``, as a Name or an Attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def _caller_sources() -> list[str]:
    """The package's modules but ``__init__``, the benchmark, the acceptance
    tests and README's Python example: the code the API serves."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    sources = [p.read_text() for p in paths]
    return sources + re.findall(r"^```python\n(.*?)^```$",
                                (ROOT / "README.md").read_text(),
                                re.MULTILINE | re.DOTALL)


def test_every_export_is_read():
    # The package docstring's rule: each name in betafreeze.__all__ is read
    # by another module of the package, the benchmark, the acceptance tests
    # or README's example; an export that none of them reads is dead API.
    loaded = set().union(*map(_loaded_names, _caller_sources()))
    unread = [name for name in bf.__all__ if name not in loaded]
    assert not unread, f"exported but read nowhere: {unread}"


def _set_parameters(call: ast.Call, params: list) -> set[str]:
    """The names among ``params`` (a signature's parameters) that ``call``
    sets: by keyword, by position, or all of them through * or **."""
    if (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg is None for kw in call.keywords)):
        return {p.name for p in params}
    positional = [p.name for p in params
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    return ({kw.arg for kw in call.keywords}
            | set(positional[:len(call.args)]))


def test_every_public_parameter_is_set():
    # test_every_export_is_read's rule for parameters: each parameter with
    # a default of a callable in betafreeze.__all__ is set at some call in
    # the same sources; one that no caller sets is a dead setting.
    # Exception classes have no signature and take what Exception takes.
    exports = {name: getattr(bf, name) for name in bf.__all__}
    params = {name: list(inspect.signature(obj).parameters.values())
              for name, obj in exports.items() if callable(obj)
              and not (isinstance(obj, type) and issubclass(obj, Exception))}
    unset = {(name, p.name) for name, ps in params.items() for p in ps
             if p.default is not p.empty}
    for tree in map(ast.parse, _caller_sources()):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                if name in params:
                    unset -= {(name, p) for p in
                              _set_parameters(node, params[name])}
    unset = sorted(f"{name}({p})" for name, p in unset)
    assert not unset, f"defaulted but set by no caller: {unset}"
