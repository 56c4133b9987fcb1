"""``src/`` keeps only the code the lab runs.

Every top-level public function, class or constant of a layer module must be
read by name somewhere in ``alflb`` (the package ``__init__`` re-exports do
not count), or be part of the benchmark's surface, which
``tests/test_benchmark_surface.py`` imports.  Code that only tests call lives
beside those tests.
"""

import ast
from pathlib import Path

import alflb

SRC = Path(alflb.__file__).resolve().parent
LAYERS = (
    "core", "errors", "router", "balancer", "deterministic", "distributions",
    "stochastic", "cli",
)
BENCHMARK_SURFACE = Path(__file__).resolve().parent / "test_benchmark_surface.py"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _public_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
    return {name for name in names if not name.startswith("_")}


def _names_read(tree: ast.Module) -> set[str]:
    return {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _benchmark_imports() -> set[str]:
    return {
        alias.name
        for node in ast.walk(_parse(BENCHMARK_SURFACE))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("alflb")
        for alias in node.names
    }


def test_layer_modules_are_the_package():
    assert {p.stem for p in SRC.glob("*.py")} == set(LAYERS) | {"__init__"}


def test_every_public_name_is_read_by_the_lab():
    trees = {layer: _parse(SRC / f"{layer}.py") for layer in LAYERS}
    read = set().union(*map(_names_read, trees.values())) | _benchmark_imports()
    unread = {
        f"{layer}.{name}"
        for layer, tree in trees.items()
        for name in _public_definitions(tree) - read
    }
    assert not unread, f"public names that only tests use: {sorted(unread)}"


def test_only_the_cli_raises_config_errors():
    # a layer reports input it cannot take as InvalidRange; the CLI names
    # the config field and owns the exit code
    config_errors = {"ConfigError", "ParseError", "ValidationError"}
    importers = {
        layer
        for layer in LAYERS
        for node in ast.walk(_parse(SRC / f"{layer}.py"))
        if isinstance(node, ast.ImportFrom)
        and config_errors & {alias.name for alias in node.names}
    }
    assert importers <= {"cli"}, f"layers that import a config error: {sorted(importers)}"
