"""The tools under ``tools/`` still import what they name.

The tools are not run by the test suite, so a name deleted from ``src/``
would otherwise break them silently.  Each ``from alflb.<module> import
<name>`` must resolve to an attribute of the module, and each ``<module>.<name>``
read on a module bound by ``from alflb import <module>`` must exist.  Each
tool must also start and print its help, which runs its imports of other
tools (``harness``).
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = sorted((Path(__file__).resolve().parent.parent / "tools").glob("*.py"))


def _alflb_references(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) pairs that the tool reads from ``alflb``."""
    refs, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "alflb" or node.module.startswith("alflb.")
        ):
            for alias in node.names:
                refs.add((node.module, alias.name))
                if node.module == "alflb":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            refs.add((f"alflb.{node.value.id}", node.attr))
    return refs


def test_tools_exist():
    assert TOOLS


@pytest.mark.parametrize("tool", TOOLS, ids=lambda p: p.name)
def test_tool_imports_resolve(tool):
    tree = ast.parse(tool.read_text(), filename=str(tool))
    missing = sorted(
        f"{module}.{name}"
        for module, name in _alflb_references(tree)
        if not hasattr(importlib.import_module(module), name)
    )
    assert not missing, f"{tool.name} reads names alflb does not have: {missing}"


@pytest.mark.parametrize(
    "tool", [t for t in TOOLS if t.name != "harness.py"], ids=lambda p: p.name
)
def test_tool_prints_help(tool):
    proc = subprocess.run(
        [sys.executable, str(tool), "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "--parent" in proc.stdout
