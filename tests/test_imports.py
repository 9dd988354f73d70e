"""No module in src/zircon imports a name it never uses, defines a
top-level private name it never reads, or defines a public one that nothing
in the repository reads.

Stdlib `ast` scans, so that a deletion cannot leave a stale import or helper
behind.  Names `__init__.py` re-exports through `__all__` count as used.
"""
import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zircon"
# every file that may read a public name of the package
READERS = sorted(path for folder in ("src", "scripts", "tests", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str):
    """The names a module imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def top_level_names(tree: ast.Module):
    """The names a module binds at top level by def, class or assignment."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defined.update(name.id for target in targets
                           for name in ast.walk(target)
                           if isinstance(name, ast.Name))
    return defined


def unused_private_names(source: str):
    """The top-level `_private` names a module binds by def, class or
    assignment and never reads, sorted."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in top_level_names(tree) - read
                  if name.startswith("_") and not name.startswith("__"))


def names_read(source: str):
    """Every name a module reads, bare (`name`) or as an attribute
    (`module.name`); importing a name is not reading it."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def unread_public_names(source: str, read_elsewhere=frozenset()):
    """The top-level public names a module binds that neither it reads nor
    any name in `read_elsewhere` covers, sorted."""
    read = names_read(source) | read_elsewhere
    return sorted(name for name in top_level_names(ast.parse(source)) - read
                  if not name.startswith("_"))


@functools.lru_cache(maxsize=None)
def read_in_the_repository():
    """Every name some file under READERS reads."""
    return frozenset().union(*(names_read(path.read_text(encoding="utf-8"))
                               for path in READERS))


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path, sys as system\n"
              "from .x import a, b as c\n"
              "__all__ = ['a']\n"
              "print(system.argv)\n")
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_private_name():
    source = ("__version__ = '1'\n"
              "_A, _B = 1, 2\n"
              "_C: int = 3\n"
              "PUBLIC = 4\n"
              "def _f():\n"
              "    _local = _A\n"
              "    return _local\n"
              "class _K:\n"
              "    _attr = PUBLIC\n"
              "def _g(x=_K):\n"
              "    return x\n")
    assert unused_private_names(source) == ["_B", "_C", "_f", "_g"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_defines_a_private_name_it_never_reads(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unread_public_name():
    module = ("LIMIT = 3\n"
              "def used():\n"
              "    return LIMIT\n"
              "def stale_helper(ring, rng):\n"
              "    pass\n"
              "class Ring:\n"
              "    pass\n")
    # importing stale_helper is not reading it; nodes.Ring is
    caller = ("from zircon import nodes\n"
              "from zircon.nodes import stale_helper, used\n"
              "print(used(), nodes.Ring)\n")
    assert unread_public_names(module) == ["Ring", "stale_helper", "used"]
    assert unread_public_names(module, names_read(caller)) == ["stale_helper"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_public_name_is_read_somewhere(path):
    assert unread_public_names(path.read_text(encoding="utf-8"),
                               read_in_the_repository()) == []
