"""No module of the package reads another module's private names, or imports a name it never reads.

A name with a leading underscore belongs to its own module.  When a second
module needs it, it gets a public name instead, so every cross-module
dependency is visible in the public surface.  Tests may still read private
names.  An import no code reads is a dependency the module does not have.
"""

import ast
from pathlib import Path

import colo

SRC = Path(colo.__file__).parent


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path):
    """``module.name`` for each private name of another package module that ``path`` imports or reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = {}  # local name -> package module it binds
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:  # from . import x, from .x import y
            module = node.module or ""
        elif node.module == "colo" or (node.module or "").startswith("colo."):
            module = node.module.partition(".")[2]
        else:
            continue
        for alias in node.names:
            if _private(alias.name):
                found.append(f"{module or 'colo'}.{alias.name}")
            elif not module:  # from . import model as M
                modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and _private(node.attr):
            if node.value.id in modules:
                found.append(f"{modules[node.value.id]}.{node.attr}")
    return sorted(found)


def test_no_package_module_reads_another_modules_private_names():
    reads = {path.name: private_reads(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}


def test_the_guard_sees_imported_and_attribute_reads(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from . import model as M\n"
        "from .contrastive import _encode, swap_entities\n"
        "from colo.tensor import _as_tensor\n"
        "import numpy as np\n"
        "M._causal_mask(4, np._NoValue)\n"
        "M.__name__, M.encode_batch\n"
    )
    assert private_reads(path) == ["contrastive._encode", "model._causal_mask", "tensor._as_tensor"]


def unused_imports(path):
    """Each name ``path`` binds by an import and never reads, sorted."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``; ``import a.b as c`` binds ``c``
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted(bound - read)


def test_no_package_module_imports_a_name_it_never_reads():
    unused = {path.name: unused_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}


def test_the_import_guard_sees_names_never_read(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import os.path\n"
        "import json, sys\n"
        "from dataclasses import dataclass, field as f, replace\n"
        "from . import model as M\n"
        "replace = None\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int = M.WIDTH\n"
        "print(sys.argv)\n"
    )
    assert unused_imports(path) == ["f", "json", "os", "replace"]
