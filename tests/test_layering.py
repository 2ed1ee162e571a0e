"""No module of the package reads another module's private names, imports a name it never reads, or starts threads
outside the trainer.

A name with a leading underscore belongs to its own module.  When a second
module needs it, it gets a public name instead, so every cross-module
dependency is visible in the public surface.  Tests may still read private
names.  An import no code reads is a dependency the module does not have.
A training step is the one place that runs work on another thread, so
``threading.Thread`` and ``concurrent.futures`` appear nowhere else.
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


def thread_starts(path):
    """Each use of ``threading.Thread`` or ``concurrent.futures`` in ``path``, sorted."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    threading_names = set()  # local names bound to the threading module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            threading_names.update(a.asname or a.name for a in node.names if a.name == "threading")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += ["concurrent.futures" for a in node.names if a.name.partition(".")[0] == "concurrent"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = {a.name for a in node.names}
            if node.module == "concurrent.futures" or (node.module == "concurrent" and "futures" in names):
                found.append("concurrent.futures")
            elif node.module == "threading" and "Thread" in names:
                found.append("threading.Thread")
        elif isinstance(node, ast.Attribute) and node.attr == "Thread":
            if isinstance(node.value, ast.Name) and node.value.id in threading_names:
                found.append("threading.Thread")
    return sorted(found)


def test_only_the_trainer_starts_threads():
    starts = {path.name: thread_starts(path) for path in sorted(SRC.glob("*.py")) if path.name != "trainer.py"}
    assert {name: found for name, found in starts.items() if found} == {}
    assert thread_starts(SRC / "trainer.py") == ["concurrent.futures"]


def test_the_thread_guard_sees_each_form(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import threading as th\n"
        "import concurrent.futures\n"
        "from concurrent import futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from threading import Thread, Lock\n"
        "th.Thread(target=print)\n"
        "th.Lock(), Lock()\n"
    )
    assert thread_starts(path) == ["concurrent.futures"] * 3 + ["threading.Thread"] * 2
