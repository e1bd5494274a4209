import ast
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import blockperm
from blockperm import verify

MODULES = [
    importlib.import_module(f"blockperm.{info.name}")
    for info in pkgutil.iter_modules(blockperm.__path__)
]

# Cost limits are read where they are checked (BLOCKPERM_CEILING or the
# --ceiling flag, and schurweyl.DEFAULT_DIM_CEILING), never passed per call.
LIMIT_PARAMETERS = {"ceiling", "dim_ceiling"}


def _callables():
    """(qualified name, function) for every function and method defined in
    a blockperm module."""
    for module in MODULES:
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_per_call_limit_parameters():
    walked = dict(_callables())
    assert {
        "blockperm.monoid.enumerate_ubp",
        "blockperm.monoid.closure_from_generators",
        "blockperm.schurweyl.ubp_action_matrix",
        "blockperm.schurweyl.CyclotomicInteger.root_power",
    } <= walked.keys()
    offenders = [
        (qualname, param)
        for qualname, fn in walked.items()
        for param in inspect.signature(fn).parameters
        if param in LIMIT_PARAMETERS
    ]
    assert offenders == []


def test_trusted_constructor_is_private():
    # UniformBlockPermutation._trusted skips validation, so no module exports it.
    assert all("_trusted" not in getattr(module, "__all__", ()) for module in [blockperm, *MODULES])


def unused_imports(source: str) -> list[str]:
    """Names an import binds that appear nowhere else in the module as a
    ``Name`` and are not listed in ``__all__``; ``from __future__`` is exempt."""
    tree = ast.parse(source)
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def test_unused_import_rule():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport math as m\nfrom json import dumps, loads\n"
        "from re import compile\n"
        "__all__ = ['compile']\n"
        "def f():\n    from sys import argv\n    return loads(os.sep)\n"
    )
    assert unused_imports(source) == ["m", "dumps", "argv"]


@pytest.mark.parametrize(
    "path",
    sorted(Path(blockperm.__file__).parent.glob("*.py")),
    ids=lambda path: path.name,
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


PACKAGE_DIR = Path(blockperm.__file__).parent
PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
DOTTED_PATH = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

# Public names that nothing outside their own definition names, each kept on
# purpose.  The perfbench tracer times CyclotomicInteger.__mul__, so the class
# stays whole until that target is retired.
UNCALLED_KEPT = {
    "blockperm.schurweyl.CyclotomicInteger.one": "kept with its class for the tracer",
    "blockperm.schurweyl.CyclotomicInteger.root_power": "kept with its class for the tracer",
    "blockperm.schurweyl.CyclotomicInteger.zero": "kept with its class for the tracer",
}


def named_identifiers(source: str):
    """(identifier, line, dotted) for each name the source uses: names,
    attributes, imported names, and every part of a string that is wholly a
    dotted path, such as the tracer target "CyclotomicInteger.__mul__".
    ``dotted`` is true for attributes and for parts of a string with a dot,
    the only ways a method or property is named.  Definitions, comments and
    prose in docstrings name nothing."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno, False
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and DOTTED_PATH.fullmatch(node.value)
        ):
            parts = node.value.split(".")
            for part in parts:
                yield part, node.lineno, len(parts) > 1


def test_named_identifiers():
    source = (
        '"""Calls kernel(word)."""\n'
        "from blockperm.monoid import compose as glue\n"
        "def kernel(word):\n    return glue(word).top\n"
        'TARGET = ("blockperm.schurweyl", "CyclotomicInteger.__mul__", "not a path", "one")\n'
    )
    # kernel is only defined and mentioned in prose, so it is not named; top
    # and the parts of dotted strings are the only names a method could be.
    assert {(name, dotted) for name, _, dotted in named_identifiers(source)} == {
        ("compose", False), ("glue", False), ("word", False), ("TARGET", False),
        ("one", False), ("top", True), ("blockperm", True), ("schurweyl", True),
        ("CyclotomicInteger", True), ("__mul__", True),
    }


def _public_definitions():
    """(qualified name, object) for every public class, function and method
    defined in a blockperm module, once each; dunders are not public."""
    seen = {}
    classes = [
        obj
        for module in MODULES
        for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
    ]
    for obj in [*classes, *(fn for _, fn in _callables())]:
        qualname = f"{obj.__module__}.{obj.__qualname__}"
        if not any(part.startswith("_") for part in obj.__qualname__.split(".")):
            seen[qualname] = obj
    return sorted(seen.items())


def test_every_public_name_has_a_caller():
    # A name counts as called when some package module or non-test perfbench
    # file names it outside its own definition; checks in verify.SUITES are
    # called through their suite.  Names are matched by their last part, and
    # a method or property only through an attribute or a dotted string, so
    # passing is necessary, not sufficient.
    occurrences: dict[str, list[tuple[Path, int, bool]]] = {}
    paths = [
        *sorted(PACKAGE_DIR.glob("*.py")),
        *sorted(p for p in PERFBENCH_DIR.glob("*.py") if not p.name.startswith("test_")),
    ]
    for path in paths:
        for name, line, dotted in named_identifiers(path.read_text()):
            occurrences.setdefault(name, []).append((path.resolve(), line, dotted))
    registered = {check for checks in verify.SUITES.values() for check in checks}
    uncalled = []
    for qualname, obj in _public_definitions():
        if obj in registered:
            continue
        source = Path(inspect.getsourcefile(obj)).resolve()
        lines, start = inspect.getsourcelines(obj)
        member = "." in obj.__qualname__
        outside = [
            (path, line)
            for path, line, dotted in occurrences.get(qualname.rsplit(".", 1)[1], [])
            if (dotted or not member) and (path != source or not start <= line < start + len(lines))
        ]
        if not outside:
            uncalled.append(qualname)
    unexpected = sorted(set(uncalled) - UNCALLED_KEPT.keys())
    assert not unexpected, f"public names with no caller: {unexpected}"
    stale = sorted(UNCALLED_KEPT.keys() - set(uncalled))
    assert not stale, f"kept names that have a caller now: {stale}"


def test_oracle_imports_only_the_standard_library():
    # The tests and CI compare the package with perfbench/oracle.py, which is
    # an independent reference only while it shares no code with blockperm.
    tree = ast.parse((PERFBENCH_DIR / "oracle.py").read_text())
    imported = {
        (alias.name if isinstance(node, ast.Import) else "." * node.level + (node.module or ""))
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported and {name.split(".")[0] for name in imported} <= sys.stdlib_module_names
