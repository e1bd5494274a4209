import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import blockperm

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
