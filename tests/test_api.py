import importlib
import inspect
import pkgutil

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
