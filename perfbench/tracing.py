"""Span tracing of blockperm's layers from outside the package.

A :class:`Tracer` replaces selected package functions with wrappers while it
is installed.  Each wrapper is created once per function and set on every
module or class binding that holds that function object, so a call made
through ``from blockperm.monoid import compose`` in ``hopf`` or ``verify`` is
traced the same way as ``monoid.compose``.  Nothing under ``src/`` changes.

Two kinds of wrapper:

* span: records a span (name, start, parent) on entry and closes it on exit.
  A closed span is folded straight into per-name totals -- calls, self time
  (duration minus the time covered by child spans) and outermost-only
  inclusive time -- because a traced ``verify`` job closes tens of millions
  of spans, too many to keep.  Self times therefore sum to the time covered
  by root spans, which never exceeds the traced wall time, and a recursive
  span (``_antipode_basis``) is not counted twice in inclusive time.
* count: increments a call counter only, for functions called millions of
  times whose cost is a few attribute reads (``__hash__``, ``concat``).  Its
  time stays in the parent span's self time.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

SPAN = "span"
COUNT = "count"


@dataclass(frozen=True)
class Target:
    """One package function to wrap, recorded under ``name``."""

    name: str
    module: str
    qualname: str
    kind: str = SPAN


# Layer boundaries; several functions may share a name (the basis changes).
TARGETS = [
    Target("glue_py.glue_labels", "blockperm._glue_py", "glue_labels"),
    Target("glue_py.canonical_labels", "blockperm._glue_py", "canonical_labels", COUNT),
    Target("monoid.compose", "blockperm.monoid", "compose"),
    Target("monoid.to_labels", "blockperm.monoid", "to_labels"),
    Target("monoid.from_labels", "blockperm.monoid", "from_labels"),
    Target("monoid.ubp_validate", "blockperm.monoid", "UniformBlockPermutation.__post_init__"),
    Target("monoid.ubp_hash", "blockperm.monoid", "UniformBlockPermutation.__hash__", COUNT),
    Target("monoid.closure", "blockperm.monoid", "closure_from_generators"),
    Target("monoid.breaking_points", "blockperm.monoid", "breaking_points"),
    Target("monoid.split_at_breaking_point", "blockperm.monoid", "split_at_breaking_point"),
    Target("monoid.left_compose_perm", "blockperm.monoid", "left_compose_perm"),
    Target("monoid.concat", "blockperm.monoid", "concat", COUNT),
    Target("monoid.elements_with_domain", "blockperm.monoid", "elements_with_domain"),
    Target("monoid.weak_leq", "blockperm.monoid", "weak_leq", COUNT),
    Target("monoid.parse_ubp", "blockperm.monoid", "parse_ubp"),
    Target("partitions.restrict_standardize", "blockperm.partitions", "restrict_standardize"),
    Target("partitions.from_blocks", "blockperm.partitions", "SetPartition.from_blocks"),
    Target("partitions.cross", "blockperm.partitions", "cross", COUNT),
    Target("partitions.set_partitions", "blockperm.partitions", "set_partitions"),
    Target("perms.shuffles", "blockperm.perms", "shuffles"),
    Target("hopf.product", "blockperm.hopf", "product"),
    Target("hopf.coproduct", "blockperm.hopf", "coproduct"),
    Target("hopf.tensor_product", "blockperm.hopf", "tensor_product"),
    Target("hopf.antipode", "blockperm.hopf", "antipode"),
    Target("hopf._antipode_basis", "blockperm.hopf", "_antipode_basis"),
    Target("hopf.basis_change", "blockperm.hopf", "from_lower_basis"),
    Target("hopf.basis_change", "blockperm.hopf", "to_lower_basis"),
    Target("hopf.basis_change", "blockperm.hopf", "from_upper_basis"),
    Target("hopf.basis_change", "blockperm.hopf", "to_upper_basis"),
    Target("hopf.parse_element", "blockperm.hopf", "parse_element"),
    Target("linear.add", "blockperm._linear", "LinearCombination.__add__"),
    Target("linear.init", "blockperm._linear", "LinearCombination.__init__", COUNT),
    Target("linear.str", "blockperm._linear", "LinearCombination.__str__"),
    Target("ncsym.to_element", "blockperm.ncsym", "to_element"),
    Target("ncsym.from_element", "blockperm.ncsym", "from_element"),
    Target("ncsym.p_coproduct", "blockperm.ncsym", "p_coproduct"),
    Target("schurweyl.matmul", "blockperm.schurweyl", "ActionMatrix.__matmul__"),
    Target("schurweyl.cyclotomic_mul", "blockperm.schurweyl", "CyclotomicInteger.__mul__", COUNT),
    Target("schurweyl.ubp_action_matrix", "blockperm.schurweyl", "ubp_action_matrix"),
    Target("schurweyl.exact_sparse_rank", "blockperm.schurweyl", "exact_sparse_rank"),
    Target("schurweyl.convolution_action", "blockperm.schurweyl", "convolution_action"),
]

# Spans whose results are measured: name -> size of one result.
RESULT_SIZES = {
    "hopf.product": len,
    "hopf.coproduct": len,
    "monoid.closure": len,
}


class Stats:
    """Totals for one span or counter name."""

    __slots__ = ("calls", "self_s", "incl_s", "depth", "units", "inner_calls")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0  # open spans of this name, to skip nested inclusive time
        self.units = 0  # summed result sizes (RESULT_SIZES)
        self.inner_calls = 0  # monoid.closure only: compose calls made inside it


def _resolve(owner, qualname: str):
    """(holder, attribute, raw object) for a dotted name inside a module."""
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


class Tracer:
    """Installs wrappers on entry and restores the originals on exit."""

    def __init__(self, targets=TARGETS, packages=("blockperm",)):
        self.targets = list(targets)
        self.packages = tuple(packages)
        self.stats: dict[str, Stats] = {}
        self._stack: list[list[float]] = []  # open spans: [child time]
        self._patches: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stats:
        return self.stats.setdefault(name, Stats())

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        st = self.stat(name)
        stack = self._stack
        clock = time.perf_counter
        size_of = RESULT_SIZES.get(name)
        compose_stats = self.stat("monoid.compose") if name == "monoid.closure" else None

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            st.depth += 1
            inner_before = compose_stats.calls if compose_stats is not None else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_s += elapsed - frame[0]
                if not st.depth:
                    st.incl_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if size_of is not None:
                st.units += size_of(result)
            if compose_stats is not None:
                st.inner_calls += compose_stats.calls - inner_before
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        st = self.stat(name)

        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and key.split(".")[0] in self.packages
        ]

    def _bind(self, holder, attr: str, value) -> None:
        self._patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def install(self) -> "Tracer":
        modules = self._modules()
        for target in self.targets:
            holder, attr, raw = _resolve(importlib.import_module(target.module), target.qualname)
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            make = self._span_wrapper if target.kind == SPAN else self._count_wrapper
            wrapped = make(target.name, fn)
            value = staticmethod(wrapped) if is_static else wrapped
            if isinstance(holder, type):
                # Methods: every class attribute holding the function (aliases
                # such as __rmul__ = __mul__ included).
                for key, obj in list(holder.__dict__.items()):
                    if obj is raw:
                        self._bind(holder, key, value)
                continue
            for mod in modules:
                for key, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._bind(mod, key, wrapped)
        return self

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def self_total(self) -> float:
        return sum(st.self_s for st in self.stats.values())
