"""The benchmark's three workloads.

Each workload is built from a seed by :func:`prepare` (outside any timed
section), runs one timed job with :meth:`run`, and checks that job's result
with :meth:`check`, again outside the timed section.  All three run in one
process on one thread against blockperm's public API; every package function
is looked up through its module at call time, so the tracer's wrappers apply.

* ``closure6``: the generator closure at degree 6 (22,482 elements from about
  225k compositions): the composition path at its largest working set, with
  the Hopf layer idle.  The seed does not change it.
* ``verify``: every check of ``verify.SUITES["all"]`` at ``max_n=4``, one at a
  time, as ``blockperm verify all --max-n 4`` runs them.  Coproduct-dominated.
  The seed does not change it.
* ``requests``: a closed loop with one client sending text requests
  (parse, one public call, canonical text out), drawn from the seed with
  operands repeating from a heavy-tailed pool.  Outputs are checked against
  :mod:`oracle`, which shares no code with the package.
"""

from __future__ import annotations

import itertools
import random
import sys
import time

import oracle
from blockperm import hopf, monoid, ncsym, schurweyl, verify

WORKLOADS = ("closure6", "verify", "requests")

CLOSURE_DEGREE = {False: 6, True: 4}
CLOSURE_SIZES = {4: 131, 6: 22482}
VERIFY_MAX_N = {False: 4, True: 1}
REQUESTS_PER_PASS = {False: 3000, True: 200}

KINDS = (
    "compose", "product", "coproduct", "antipode", "pair",
    "lower", "p_to_element", "p_from_element", "action",
)
POOL_SIZE = 32  # diagrams per degree; index i is drawn with weight 1/(i+1)
ACTION_M = 3
MAX_DEGREE = 6
# The antipode and basis changes stop at degree 5 so no single request dominates.
MAX_COSTLY_DEGREE = 5


clock = time.perf_counter


def clear_caches() -> None:
    """Empty every functools cache in the package, as in a fresh process, so
    each job does the same work."""
    for key, mod in list(sys.modules.items()):
        if mod is None or key.split(".")[0] != "blockperm":
            continue
        for obj in list(vars(mod).values()):
            holders = [obj] + (list(vars(obj).values()) if isinstance(obj, type) else [])
            for item in holders:
                if callable(getattr(item, "cache_clear", None)):
                    item.cache_clear()


# -- closure6 -----------------------------------------------------------------


class Closure:
    def __init__(self, smoke: bool):
        self.degree = CLOSURE_DEGREE[smoke]
        self._expected: set | None = None

    def run(self) -> tuple[list, list[float]]:
        start = clock()
        result = monoid.closure_from_generators(self.degree)
        return result, [clock() - start]

    def check(self, result) -> tuple[int, int]:
        # Canonical text is compared because strings are not tracked by the
        # garbage collector: a kept set of diagrams would slow later jobs.
        if self._expected is None:
            self._expected = frozenset(map(str, monoid.enumerate_ubp(self.degree)))
        ok = len(result) == CLOSURE_SIZES[self.degree] and set(map(str, result)) == self._expected
        return 1, 0 if ok else 1


# -- verify -------------------------------------------------------------------


class Verify:
    def __init__(self, smoke: bool):
        self.max_n = VERIFY_MAX_N[smoke]
        self.suite_of = {
            fn: suite for suite, fns in verify.SUITES.items() if suite != "all" for fn in fns
        }
        self.checks = list(verify.SUITES["all"])
        self.suite_wall: dict[str, float] = {}

    def run(self) -> tuple[list, list[float]]:
        results = []
        walls = dict.fromkeys(self.suite_of.values(), 0.0)
        start = clock()
        for fn in self.checks:
            t0 = clock()
            results.append(verify.run_check(fn, self.max_n))
            walls[self.suite_of[fn]] += clock() - t0
        wall = clock() - start
        self.suite_wall = walls
        return results, [wall]

    def check(self, results) -> tuple[int, int]:
        return len(self.checks), sum(not c.passed for c in results)


# -- requests -----------------------------------------------------------------


def _elem(text):
    return hopf.parse_element(text)


def _render_matrix(mat) -> str:
    return ";".join(f"{i},{j},{v}" for i, j, v in mat.entries())


HANDLERS = {
    "compose": lambda g, f: str(monoid.compose(monoid.parse_ubp(g), monoid.parse_ubp(f))),
    "product": lambda x, y: str(hopf.product(_elem(x), _elem(y))),
    "coproduct": lambda x: str(hopf.coproduct(_elem(x))),
    "antipode": lambda x: str(hopf.antipode(_elem(x))),
    "pair": lambda x, y: str(hopf.pairing(_elem(x), _elem(y))),
    "lower": lambda x: str(hopf.to_lower_basis(_elem(x))),
    "p_to_element": lambda u: str(ncsym.to_element(ncsym.parse_p_element(u))),
    "p_from_element": lambda x: str(ncsym.from_element(_elem(x))),
    "action": lambda f: _render_matrix(schurweyl.ubp_action_matrix(monoid.parse_ubp(f), ACTION_M)),
}


def oracle_accepts(kind: str, operands: tuple[str, ...], out: str) -> bool:
    """True iff ``out`` is the canonical answer, computed without blockperm.
    The two basis changes are checked by mapping the answer back."""
    try:
        return _oracle_accepts(kind, operands, out)
    except (ValueError, KeyError, IndexError):  # output the oracle cannot parse
        return False


def _oracle_accepts(kind: str, operands: tuple[str, ...], out: str) -> bool:
    o = oracle
    if kind == "compose":
        g, f = map(o.parse_diagram, operands)
        return out == o.diagram_text(o.compose(g, f))
    if kind == "product":
        x, y = map(o.parse_element, operands)
        return out == o.element_text(o.product(x, y))
    if kind == "coproduct":
        return out == o.tensor_text(o.coproduct(o.parse_element(operands[0])))
    if kind == "antipode":
        return out == o.element_text(o.antipode(o.parse_element(operands[0])))
    if kind == "pair":
        x, y = map(o.parse_element, operands)
        return out == str(o.pairing(x, y))
    if kind == "lower":
        coords = o.parse_element(out)
        return o.element_text(coords) == out and o.from_lower_basis(coords) == o.parse_element(operands[0])
    if kind == "p_to_element":
        return out == o.element_text(o.to_element(_parse_p(operands[0])))
    if kind == "p_from_element":
        coords = _parse_p(out)
        return o.p_element_text(coords) == out and o.to_element(coords) == o.parse_element(operands[0])
    if kind == "action":
        f = o.parse_diagram(operands[0])
        return out == ";".join(f"{r},{c},1" for r, c in o.action_rows(f, ACTION_M))
    raise ValueError(f"unknown request kind {kind!r}")


def _parse_p(text: str) -> dict:
    out: dict = {}
    if text == "0":
        return out
    for piece in text.split(" + "):
        coeff, _, body = piece.partition("*p")
        blocks = tuple(tuple(map(int, b.split(","))) for b in body[1:-1].split("}{")) if body != "{}" else ()
        out[blocks] = out.get(blocks, 0) + int(coeff)
    return out


def _degree_plan() -> dict[str, list]:
    """Degrees each kind cycles through: operands of degree 1-6, products of
    total degree at most 6, and the costly kinds stopping at degree 5."""
    full = list(range(1, MAX_DEGREE + 1))
    costly = list(range(1, MAX_COSTLY_DEGREE + 1))
    pairs = [(p, q) for p in full for q in full if p + q <= MAX_DEGREE]
    plan = dict.fromkeys(("compose", "coproduct", "pair", "action"), full)
    plan.update(dict.fromkeys(("antipode", "lower", "p_to_element", "p_from_element"), costly))
    plan["product"] = pairs
    return plan


def make_requests(seed: int, count: int) -> list[tuple[str, tuple[str, ...]]]:
    """The seeded request stream: (kind, operand texts) pairs.

    Every stream has the same mix: each kind occurs count/9 times (give or
    take one), cycles through its degrees in turn, and every third round of
    a kind uses two-term operands.  The seed picks the operands and the
    order, so it changes what is computed but hardly how much.
    """
    rng = random.Random(seed)
    pools = {
        n: [oracle.random_diagram(rng, n) for _ in range(POOL_SIZE)]
        for n in range(1, MAX_DEGREE + 1)
    }
    partitions = {
        n: [oracle.random_partition(rng, n) for _ in range(POOL_SIZE)]
        for n in range(1, MAX_COSTLY_DEGREE + 1)
    }
    cum = list(itertools.accumulate(1 / (i + 1) for i in range(POOL_SIZE)))

    def draw(pool):
        return rng.choices(pool, cum_weights=cum)[0]

    def coeff():
        return rng.choice((-3, -2, -1, 1, 2, 3))

    def terms(pool, two, extra=()):
        out = {draw(pool): coeff()}
        if two:
            out.setdefault(draw(pool), coeff())
        for key in extra:
            out.setdefault(key, coeff())
        return out

    plan = _degree_plan()
    kinds = [KINDS[i % len(KINDS)] for i in range(count)]
    rng.shuffle(kinds)
    rounds = dict.fromkeys(KINDS, 0)
    stream = []
    for kind in kinds:
        j = rounds[kind]
        rounds[kind] += 1
        degrees = plan[kind]
        n = degrees[j % len(degrees)]
        two = (j // len(degrees)) % 3 == 2
        text = oracle.element_text
        if kind == "compose":
            operands = (oracle.diagram_text(draw(pools[n])), oracle.diagram_text(draw(pools[n])))
        elif kind == "product":
            p, q = n
            operands = (text(terms(pools[p], two)), text(terms(pools[q], two)))
        elif kind == "pair":
            x = terms(pools[n], two)
            partners = [oracle.make((img, dom) for dom, img in f) for f in x if rng.random() < 0.7]
            operands = (text(x), text(terms(pools[n], False, partners)))
        elif kind == "p_to_element":
            operands = (oracle.p_element_text(terms(partitions[n], two)),)
        elif kind == "p_from_element":
            operands = (text(oracle.to_element(terms(partitions[n], two))),)
        elif kind == "action":
            operands = (oracle.diagram_text(draw(pools[n])),)
        else:  # coproduct, antipode, lower
            operands = (text(terms(pools[n], two)),)
        stream.append((kind, operands))
    return stream


def repeat_share(stream) -> float:
    """Share of requests whose operands already occurred earlier in the stream."""
    seen: set = set()
    repeats = 0
    for _, operands in stream:
        repeats += operands in seen
        seen.add(operands)
    return repeats / len(stream)


class Requests:
    def __init__(self, smoke: bool, seed: int):
        self.stream = make_requests(seed, REQUESTS_PER_PASS[smoke])
        self._first: list[str] | None = None
        self._first_ok: list[bool] = []
        self.kind_latencies: dict[str, list[float]] = {}

    def run(self) -> tuple[list, list[float]]:
        outs = []
        lats = []
        handlers = HANDLERS
        for kind, operands in self.stream:
            t0 = clock()
            try:
                out = handlers[kind](*operands)
            except Exception as exc:  # a raising request is a failed request
                out = f"raised {exc!r}"
            lats.append(clock() - t0)
            outs.append(out)
        self.kind_latencies = {}
        for (kind, _), lat in zip(self.stream, lats):
            self.kind_latencies.setdefault(kind, []).append(lat)
        return outs, lats

    def check(self, outs) -> tuple[int, int]:
        """The first pass is checked against the oracle; later passes must
        repeat its bytes exactly (text output is byte-deterministic)."""
        if self._first is None:
            memo: dict = {}
            for (kind, operands), out in zip(self.stream, outs):
                key = (kind, operands, out)
                if key not in memo:
                    memo[key] = oracle_accepts(kind, operands, out)
                self._first_ok.append(memo[key])
            self._first = outs
        failed = sum(
            not ok or out != first
            for out, first, ok in zip(outs, self._first, self._first_ok)
        )
        return len(self.stream), failed


def prepare(name: str, seed: int, smoke: bool = False):
    if name == "closure6":
        return Closure(smoke)
    if name == "verify":
        return Verify(smoke)
    if name == "requests":
        return Requests(smoke, seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
