"""The three workloads of the qgl3 benchmark and the checks on their outputs.

Every workload is a closed loop: one client in one process, no threads, and
the next case or query starts only after the previous one has returned.

* ``verify-acceptance``: the eight ``qgl3 verify`` suites at l in {2,3,5},
  box 4, serial, through the CLI entry point.  The acceptance box.
* ``decomp-l7``: the ``decomposition`` suite at l = 7, box 4, through the
  CLI entry point.  The scaling point beyond the acceptance box.
* ``point-queries``: independent queries at the level of the CLI
  subcommands (ext, alt, lfilt, translate, hom), generated from the seed,
  each with its own exact check.

The sweeps check a fixed box, so their inputs do not depend on the seed.
This module imports ``qgl3`` only inside functions, so ``run.py`` can
import it without loading the engine.
"""

from __future__ import annotations

import io
import random
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

# Queries of each kind per classical part.  ext queries are cheap and their
# cost is set by the classical part, so with four of them the median latency
# of a stream falls among ext queries and stays put from seed to seed; it
# sits in a steep part of the latency curve when every kind counts once.
QUERIES_PER_PART = {"ext": 4, "alt": 1, "lfilt": 1, "translate": 1, "hom": 1}


@dataclass(frozen=True)
class Sweep:
    """One ``qgl3 verify`` invocation and the serial case count of each suite."""

    l_values: tuple[int, ...]
    box: int
    expect_cases: dict[str, int]

    def argv(self) -> list[str]:
        return [
            "verify",
            "--suites", ",".join(self.expect_cases),
            "--l", ",".join(map(str, self.l_values)),
            "--box", str(self.box),
        ]


@dataclass(frozen=True)
class QueryStream:
    """Point queries at each l in ``max_classical``, whose classical parts run
    over the box [0, max_classical[l]]^2."""

    max_classical: dict[int, int]


ACCEPTANCE_COUNTS = {
    "denominator": 150, "dimension": 75, "decomposition": 950, "zhat": 950,
    "translate": 435, "graphs": 1900, "ext-lemmas": 1742, "homs": 336,
}
SUITES = tuple(ACCEPTANCE_COUNTS)

# "full" is the benchmark; "smoke" is the reduced size the smoke test runs.
WORKLOADS = {
    "full": {
        "verify-acceptance": Sweep((2, 3, 5), 4, ACCEPTANCE_COUNTS),
        "decomp-l7": Sweep((7,), 4, {"decomposition": 1225}),
        "point-queries": QueryStream({3: 6, 5: 6, 7: 4, 11: 3}),
    },
    "smoke": {
        "verify-acceptance": Sweep(
            (2, 3), 1,
            {"denominator": 16, "dimension": 8, "decomposition": 52, "zhat": 52,
             "translate": 53, "graphs": 104, "ext-lemmas": 386, "homs": 3},
        ),
        "decomp-l7": Sweep((7,), 0, {"decomposition": 49}),
        "point-queries": QueryStream({3: 1, 5: 1, 7: 0, 11: 0}),
    },
}


# A fixed piece of pure-Python work, the shape of the engine's hot loop (a
# sparse convolution keyed by weight pairs), but the benchmark's own code, so
# that no change to the engine changes it.
_PACE_A = {(i % 7 - 3, i // 7 - 2): i + 1 for i in range(35)}
_PACE_B = {(i % 5 - 2, i // 5 - 2): 2 * i - 7 for i in range(25)}


def _pace_work() -> dict:
    out = {}
    for (xa, ya), ca in _PACE_A.items():
        for (xb, yb), cb in _PACE_B.items():
            key = (xa + xb, ya + yb)
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


class Pace:
    """How fast this core runs while a workload runs.

    The speed of a core on a shared host drifts by tens of percent within
    seconds, with the load of other tenants.  Every ``EVERY_S`` seconds, at a
    boundary between cases or queries, the pace loop is timed.  The time
    between two pace marks is then rescaled to the reference speed, at which
    one pace loop takes ``REF_S`` seconds: a stretch where the loop ran 20 %
    slow counts 1/1.2 of its wall time.  Pace loops are not workload time.
    """

    EVERY_S = 0.025
    REF_S = 4.0e-4

    def __init__(self):
        self.marks: list[tuple[float, float, float]] = []  # (start, end, loop seconds)
        _pace_work()  # the first call runs cold
        self.mark()

    def mark(self) -> None:
        start = time.perf_counter()
        loop = []
        for _ in range(2):  # the faster of two, so an interrupt does not count
            t0 = time.perf_counter()
            _pace_work()
            loop.append(time.perf_counter() - t0)
        self.marks.append((start, time.perf_counter(), min(loop)))

    def tick(self) -> int:
        """Take a pace mark if one is due; return the current stretch."""
        if time.perf_counter() - self.marks[-1][1] >= self.EVERY_S:
            self.mark()
        return len(self.marks) - 1

    def factors(self) -> list[float]:
        """Reference seconds per wall second, for each stretch between marks."""
        return [
            self.REF_S / ((a[2] + b[2]) / 2) for a, b in zip(self.marks, self.marks[1:])
        ]

    def stretches(self) -> list[float]:
        return [b[0] - a[1] for a, b in zip(self.marks, self.marks[1:])]


@dataclass
class Outcome:
    """What one iteration of a workload did.

    ``attempted`` counts the cases or queries that should have been checked;
    ``failed`` counts those that failed, raised or were never checked.
    ``units`` holds one (label, wall seconds, stretch) triple per checked
    case or query, the stretch indexing ``pace``.
    """

    attempted: int = 0
    failed: int = 0
    units: list[tuple[str, float, int]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    pace: Pace = field(default_factory=Pace)

    @property
    def wall_raw_s(self) -> float:
        return sum(self.pace.stretches())

    @property
    def wall_s(self) -> float:
        """Workload time at the reference speed."""
        return sum(s * f for s, f in zip(self.pace.stretches(), self.pace.factors()))

    def latencies(self, scaled: bool = True) -> list[tuple[str, float]]:
        factors = self.pace.factors()
        return [(label, s * factors[i] if scaled else s) for label, s, i in self.units]


# ---------------------------------------------------------------- sweeps

_SUITE_LINE = re.compile(r"^(\S+): (\d+) cases, (ok|(\d+) failures)$")


def _timed_suite(label, suite, out: Outcome):
    """Wrap a suite generator so that the time to produce each case is kept."""

    def run(*args, **kwargs):
        cases = iter(suite(*args, **kwargs))
        while True:
            stretch = out.pace.tick()
            t0 = time.perf_counter()
            try:
                case = next(cases)
            except StopIteration:
                return
            out.units.append((label, time.perf_counter() - t0, stretch))
            yield case

    return run


def run_sweep(spec: Sweep) -> Outcome:
    """Run ``qgl3 verify`` through ``qgl3.cli.main`` and check its report.

    A failing case, a nonzero exit code, a suite missing from the report or a
    case count other than the serial count is a failure; cases that should
    have run and did not count as failed.
    """
    from qgl3 import cli, verify

    out = Outcome(attempted=sum(spec.expect_cases.values()))
    if min(spec.expect_cases.values(), default=0) < 1:
        out.attempted = out.failed = max(out.attempted, 1)
        out.errors.append(f"a suite with no cases to check: {spec.expect_cases}")
        out.pace.mark()
        return out
    suites = dict(verify.SUITES)
    for name in spec.expect_cases:
        verify.SUITES[name] = _timed_suite(f"verify.{name}", suites[name], out)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(spec.argv())
    except Exception as exc:  # noqa: BLE001 - any crash is a failed run
        out.failed = out.attempted
        out.errors.append(f"verify raised {exc!r}")
        return out
    finally:
        out.pace.mark()
        verify.SUITES.update(suites)

    reported = {}
    for line in stdout.getvalue().splitlines():
        m = _SUITE_LINE.match(line)
        if m:
            reported[m[1]] = (int(m[2]), int(m[4] or 0))
    failed = 0
    for name, want in spec.expect_cases.items():
        ran, failures = reported.get(name, (0, 0))
        failed += failures + abs(want - ran)
        if failures or ran != want:
            out.errors.append(f"{name}: {ran} cases (want {want}), {failures} failures")
    if code != 0 and not failed:
        failed = out.attempted
        out.errors.append(f"verify exited {code}: {stderr.getvalue()[-500:]}")
    out.errors += [line for line in stderr.getvalue().splitlines() if line.startswith("FAIL")][:10]
    out.failed = min(failed, out.attempted)
    return out


# ---------------------------------------------------------------- queries


@dataclass(frozen=True)
class Query:
    """One point query.  ``expect`` is the answer computed by an oracle that
    is independent of the engine route under test, or None where the check
    is an identity between two engine routes."""

    kind: str
    l: int
    args: tuple
    expect: object = None


_FUND = {(1, 0): ((1, 0), (-1, 1), (0, -1)), (0, 1): ((0, 1), (1, -1), (-1, 0))}
# Positive roots with their pairing <x + rho, beta~>.
_ROOTS = (
    ((2, -1), lambda w: w[0] + 1),
    ((-1, 2), lambda w: w[1] + 1),
    ((1, 1), lambda w: w[0] + w[1] + 2),
)


def _pieri_ext(table_value, mc, lc) -> int:
    """ext1_g for distinct restricted parts, pairing the restricted-kernel
    table value by the Pieri rule: nabla(c) appears in nabla(lc) (x) nabla(w)
    for a fundamental w exactly when c - lc is a weight of nabla(w)."""
    total = 0
    for part in table_value.parts:
        if part == "k":
            total += mc == lc
        else:
            total += (mc[0] - lc[0], mc[1] - lc[1]) in _FUND[tuple(part)]
    return total


def _mirror_witness_exists(lam, mu, l) -> bool:
    """Brute-force oracle for hom_exists_mirror at p = 0: mu is strictly below
    lam and is the dot-mirror image of lam in a wall <x+rho, beta~> = m*l
    with no other such wall between them."""
    d = (lam[0] - mu[0], lam[1] - mu[1])
    c1, c2 = 2 * d[0] + d[1], d[0] + 2 * d[1]
    if d == (0, 0) or c1 < 0 or c2 < 0 or c1 % 3 or c2 % 3:
        return False
    for vec, pairing in _ROOTS:
        p, q = pairing(lam), pairing(mu)
        if (p + q) % (2 * l) or p == q:
            continue
        c = (p - q) // 2
        if (lam[0] - c * vec[0], lam[1] - c * vec[1]) != tuple(mu):
            continue
        lo, hi = min(p, q), max(p, q)
        if hi // l - (lo - 1) // l == 1:
            return True
    return False


def make_queries(spec: QueryStream, seed: int) -> list[Query]:
    """The query stream of a seed, in an order shuffled by the seed.

    Every kind gets ``QUERIES_PER_PART`` queries per classical part in the box
    [0, m]^2 at every l, with m = ``max_classical[l]``; the seed draws the
    restricted parts and the partner weights.  Fixing the classical parts
    keeps the total work of a stream nearly the same from seed to seed.
    Inputs are picked with cheap, cache-free engine lookups (Ext tables, wall
    data, head weights).
    """
    from qgl3.ext import ext1_g1
    from qgl3.homs import zhat_head_weight
    from qgl3.lattice import FacetType, Weight, affine_reflect, facet_classify
    from qgl3.translate import wall_weight_below

    rng = random.Random(seed)

    pools: dict[tuple[str, int], list] = {}

    def cycle(key, items):
        """The next of ``items`` in seeded orders that run through all of them
        before repeating, so every stream holds nearly the same mix."""
        pool = pools.setdefault(key, [])
        if not pool:
            pool.extend(items)
            rng.shuffle(pool)
        return pool.pop()

    def restricted(kind, l):
        return cycle((kind, l), [Weight(a, b) for a in range(l) for b in range(l)])

    ext_pairs = {}

    def ext_query(l, lc):
        if l not in ext_pairs:
            res = [Weight(a, b) for a in range(l) for b in range(l)]
            ext_pairs[l] = [
                (a, b, v)
                for a in res
                for b in res
                if (v := ext1_g1(a, b, l)) and any(p != "k" for p in v.parts)
            ]
        mr, lr, value = cycle(("ext", l), ext_pairs[l])
        if rng.random() < 0.5:  # a neighbour of lc that the Pieri rule links
            part = rng.choice([p for p in value.parts if p != "k"])
            step = rng.choice(_FUND[tuple(part)])
            mc = Weight(lc[0] + step[0], lc[1] + step[1])
            if not mc.is_dominant():
                mc = lc
        else:
            m = spec.max_classical[l]
            mc = Weight(rng.randint(0, m), rng.randint(0, m))
        return Query("ext", l, (l * mc + mr, l * lc + lr), _pieri_ext(value, mc, lc))

    def translate_query(l, cls):
        m = spec.max_classical[l]
        for attempt in range(10_000):
            if attempt >= 64:  # no restricted part of cls works: move cls too
                cls = Weight(rng.randint(0, m), rng.randint(0, m))
            lam = l * cls + restricted("translate", l)
            if facet_classify(lam, l) not in (FacetType.DOWN_ALCOVE, FacetType.UP_ALCOVE):
                continue
            try:
                _, (root, value) = wall_weight_below(lam, l)
            except ValueError:
                continue
            if affine_reflect(lam, root, value, 1).is_dominant():
                return Query("translate", l, (lam,))
        raise RuntimeError(f"no translatable weight found at l={l}")

    def hom_query(l, cls):
        style = rng.randrange(3) if min(cls) >= 1 else rng.randrange(1, 3)
        while True:
            lam = l * cls + restricted("hom", l)
            if style == 0:  # a down-alcove weight and the head of its Borel-induced module
                if facet_classify(lam, l) is not FacetType.DOWN_ALCOVE:
                    continue
                mu = zhat_head_weight(lam, l)
            elif style == 1:  # a dot-mirror image in a random wall
                root, pairing = rng.choice(_ROOTS)
                c = pairing(lam) - rng.randint(1, max(1, pairing(lam) // l)) * l
                mu = Weight(lam[0] - c * root[0], lam[1] - c * root[1])
            else:  # an arbitrary weight below in the dominance order
                k1, k2 = rng.randint(0, 2 * l), rng.randint(0, 2 * l)
                mu = Weight(lam[0] - 2 * k1 + k2, lam[1] + k1 - 2 * k2)
            if mu.is_dominant():
                return Query("hom", l, (lam, mu), _mirror_witness_exists(lam, mu, l))

    makers = {
        "ext": ext_query,
        "alt": lambda l, cls: Query("alt", l, (l * cls + restricted("alt", l),)),
        "lfilt": lambda l, cls: Query("lfilt", l, (l * cls + restricted("lfilt", l),)),
        "translate": translate_query,
        "hom": hom_query,
    }
    queries = [
        makers[kind](l, Weight(a, b))
        for kind, count in QUERIES_PER_PART.items()
        for l, m in spec.max_classical.items()
        for a in range(m + 1)
        for b in range(m + 1)
        for _ in range(count)
    ]
    rng.shuffle(queries)
    return queries


def answer(q: Query) -> bool:
    """Answer one query through the engine and run its exact check."""
    from qgl3.charring import weyl_char, weyl_char_alternating
    from qgl3.ext import ext1_g
    from qgl3.homs import hom_exists_mirror, witness_valid
    from qgl3.structure import nabla_l_filtration, validate_graph
    from qgl3.translate import translated_character

    if q.kind == "ext":
        mu, lam = q.args
        return ext1_g(mu, lam, q.l) == q.expect
    if q.kind == "alt":
        (lam,) = q.args
        return weyl_char_alternating(lam) == weyl_char(lam)
    if q.kind == "lfilt":
        (lam,) = q.args
        return validate_graph(nabla_l_filtration(lam, q.l)).ok
    if q.kind == "translate":
        (lam,) = q.args
        total, mirror = translated_character(lam, q.l)
        return total == weyl_char(lam) + weyl_char(mirror)
    if q.kind == "hom":
        lam, mu = q.args
        w = hom_exists_mirror(lam, mu, q.l, 0)
        return (w is not None) == q.expect and (w is None or witness_valid(lam, mu, w, q.l, 0))
    raise ValueError(f"unknown query kind {q.kind!r}")


def run_queries(queries: list[Query]) -> Outcome:
    out = Outcome(attempted=len(queries) or 1, failed=0 if queries else 1)
    if not queries:
        out.errors.append("the query stream is empty")
    for q in queries:
        stretch = out.pace.tick()
        t0 = time.perf_counter()
        try:
            ok = answer(q)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed query
            ok = False
            out.errors.append(f"{q} raised {exc!r}")
        out.units.append((f"query.{q.kind}", time.perf_counter() - t0, stretch))
        if not ok:
            out.failed += 1
            if len(out.errors) < 20:
                out.errors.append(f"check failed: {q}")
    out.pace.mark()
    return out
