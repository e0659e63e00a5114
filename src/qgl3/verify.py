"""Verification sweeps: every module's exact identities over weight boxes.

A suite is called as suite(l, parts) for one l and a list of classical
parts, mostly on the weights l*cls + r with r restricted, and yields
(case, identity, observed, ok) tuples; a VerifyReport aggregates them.
run_suite builds a suite's parts once from the box (_DOMAINS): a serial
sweep hands the suite all of them, --jobs one slice per task.  No suite
builds a per-l table of characters or expands a chi_l: _numerator_sum reads
the numerator of a restricted simple when a factor first uses it, so a
chunk builds only what its slice needs.
A suite visits each weight as an int pair and names its case from the
ints, as str(Weight) prints them.  All checks are exact integer identities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from qgl3 import decomp
from qgl3.charring import (
    alt_weyl_sum,
    chi_l_dimension,
    coeff_diff,
    divide_by_weyl_denominator,
    restricted_simple_numerator,
    weyl_char,
    weyl_char_alternating,
    weyl_dimension,
    weyl_sum,
)
from qgl3.decomp import chi_decomposition, zhat_char, zhat_numerator
from qgl3.ext import ext1_g, ext1_g1, ext1_g1b_general, ext_table
from qgl3.homs import hom_exists_mirror, witness_valid, zhat_head_weight
from qgl3.lattice import (
    RHO,
    FacetType,
    PositiveRoot,
    Weight,
    check_level,
    facet_classify,
    fundamental_rep,
)
from qgl3.structure import nabla_l_filtration, validate_graph, zhat_structure
from qgl3.translate import translate_factor_lists, translate_onto_wall

Case = tuple[str, str, str, bool]


@dataclass
class VerifyReport:
    suite: str
    cases_run: int = 0
    failures: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """A sweep passes only when it checked something and nothing failed."""
        return self.cases_run > 0 and not self.failures


def _weights(l: int, parts: list[Weight]) -> Iterator[tuple[Weight, tuple[int, int], str]]:
    """(cls, lam, name) for each classical part and restricted weight r:
    lam = l*cls + r as an int pair, and the name of its case, which prints
    lam as str(Weight) does."""
    residues = list(itertools.product(range(l), repeat=2))
    for cls in parts:
        la, lb = l * cls[0], l * cls[1]
        for r, s in residues:
            x, y = la + r, lb + s
            yield cls, (x, y), f"({x},{y})"


def suite_denominator(l: int, parts: list[Weight]) -> Iterator[Case]:
    a_rho = alt_weyl_sum(RHO)
    for lam in parts:
        weyl = weyl_char(lam)
        observed = coeff_diff(alt_weyl_sum(lam + RHO).coeffs, (weyl * a_rho).coeffs)
        yield (f"lam={lam}", "A(lam+rho) = weyl(lam)*A(rho)", observed, observed == "ok")
        observed = coeff_diff(weyl_char_alternating(lam).coeffs, weyl.coeffs)
        yield (f"lam={lam}", "quotient path = tableau path", observed, observed == "ok")


def suite_dimension(l: int, parts: list[Weight]) -> Iterator[Case]:
    for lam in parts:
        d = weyl_char(lam).dimension
        want = weyl_dimension(lam)
        yield (f"lam={lam}", f"dim = {want}", str(d), d == want)


def _numerator_sum(factors, l: int, numerators: dict, dims: dict) -> tuple[dict, int]:
    """The sum of e(f - r) * N(r) over the factors f = l*c + r, N(r) the
    numerator of L(r), zeros dropped, and the sum of dim L(r); N(r) and
    dim L(r) are read into numerators and dims when a factor first uses r."""
    acc: dict[tuple[int, int], int] = {}
    get = acc.get
    dim = 0
    for a, b in factors:
        r = (a % l, b % l)
        if r not in numerators:
            numerators[r] = restricted_simple_numerator(r, l).coeffs
            dims[r] = chi_l_dimension(r, l)
        ta, tb = a - r[0], b - r[1]
        for (x, y), m in numerators[r].items():
            k = (x + ta, y + tb)
            acc[k] = get(k, 0) + m
        dim += dims[r]
    return {k: c for k, c in acc.items() if c}, dim


def _shift_diff(family, base, la: int, lb: int) -> str:
    """"" when the (facet, factors) family is the base family shifted by
    (la, lb), else the first thing that breaks the shift."""
    if family[0] is not base[0] or len(family[1]) != len(base[1]):
        return f"{family[0].name} of {len(family[1])} factors, r has {base[0].name} of {len(base[1])}"
    for i, ((a, b), (x, y)) in enumerate(zip(family[1], base[1]), start=1):
        if (a - la, b - lb) != (x, y):
            return f"factor {i} {Weight(a, b)} != l*c + {Weight(x, y)}"
    return ""


def suite_decomposition(l: int, parts: list[Weight]) -> Iterator[Case]:
    """The identity sum of chi_l over the family of lam = l*c + r = weyl(lam),
    proven from r: times A(rho)*A(l*rho) its defect is the sum over the Weyl
    group of w(e(l*c) * D(r)), D(r) = e(l*rho) * (the _numerator_sum of the
    family of r - zhat_numerator(r)).  A case passes when lam's family is
    r's shifted by l*c (a failure names the first factor that breaks it)
    and D(r) = 0, checked once per r (a failure names r and the first
    differing terms).  Families are read off decomp.family_pairs at call
    time, without the memo."""
    numerators: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    dims: dict[tuple[int, int], int] = {}
    residues: dict[tuple[int, int], tuple] = {}  # r -> (family of r, D(r) text)
    for cls, lam, name in _weights(l, parts):
        la, lb = l * cls[0], l * cls[1]
        r = (lam[0] - la, lam[1] - lb)
        if r not in residues:
            base = decomp.family_pairs(r, l)
            observed = coeff_diff(_numerator_sum(base[1], l, numerators, dims)[0],
                                  zhat_numerator(r, l).coeffs)
            residues[r] = (base, "" if observed == "ok" else f"D(r) at r={Weight(*r)}: {observed}")
        base, residue = residues[r]
        shift = _shift_diff(decomp.family_pairs(lam, l), base, la, lb)
        observed = "; ".join(d for d in (shift, residue) if d) or "ok"
        yield (
            f"l={l} lam={name}",
            "sum of chi_l factors = weyl character",
            observed,
            observed == "ok",
        )


def suite_zhat(l: int, parts: list[Weight]) -> Iterator[Case]:
    """The identity sum of ch L^(nu) over zhat_factors(lam) = zhat_char(lam),
    multiplied by A(rho), which is injective on ZX.  A factor nu = l*c + r
    then contributes e(l*c) times the numerator of L(r), at most 12 terms,
    and the right side is zhat_numerator(lam) (_numerator_sum, with the
    dimension count).  Once per l, zhat_numerator(0) divided by A(rho) must
    be zhat_char(0), and an inexact division fails with its message.  A
    case fails with every part that differs: its own sum, the check of
    zhat_char and the dimension count."""
    numerators: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    dims: dict[tuple[int, int], int] = {}
    zero = Weight(0, 0)
    zc = zhat_char(zero, l)
    try:
        quotient = divide_by_weyl_denominator(zhat_numerator(zero, l))
    except ValueError as exc:
        observed = str(exc)
    else:
        observed = coeff_diff(quotient.coeffs, zc.coeffs)
    shared = [] if observed == "ok" else [f"zhat_numerator / A(rho): {observed}"]
    if zc.dimension != l**3:
        shared.append(f"zhat_char dim {zc.dimension}")
    for _, lam, name in _weights(l, parts):
        got, dim = _numerator_sum(decomp.family_pairs(lam, l)[1], l, numerators, dims)
        observed = coeff_diff(got, zhat_numerator(lam, l).coeffs)
        diffs = [] if observed == "ok" else [f"times A(rho): {observed}"]
        diffs += shared
        if dim != l**3:
            diffs.append(f"dim {dim}")
        observed = "; ".join(diffs) or "ok"
        yield (
            f"l={l} lam={name}",
            "sum of simple characters = induced character, dim l^3",
            observed,
            observed == "ok",
        )


def _chi_l_keys(got, induced, l: int) -> str:
    """sum of chi_l over the dominant weights got = sum of weyl(mu) over
    induced, checked on chi_l keys: weyl(mu) is the sum of n * chi_l(k)
    over decomp.nabla_terms(mu, l), by D(r) = 0, and the chi_l(l*d + r)
    with d dominant are linearly independent."""
    want = weyl_sum(decomp.nabla_terms(mu, l) for mu in induced)
    return coeff_diff(decomp.net_terms(tuple(got), l), want)


def suite_translate(l: int, parts: list[Weight]) -> Iterator[Case]:
    """The translate into lam's facet of the wall weight below lam, for
    each alcove weight lam (each non-vertex weight at l = 2) that has a
    dominant wall point below: when the mirror of lam is dominant, the chi_l
    of its modules sum to weyl(lam) + weyl(mirror), its factor count is 18
    (8 at l = 2) if it is generic (WallTranslate.generic), and at l >= 3 the
    onto-wall images of the surviving factors of lam sum to the image of
    lam when that survives.  Both identities are checked on chi_l keys
    (_chi_l_keys), and a failure names the keys that differ."""
    for cls, lam, name in _weights(l, parts):
        facet = facet_classify(lam, l)
        if l >= 3 and facet not in (FacetType.DOWN_ALCOVE, FacetType.UP_ALCOVE):
            continue
        if l == 2 and facet is FacetType.VERTEX:
            continue
        if cls == (0, 0) and facet in (FacetType.DOWN_ALCOVE, FacetType.HORIZONTAL_WALL):
            continue  # no dominant wall point below
        case = f"l={l} lam={name}"
        identity = "translate character = weyl(lam) + weyl(mirror)"
        try:
            t = translate_factor_lists(lam, l)
        except ValueError as exc:
            yield (case, identity, str(exc), False)
            continue
        if not t.mirror.is_dominant():
            continue
        observed = _chi_l_keys(t.modules, (lam, t.mirror), l)
        yield (case, identity, observed, observed == "ok")
        if l >= 3:  # onto the wall (0, l-2) of the fundamental domain
            rep, _ = fundamental_rep(lam, l)
            wall_rep = (0, l - 2)
            identity = "onto-wall factor characters = image character"
            try:
                image = translate_onto_wall(lam, rep, wall_rep, l)
                if image is not None:
                    survivors = chi_decomposition(lam, l).surviving_factors()
                    images = (translate_onto_wall(f, rep, wall_rep, l) for f in survivors)
                    observed = _chi_l_keys((x for x in images if x is not None), (image,), l)
                    yield (case, identity, observed, observed == "ok")
            except ValueError as exc:
                yield (case, identity, str(exc), False)
        if t.generic:
            want = 8 if l == 2 else 18
            n = t.factor_count
            yield (case, f"generic factor count = {want}", str(n), n == want)


def suite_graphs(l: int, parts: list[Weight]) -> Iterator[Case]:
    # the builders are read by name on each call, so a wrapper bound in this
    # module's namespace (a tracer's) sees every build
    cases = (
        ("zhat", zhat_structure, "all structure-graph checks"),
        ("lfilt", nabla_l_filtration, "filtration nodes and survivors"),
    )
    for _, lam, name in _weights(l, parts):
        lam = Weight(*lam)  # the graphs carry it
        for tag, build, identity in cases:
            case = f"l={l} lam={name} {tag}"
            try:
                rep = validate_graph(build(lam, l))
            except ValueError as exc:  # a kept factor with no layer, a bad factor list
                yield (case, identity, str(exc), False)
                continue
            ok = rep.ok
            yield (case, identity, "ok" if ok else str(rep.failures()), ok)


def suite_ext_lemmas(l: int, parts: list[Weight]) -> Iterator[Case]:
    """Ext^1_G between simples in the wall and alcove families of the
    lemmas, the Steinberg and label-dual symmetries of Ext^1_G1, all of
    which depend on l alone, and the Ext tables of the weights of each
    classical part against the general thickened-kernel rule."""

    def check(name, mu, lam, want):
        got = ext1_g(mu, lam, l)
        return (f"l={l} {name} {mu}->{lam}", f"dim = {want}", str(got), got == want)

    for r in range(l - 1):
        s = l - 2 - r
        yield check("wall-high", Weight(r, s), Weight(2 * l - 1, r), 1)
        yield check("wall-high-dual", Weight(r, s), Weight(s, 2 * l - 1), 1)
        yield check("wall-split", Weight(r, s), Weight(l + r, l + s), 1 if l == 3 else 0)
        yield check("wall2-a", Weight(l - 1, r), Weight(r, l + s), 1)
        yield check("wall2-b", Weight(s, l - 1), Weight(l + r, s), 1)
        yield check("wall2-zero-a", Weight(l - 1, r), Weight(l + s, l - 1), 0)
        yield check("wall2-zero-b", Weight(s, l - 1), Weight(l - 1, l + r), 0)
    for r in range(l - 2):
        for s in range(l - 2 - r):
            up = Weight(l - s - 2, l - r - 2)
            down = Weight(r, s)
            for nu, want in (
                (down, 1),
                (Weight(l + s, l - r - s - 3), 1),
                (Weight(l - r - s - 3, l + r), 1),
                (up, 0),
                (Weight(2 * l - s - 2, l - r - 2), 0),
                (Weight(l - s - 2, 2 * l - r - 2), 0),
                (Weight(l + r, l + s), 0),
            ):
                yield check("upalc", up, nu, want)
            for nu, want in (
                (up, 1),
                (Weight(l - r - 2, l + r + s + 1), 1),
                (Weight(l + r + s + 1, l - s - 2), 1),
                (down, 0),
                (Weight(l + s, l - r - s - 3), 0),
                (Weight(l - r - s - 3, l + r), 0),
                (Weight(s, 3 * l - r - s - 3), 0),
                (Weight(3 * l - r - s - 3, r), 0),
                (Weight(2 * l - s - 2, 2 * l - r - 2), 0),
                (Weight(l + r, l + s), 1 if l == 3 else 0),
            ):
                yield check("downalc", down, nu, want)
    # Ext with the Steinberg weight vanishes both ways; triple entries are
    # label-dual across the diagonal.
    st = (l - 1, l - 1)
    for beta in itertools.starmap(Weight, itertools.product(range(l), repeat=2)):
        ok = not ext1_g1(st, beta, l) and not ext1_g1(beta, st, l)
        yield (f"l={l} steinberg {beta}", "Ext vanishes", "ok" if ok else "nonzero", ok)
    for r in range(l - 1):
        s = l - 2 - r
        triple = (Weight(r, s), Weight(l - 1, r), Weight(s, l - 1))
        for alpha in triple:
            for beta in triple:
                ok = ext1_g1(alpha, beta, l) == ext1_g1(beta, alpha, l).label_dual()
                yield (f"l={l} swap {alpha},{beta}", "label-dual symmetry", "ok" if ok else "broken", ok)
    # Tables against the general thickened-kernel rule, one weight per facet.
    for _, mu, name in _weights(l, parts):
        try:
            factors, pairs = ext_table(mu, l)
        except ValueError as exc:  # a degenerate factor list
            yield (f"l={l} table mu={name}", "table entry = general rule", str(exc), False)
            continue
        for i, a in enumerate(factors, start=1):
            for j, b in enumerate(factors, start=1):
                t = int((i, j) in pairs)
                g = ext1_g1b_general(a, b, l)
                yield (
                    f"l={l} table mu={name} {a}->{b}",
                    "table entry = general rule",
                    f"{t} vs {g}",
                    t == g,
                )


def suite_homs(l: int, parts: list[Weight]) -> Iterator[Case]:
    """Per down-alcove weight, three cases: a rho witness onto the head
    weight, none back, none on the diagonal.  A ValueError from the head
    weight or a witness fails all three with its text."""
    names = ("rho witness onto the head weight", "antisymmetric", "no witness on the diagonal")
    for _, lam, name in _weights(l, parts):
        if facet_classify(lam, l) is not FacetType.DOWN_ALCOVE:
            continue
        try:
            head = zhat_head_weight(lam, l)
            w = hom_exists_mirror(lam, head, l)
            ok = w is not None and w.beta is PositiveRoot.RHO and witness_valid(lam, head, w, l)
            back = hom_exists_mirror(head, lam, l) if head.is_dominant() else None
            same = hom_exists_mirror(lam, lam, l)
            results = ((str(w), ok), (str(back), back is None), (str(same), same is None))
        except ValueError as exc:
            results = ((str(exc), False),) * 3
        for identity, (observed, passed) in zip(names, results):
            yield (f"l={l} lam={name}", identity, observed, passed)


SUITES = {
    "denominator": suite_denominator,
    "dimension": suite_dimension,
    "decomposition": suite_decomposition,
    "zhat": suite_zhat,
    "translate": suite_translate,
    "graphs": suite_graphs,
    "ext-lemmas": suite_ext_lemmas,
    "homs": suite_homs,
}


def _box(box: int) -> list[Weight]:
    return [Weight(a, b) for a, b in itertools.product(range(box + 1), repeat=2)]


# The classical parts a suite sweeps, where they are not the box [0, box]^2.
# ext-lemmas has one part, so its checks that depend on l alone run once per l.
_DOMAINS = {
    "translate": lambda box: _box(max(2, min(box, 3))),
    "ext-lemmas": lambda box: [Weight(2, 2)],
    "homs": lambda box: [c for c in _box(box) if c.a >= 1 and c.b >= 1],
}


def _suite_chunk(name: str, l: int, parts: list[Weight], record=None) -> tuple[int, list]:
    """Run a suite at one l over classical parts.  Returns the case count
    and a list of the (case, identity, observed) failures, unless record
    takes each one as it happens (the serial sweep's streaming recorder)."""
    count = 0
    failures = []
    record = record or failures.append
    for case in SUITES[name](l, parts):
        count += 1
        if not case[3]:
            record(case[:3])
    return count, failures


def check_sweep(name: str, l_values: list[int], box: int, jobs: int = 1) -> None:
    """ValueError when name is not a suite, box is negative, jobs is below 1,
    or an l is below 2 or given twice (its cases would run and count twice);
    run_suite runs nothing until these hold."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if box < 0:
        raise ValueError(f"need box >= 0, got {box}")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    for i, l in enumerate(l_values):
        check_level(l)
        if l in l_values[:i]:
            raise ValueError(f"l={l} is given twice")


def run_suite(
    name: str, l_values: list[int], box: int, stream=None, jobs: int = 1
) -> VerifyReport:
    check_sweep(name, l_values, box, jobs)
    report = VerifyReport(name)
    # the one domain of the suite; a serial sweep runs all of it, --jobs
    # splits it into at most jobs chunks per l
    parts = _DOMAINS.get(name, _box)(box)

    def record(failure) -> None:
        report.failures.append(failure)
        if stream is not None:
            print(f"FAIL {name}: {failure[0]}: {failure[1]}: got {failure[2]}", file=stream)

    if jobs == 1:
        for l in l_values:
            report.cases_run += _suite_chunk(name, l, parts, record)[0]
        return report
    from concurrent.futures import ProcessPoolExecutor, as_completed

    chunks = [parts[i::jobs] for i in range(jobs) if parts[i::jobs]]
    tasks = [(name, l, chunk) for l in l_values for chunk in chunks]
    # a fork-started pool forks all of its workers on the first submit
    with ProcessPoolExecutor(max_workers=max(1, min(jobs, len(tasks)))) as pool:
        futures = [pool.submit(_suite_chunk, *task) for task in tasks]
        for fut in as_completed(futures):
            count, failures = fut.result()
            report.cases_run += count
            for f in failures:
                record(f)
    return report
