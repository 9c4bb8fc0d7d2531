"""The three benchmark workloads: inputs, requests and correctness checks.

Each workload builds its inputs in its constructor (the timed set-up),
then serves a fixed list of requests.  ``run`` returns the request's
output as text, plus the objects the check needs; ``check`` returns None
for a correct output, or a Failure.  The checks never ask the code under
test for the expected answer: they compare with the golden reports, with
reference/groups.json (the groups outputs recorded when the benchmark was
added, equal to what ``tamecount classify`` and ``classes`` printed), and
with invariants checked in plain arithmetic here.

golden   The six requests of tests/golden/golden_manifest.txt, resolved
         fresh per request as ``batch --jobs 1`` does.  The published
         workload; about 99% of its time is in the exact LP.
groups   Group-structure requests with no LP: classify plus witness
         selection on orders 24..128, ``classes`` up to order 2048.
         ``classify wreath(4T3,C3)`` is left out: it does not finish
         within 5 minutes (normal_subgroups at order 1536).
probes   Seeded line thresholds and open hull-membership queries on region
         sets built in set-up: many small feasibility LPs, infeasible
         phase-1 runs and the dyadic margin search.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tamecount.catalog as catalog
import tamecount.cli as cli
import tamecount.concentration as concentration
import tamecount.hull_lp as hull_lp
import tamecount.perm as perm
import tamecount.regions as regions_mod


@dataclass
class Request:
    id: str
    args: tuple
    layers: tuple = ()   # spans a traced run must record for this request


@dataclass
class Failure:
    reason: str
    known: bool = False  # a documented defect of the program, still counted


@dataclass
class Result:
    text: str
    detail: object = field(default=None, repr=False)


def resolve(spec, tr):
    """Resolve a catalog spec, then force closure and classes as two spans."""
    entry = catalog.resolve_entry(spec)
    with tr.span("perm.closure") as attrs:
        attrs["order"] = len(entry.group.elements)
    with tr.span("perm.classes") as attrs:
        attrs["classes"] = len(entry.group.conjugacy_classes())
    return entry


# ---------------------------------------------------------------------------
# plain-tuple group checks (images are 1-based tuples)
# ---------------------------------------------------------------------------

def _compose(a, b):
    """x -> a(b(x))."""
    return tuple(a[i - 1] for i in b)


def _inverse(a):
    out = [0] * len(a)
    for i, image in enumerate(a, start=1):
        out[image - 1] = i
    return tuple(out)


def witness_problem(elements, generators, order):
    """Why `elements` is not a proper abelian normal subgroup, or None."""
    elems = set(elements)
    if not 1 < len(elems) < order:
        return f"witness of size {len(elems)} in a group of order {order}"
    for a in elems:
        for b in elems:
            ab = _compose(a, b)
            if ab != _compose(b, a):
                return "witness elements do not commute"
            if ab not in elems:
                return "witness is not closed under composition"
    for h in generators:
        h_inv = _inverse(h)
        if any(_compose(h_inv, _compose(x, h)) not in elems for x in elems):
            return "witness is not closed under conjugation"
    return None


# ---------------------------------------------------------------------------
# golden
# ---------------------------------------------------------------------------

GOLDEN_LAYERS = ("catalog.resolve", "perm.closure", "perm.classes", "ramtypes.tame_types",
                 "concentration.witnesses", "perm.normal_subgroups", "asymptotics.analyze",
                 "regions.matrix", "regions.build_region", "hull_lp.threshold",
                 "hull_lp.membership", "hull_lp.lp_solve", "cli.serialize", "hull_lp.verify")


class Golden:
    name = "golden"

    def __init__(self, root: Path, seed: int, smoke: bool = False):
        del seed  # a fixed list
        self.dir = root / "tests" / "golden"
        items = cli._parse_manifest(self.dir / "golden_manifest.txt")
        if smoke:  # the D4 requests reach every layer in well under a second each
            items = [(n, parts) for n, parts in items if parts[0] in ("4T3", "8T4")][:2]
        self.requests = [Request(f"{lineno:04d} {' '.join(parts[:3])}", (lineno, parts),
                                 GOLDEN_LAYERS) for lineno, parts in items]
        self.expected = {lineno: json.loads((self.dir / f"report_{lineno:04d}.json")
                                            .read_text(encoding="utf-8"))
                         for lineno, _ in items}
        self._regions = {}

    def run(self, request, tr):
        report = cli.run_analysis_request(*request.args[1])
        with tr.span("cli.serialize"):
            text = cli.canonical_json(report.to_json_dict())
        return Result(text)

    def _reference_regions(self, parts):
        """Regions rebuilt through the public functions, for the certificate check."""
        if parts not in self._regions:
            label, weight, profile, cyc_spec, witnesses = parts
            if witnesses != "auto":
                raise ValueError("the golden check rebuilds 'auto' witnesses only")
            entry = catalog.resolve_entry(label)
            cyc = catalog.resolve_cyclotomic(cyc_spec)
            types = entry.types(cyc)
            wt = catalog.resolve_weight(weight, entry, types)
            prof = regions_mod.make_profile(profile, types, cyc)
            chosen = concentration.analysis_witnesses(entry.group, types, wt)
            matrix = regions_mod.subconvexity_matrix(entry.group, types, prof, cyc)
            self._regions[parts] = [regions_mod.build_region(entry.group, T, types, prof, cyc,
                                                             matrix=matrix)
                                    for T in chosen]
        return self._regions[parts]

    def check(self, request, result, tr):
        lineno, parts = request.args
        got = json.loads(result.text)
        want = self.expected[lineno]
        differ = sorted(k for k in set(got) | set(want)
                        if k != "certificate" and got.get(k) != want.get(k))
        if differ:
            return Failure(f"fields differ from report_{lineno:04d}.json: {differ}")
        if got["certificate"] is None:
            return Failure("no certificate")
        with tr.paused():
            regions = self._reference_regions(parts)
        cert = hull_lp.certificate_from_json(got["certificate"])
        point = {v: Fraction(s) for v, s in got["pole_point"].items()}
        if not hull_lp.verify_certificate(cert, regions, point):
            return Failure("certificate does not verify against rebuilt regions")
        return None


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

# (spec, order from the construction: |A x B|, or |A|^deg(B) * |B| for a wreath)
CLASSIFY_GROUPS = [("product(4T3,C3)", 24), ("product(4T3,S3)", 48),
                   ("wreath(C2,C4)", 64), ("wreath(4T3,C2)", 128)]
CLASSES_GROUPS = CLASSIFY_GROUPS + [("wreath(4T3,C3)", 1536), ("wreath(C2,C8)", 2048)]
REFERENCE = Path(__file__).resolve().parent / "reference" / "groups.json"


def _cycles(subgroup):
    return sorted(g.cycle_string() for g in subgroup if not g.is_identity())


class Groups:
    name = "groups"

    def __init__(self, root: Path, seed: int, smoke: bool = False):
        del root, seed  # a fixed list
        classify_list, classes_list = CLASSIFY_GROUPS, CLASSES_GROUPS
        if smoke:
            classify_list, classes_list = CLASSIFY_GROUPS[:1], CLASSES_GROUPS[4:5]
        base = ("catalog.resolve", "perm.closure", "perm.classes", "ramtypes.tame_types",
                "cli.serialize")
        self.requests = [Request(f"classify {spec}", ("classify", spec, order),
                                 base + ("concentration.classify", "concentration.witnesses",
                                         "perm.normal_subgroups"))
                         for spec, order in classify_list]
        self.requests += [Request(f"classes {spec}", ("classes", spec, order), base)
                          for spec, order in classes_list]
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.cyc = catalog.resolve_cyclotomic("Q")

    def run(self, request, tr):
        kind, spec, _ = request.args
        entry = resolve(spec, tr)
        types = entry.types(self.cyc)
        G = entry.group
        if kind == "classify":
            wt = catalog.resolve_weight("disc", entry, types)
            verdict = concentration.classify(G, wt, types)
            chosen = concentration.analysis_witnesses(G, types, wt)
            data = {"group": entry.label, "weight": wt.name, "status": verdict.status,
                    "fitting_status": verdict.fitting_status,
                    "min_weight": str(verdict.min_weight),
                    "min_types": list(verdict.min_type_labels),
                    "witnesses": [_cycles(W) for W in verdict.witnesses],
                    "analysis_witnesses": [_cycles(W) for W in chosen]}
            detail = list(verdict.witnesses) + chosen
        else:
            rows = [{"label": t.label, "size": t.size, "order": t.order,
                     f"index{G.degree}": perm.index_of(t.representative)}
                    for t in sorted(types, key=lambda t: (t.order, t.label))]
            data = {"group": entry.label, "degree": G.degree, "classes": rows}
            detail = [c.size for c in G.conjugacy_classes()]
        with tr.span("cli.serialize"):
            text = cli.canonical_json(data)
        gens = [g.images for g in G.generators]
        return Result(text, (gens, detail))

    def check(self, request, result, tr):
        kind, _, order = request.args
        gens, detail = result.detail
        data = json.loads(result.text)
        if data != self.reference.get(request.id):
            return Failure("output differs from the recorded reference")
        if kind == "classify":
            for W in detail:
                problem = witness_problem([g.images for g in W], gens, order)
                if problem:
                    return Failure(problem)
        else:
            if sum(detail) != order:
                return Failure(f"class sizes sum to {sum(detail)}, not {order}")
            if sum(row["size"] for row in data["classes"]) != order - 1:
                return Failure(f"type sizes do not sum to {order - 1}, the nonidentity "
                               "elements")
        return None


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

PROBE_SETS = [("4T3", "disc"), ("8T4", "disc"), ("4T3", "cond-d4")]
SUB_FLOOR = 1 + Fraction(1, 2 ** 22)   # margin below the 2^-20 dyadic floor
LADDER = [Fraction(1, 2), Fraction(99, 100), Fraction(1), 1 + Fraction(1, 1000),
          1 + Fraction(1, 100), Fraction(3, 2), SUB_FLOOR]


# The exact simplex's cost depends sharply on the direction: the same ladder
# step cost up to 2x more on one arrangement of the weights (1,1,2,3) than on
# another, and with seeded arrangements a pass moved by +-7% and its slowest
# probe by +-17% from seed to seed.  So each ladder copy has one fixed
# arrangement, and the seed draws a positive multiple of it: the probed
# point s * thr * w does not depend on the multiple, the LP inputs do.
DIRECTIONS = ((2, 1, 3, 1), (1, 3, 2, 1))


def _scale_name(s):
    return "1+2^-22" if s == SUB_FLOOR else str(s)


class Probes:
    """One pass: the ladder twice, the region sets in round robin, the
    probes in seeded order, each along a seeded multiple w of its ladder
    copy's direction.  A probe solves the threshold along w, then asks open
    membership of s * thr * w, which lies in the open hull iff s > 1."""

    name = "probes"

    def __init__(self, root: Path, seed: int, smoke: bool = False):
        del root
        cyc = catalog.resolve_cyclotomic("Q")
        self.regions = {}
        for label, weight in PROBE_SETS:
            entry = catalog.resolve_entry(label)
            types = entry.types(cyc)
            wt = catalog.resolve_weight(weight, entry, types)
            prof = regions_mod.make_profile("paper-d4", types, cyc)
            chosen = concentration.analysis_witnesses(entry.group, types, wt)
            matrix = regions_mod.subconvexity_matrix(entry.group, types, prof, cyc)
            self.regions[(label, weight)] = [
                regions_mod.build_region(entry.group, T, types, prof, cyc, matrix=matrix)
                for T in chosen]
        rng = random.Random(seed)
        probes = [(PROBE_SETS[i % len(PROBE_SETS)], s, direction)
                  for i, (direction, s) in enumerate((d, s) for d in DIRECTIONS
                                                     for s in LADDER)]
        self.requests = []
        for i, (key, s, direction) in enumerate(rng.sample(probes, len(probes))):
            variables = self.regions[key][0].variables
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            w = dict(zip(variables, (c * x for x in direction)))
            name = (f"probe {i:02d} {key[0]} {key[1]} s={_scale_name(s)} "
                    f"w=({','.join(str(w[v]) for v in variables)})")
            layers = ("hull_lp.threshold", "hull_lp.membership", "hull_lp.lp_solve")
            if s > 1:
                layers += ("hull_lp.verify",)
            self.requests.append(Request(name, (key, s, w), layers))
        if smoke:  # the two cheap probes deep inside the hull
            self.requests = [r for r in self.requests if r.args[1] == Fraction(3, 2)]

    def run(self, request, tr):
        key, s, w = request.args
        regions = self.regions[key]
        thr = hull_lp.line_threshold(w, regions)
        point = {v: s * thr * w[v] for v in w}
        member, cert = hull_lp.hull_membership(point, regions, mode="open")
        variables = regions[0].variables
        text = json.dumps({"threshold": hull_lp.rational_str(thr), "inside": member,
                           "certificate": None if cert is None
                           else cert.to_json_dict(variables)}, sort_keys=True)
        return Result(text, (thr, point, member, cert))

    def check(self, request, result, tr):
        key, s, _ = request.args
        thr, point, member, cert = result.detail
        if thr <= 0:
            return Failure(f"threshold {thr} is not positive")
        if member != (s > 1):
            if s == SUB_FLOOR and not member:
                return Failure("inside the open hull but reported outside: the margin "
                               "is below the 2^-20 dyadic floor", known=True)
            return Failure(f"reported {'inside' if member else 'outside'} at s={s}")
        if member:
            if cert.epsilon <= 0:
                return Failure("open-mode certificate has no positive margin")
            if not hull_lp.verify_certificate(cert, self.regions[key], point):
                return Failure("certificate does not verify")
        return None


WORKLOADS = {w.name: w for w in (Golden, Groups, Probes)}
