"""The class-lattice group engine against the element-set code it replaced.

The `ref_*` functions are the previous implementations, kept verbatim
apart from their names and the class `order` field, which the reference
fills by repeated composition: the quadratic conjugacy partition, the
pairwise join-closure of normal subgroups, the Fitting subgroup as the
join of the nilpotent normal subgroups, and tame types as per-element
conjugation-plus-powering orbits.  Every catalog and ladder group up to
order 128 must give the same classes, normal subgroups, Fitting subgroup
and tame types under both.
"""
import functools

import pytest

import tamecount.perm as perm
from tamecount.catalog import resolve_entry, resolve_weight
from tamecount.cli import run_analysis_request
from tamecount.concentration import analysis_witnesses, classify
from tamecount.regions import build_region, make_profile
from _suites import ref_is_abelian_set, ref_normal_subgroup_lattice
from tamecount.perm import (ConjugacyClass, Permutation, PermutationGroup, conjugate,
                            fitting_subgroup, is_abelian_normal, is_nilpotent,
                            normal_closure, normal_subgroups, subgroup_as_group,
                            subgroup_generated, upper_central_series)
from tamecount.ramtypes import (CyclotomicProfile, TameType, _merged_label, tame_types)
from tamecount.errors import ValidationError

SPECS = ["C1", "C5", "C12", "S3", "4T3", "8T4", "8T11", "16T11",
         "product(4T3,C3)", "product(4T3,S3)", "wreath(C2,C4)", "wreath(4T3,C2)"]
# abelian: every element is its own class, and most classes are placed by
# the power walk of another class
ABELIAN = ["C60", "C210", "product(C4,C6)"]

PROFILES = {
    "Q": CyclotomicProfile.full_q(),
    # splits the order-4 types; compatible with every exponent above
    "restricted": CyclotomicProfile({4: {1}, 8: {1, 5}, 12: {1, 5}}, name="restricted"),
}


@functools.cache
def entry(spec):
    return resolve_entry(spec)


# ---------------------------------------------------------------------------
# reference implementations (the previous element-set code)
# ---------------------------------------------------------------------------

def ref_conjugacy_partition(elements):
    """Partition a group element list into conjugacy classes.

    Returns a list of sorted element lists; identity class included.
    """
    elems = sorted(elements)
    left = set(elems)
    classes = []
    for g in elems:
        if g not in left:
            continue
        cls = {conjugate(h, g) for h in elems}
        classes.append(sorted(cls))
        left -= cls
    return classes


def ref_element_order(images):
    """Smallest k >= 1 with g^k = 1, by repeated per-point composition."""
    identity = tuple(range(1, len(images) + 1))
    power, k = images, 1
    while power != identity:
        power = tuple(images[j - 1] for j in power)
        k += 1
    return k


def ref_conjugacy_classes(G):
    parts = ref_conjugacy_partition([g.images for g in G.elements])
    classes = []
    for part in parts:
        members = tuple(Permutation(t) for t in part)
        rep = members[0]
        classes.append(ConjugacyClass(representative=rep,
                                      members=frozenset(members),
                                      size=len(members),
                                      order=ref_element_order(rep.images)))
    classes.sort(key=lambda c: (c.order, c.size, c.representative.images))
    return tuple(classes)


@functools.cache  # shared by the Fitting reference; the list is never mutated
def ref_normal_subgroups(G: PermutationGroup):
    """All normal subgroups, via join-closure of class normal closures.

    Every normal subgroup is a union of conjugacy classes and equals the
    join of the normal closures of the classes it contains, so the
    join-closure of the class closures is exhaustive.
    """
    trivial = frozenset({G.identity})
    seeds = {trivial}
    for cls in G.conjugacy_classes():
        seeds.add(subgroup_generated(G, cls.members))
    known = set(seeds)
    frontier = list(seeds)
    while frontier:
        new = []
        for A in frontier:
            for B in list(known):
                join = subgroup_generated(G, A | B)
                if join not in known:
                    known.add(join)
                    new.append(join)
        frontier = new
    return sorted(known, key=lambda s: (len(s), sorted(g.images for g in s)))


def ref_fitting_subgroup(G: PermutationGroup) -> frozenset:
    """Join of all nilpotent normal subgroups."""
    fit = frozenset({G.identity})
    for N in ref_normal_subgroups(G):
        H = subgroup_as_group(G, N)
        if len(upper_central_series(H)[-1]) == H.order:
            fit = subgroup_generated(G, fit | N)
    return fit


def ref_conjugation_orbit(G: PermutationGroup, g: Permutation):
    orbit = {g.images}
    frontier = [g.images]
    gens = [h.images for h in G.generators]
    while frontier:
        x = frontier.pop()
        for h in gens:
            y = conjugate(h, x)
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def ref_type_orbit(G: PermutationGroup, g: Permutation, profile: CyclotomicProfile):
    e = g.order()
    units = profile.units_for(e)
    orbit = {g.images}
    frontier = [g.images]
    gens = [h.images for h in G.generators]
    while frontier:
        x = frontier.pop()
        new = [conjugate(h, x) for h in gens]
        xp = Permutation(x)
        new.extend((xp ** u).images for u in units)
        for y in new:
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def ref_tame_types(G: PermutationGroup, profile: CyclotomicProfile, label_pins=None):
    """All nontrivial tame types of G under the given cyclotomic profile.

    Deterministic labels: within each element order, letters A, B, ... in
    canonical order (size, then minimal member).  `label_pins` maps chosen
    representative permutations to published labels; pins landing in one
    merged type collapse to their common stem (4A1, 4A-1 -> 4A).
    """
    if not G.is_transitive():
        raise ValidationError("tame types are defined for transitive groups only")
    profile.validate_for_exponent(G.exponent())
    remaining = {g.images for g in G.elements if not g.is_identity()}
    raw = []
    while remaining:
        g = Permutation(min(remaining))
        orbit = ref_type_orbit(G, g, profile)
        if not orbit <= remaining:
            raise AssertionError("type orbits must partition the nonidentity elements")
        remaining -= orbit
        members = frozenset(Permutation(t) for t in orbit)
        rep = min(members)
        conj = len(ref_conjugation_orbit(G, rep))
        size = len(members)
        if size % conj:
            raise AssertionError("conjugation orbits inside a type have equal size")
        raw.append((rep.order(), size, rep, members, conj))
    raw.sort(key=lambda r: (r[0], r[1], r[2].images))

    pins = label_pins or {}
    types = []
    counters = {}
    for order, size, rep, members, conj in raw:
        pinned = sorted({pins[p] for p in members if p in pins})
        if len(pinned) == 1:
            label = pinned[0]
        elif len(pinned) > 1:
            label = _merged_label(pinned)
        else:
            idx = counters.get(order, 0)
            counters[order] = idx + 1
            letters = ""
            i = idx
            while True:
                letters = chr(ord("A") + i % 26) + letters
                i = i // 26 - 1
                if i < 0:
                    break
            label = f"{order}{letters}"
        types.append(TameType(label=label, members=members, order=order, size=size,
                              conj_orbit_size=conj, zeta_degree=size // conj,
                              representative=rep))
    if len({t.label for t in types}) != len(types):
        raise AssertionError("type labels must be unique")
    return types


# ---------------------------------------------------------------------------
# engine vs reference
# ---------------------------------------------------------------------------

# orders 2,048 and 1,536: the conjugation tables over several kept generators
LARGE = {"wreath(C2,C8)": 2048, "wreath(4T3,C3)": 1536}


@pytest.mark.parametrize("spec", SPECS + ABELIAN + list(LARGE))
def test_classes_and_class_index(spec):
    G = entry(spec).group
    assert G.order == LARGE[spec] if spec in LARGE else G.order <= 210
    classes = G.conjugacy_classes()
    assert classes == ref_conjugacy_classes(G)
    for i, cls in enumerate(classes):
        assert all(G.class_index(x) == i and G.class_of(x) is cls for x in cls.members)
        # the walk places against square-and-multiply
        rep, exponents = cls.representative, range(1, cls.order + 1)
        assert [G.power_class(i, u) for u in exponents] == \
            [G.class_index(rep ** u) for u in exponents]


def check_conjugation_tables(monkeypatch, G):
    """The tables a fresh copy of G builds, each checked entry by entry
    against direct conjugation, and its classes against G's."""
    fresh = PermutationGroup(G.degree, G.generators)
    built = []
    real = perm._conjugation_tables

    def recording(generators, *rest):
        made = real(generators, *rest)
        built.extend(zip(generators, made))
        return made

    monkeypatch.setattr(perm, "_conjugation_tables", recording)
    classes = fresh.conjugacy_classes()
    monkeypatch.undo()
    images = [g.images for g in fresh.elements]
    position = {x: i for i, x in enumerate(images)}
    for h, table in built:  # the position of h x h^-1 for each x in canonical order
        assert table == [position[conjugate(h, x)] for x in images]
    assert classes == G.conjugacy_classes()
    return fresh, built


@pytest.mark.parametrize("spec, kept, tables", [
    ("C60", 1, 0), ("C210", 1, 0), ("product(C4,C6)", 2, 0), ("16T11", 3, 2),
    ("wreath(C2,C8)", 2, 2), ("product(S3,C100)", 3, 2)])
def test_one_conjugation_table_per_noncentral_kept_generator(monkeypatch, spec, kept, tables):
    # a central kept generator (one of 16T11's three, every one of an
    # abelian group's, C100's in the product) would give the identity table
    # and gets none; product(S3,C100) has degree 300
    fresh, built = check_conjugation_tables(monkeypatch, entry(spec).group)
    assert len(fresh.kept) == kept
    assert len(built) == tables


@pytest.mark.parametrize("spec, block", [("8T4", 2), ("16T11", 5), ("wreath(C2,C8)", 7)])
def test_conjugation_tables_read_in_blocks(monkeypatch, spec, block):
    # blocks of block..2*block elements: 8T4 reads 2, 2 and 4, 16T11
    # 5, 5 and 6; 8T4 and 16T11 have a base of one point
    monkeypatch.setattr(perm, "_TABLE_BLOCK", block)
    _, built = check_conjugation_tables(monkeypatch, entry(spec).group)
    assert built


def greedy_base(images):
    """The lexicographically first base by brute force: each point that some
    element fixing every earlier base point moves."""
    base, fixing = [], images
    for b in range(1, len(images[0]) + 1):
        if any(x[b - 1] != b for x in fixing):
            base.append(b)
            fixing = [x for x in fixing if x[b - 1] == b]
    return base


@pytest.mark.parametrize("spec", SPECS + ABELIAN + list(LARGE))
def test_bisected_base_is_the_greedy_base(spec):
    # C1 has an empty base, C60 and C210 a base of one point
    images = [g.images for g in entry(spec).group.elements]
    base = perm.lex_base(images)
    assert base == greedy_base(images)
    assert len({tuple(x[b - 1] for b in base) for x in images}) == len(images)


def test_abelian_test_runs_once_per_mask(monkeypatch):
    # classify and analysis_witnesses each list the abelian lattice members,
    # and build_region checks each witness again
    calls = []
    real = perm._abelian_mask
    monkeypatch.setattr(perm, "_abelian_mask", lambda G, mask: calls.append(mask) or real(G, mask))
    e = resolve_entry("wreath(4T3,C2)")
    cyc = PROFILES["Q"]
    types = e.types(cyc)
    wt = resolve_weight("disc", e, types)
    verdict = classify(e.group, wt, types)
    witnesses = analysis_witnesses(e.group, types, wt)
    profile = make_profile("burgess-yang", types, cyc)
    for T in [*verdict.witnesses, *witnesses]:
        build_region(e.group, T, types, profile, cyc)
    assert verdict.witnesses and witnesses
    assert calls and len(calls) == len(set(calls))


@pytest.mark.parametrize("spec", SPECS)
def test_normal_subgroups_and_fitting(spec):
    G = entry(spec).group
    normals = normal_subgroups(G)
    assert normals == ref_normal_subgroups(G)
    assert fitting_subgroup(G) == ref_fitting_subgroup(G)
    for N in normals:
        assert is_abelian_normal(G, N) == ref_is_abelian_set(N)


def test_one_pass_joins_match_the_fixpoint_lattice():
    # 438 normal subgroups: too many for the element-level reference
    G = resolve_entry("product(4T3,8T11)").group
    masks, subgroups = ref_normal_subgroup_lattice(G)
    assert len(subgroups) == 438
    assert normal_subgroups(G) == list(subgroups)
    assert G._normal_masks == masks


@pytest.mark.parametrize("spec", SPECS)
def test_is_nilpotent_matches_upper_central_series(spec):
    G = entry(spec).group
    assert is_nilpotent(G) == (len(upper_central_series(G)[-1]) == G.order)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_tame_types(spec, profile):
    e = entry(spec)
    cyc = PROFILES[profile]
    got = tame_types(e.group, cyc, label_pins=e.label_pins)
    want = ref_tame_types(e.group, cyc, label_pins=e.label_pins)
    assert got == want  # label, members, order, size, conj_orbit_size, zeta_degree
    assert [t.representative for t in got] == [t.representative for t in want]
    for t in got:  # the call sites that used to close type members element by element
        assert normal_closure(e.group, t.members) == subgroup_generated(e.group, t.members)


@pytest.mark.parametrize("spec, restrictions", [
    *((spec, None) for spec in ABELIAN),
    ("C60", {60: {1, 59}}), ("product(C4,C6)", {12: {1, 5}, 4: {1}})],
    ids=[*ABELIAN, "C60-restricted", "product(C4,C6)-restricted"])
def test_orders_and_types_read_from_other_classes_walks(monkeypatch, spec, restrictions):
    # abelian: every element is its own class, and most classes take their
    # order and their type from the power walk of another class
    G = entry(spec).group
    profile = CyclotomicProfile(restrictions) if restrictions else PROFILES["Q"]
    classes = G.conjugacy_classes()
    assert len(classes) == G.order
    assert classes == ref_conjugacy_classes(G)
    assert all(c.order == c.representative.order() for c in classes)
    compositions = []
    real_powers, real_pow = perm.powers, Permutation.__pow__
    monkeypatch.setattr(perm, "powers", lambda p: compositions.append(p) or real_powers(p))
    monkeypatch.setattr(Permutation, "__pow__",
                        lambda p, u: compositions.append(p) or real_pow(p, u))
    got = tame_types(G, profile)
    assert compositions == []  # every type is read off the class walks
    monkeypatch.undo()
    want = ref_tame_types(G, profile)
    assert got == want
    assert [t.representative for t in got] == [t.representative for t in want]


def test_restricted_profile_splits_types():
    e = entry("16T11")
    assert len(tame_types(e.group, PROFILES["Q"])) == 8
    assert len(tame_types(e.group, PROFILES["restricted"])) == 9


def test_class_index_rejects_non_members():
    G = entry("4T3").group
    with pytest.raises(ValidationError):
        G.class_index(Permutation((2, 1, 3, 4)))


def test_lattice_built_once_per_group_during_analyze(monkeypatch):
    # concentration reads the lattice and the Fitting subgroup, and the
    # pole-order bound asks is_nilpotent once per tame type: without the
    # cache, product(4T3,S3) (14 types) builds its lattice 15 times
    built = []
    build = perm._normal_subgroup_lattice

    def counting_build(G):
        built.append(G)
        return build(G)

    monkeypatch.setattr(perm, "_normal_subgroup_lattice", counting_build)
    run_analysis_request("product(4T3,S3)", "disc", "burgess-yang", "Q")
    assert built and len({id(G) for G in built}) == len(built)


def test_cached_lattice_is_not_shared_with_callers():
    G = resolve_entry("4T3").group
    normals = normal_subgroups(G)
    normals.clear()
    assert normal_subgroups(G) == ref_normal_subgroups(G)
    assert fitting_subgroup(G) is fitting_subgroup(G)
