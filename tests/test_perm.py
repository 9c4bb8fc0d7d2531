"""Permutation engine: parsing, enumeration, classes, subgroups, series."""
import itertools
import math
import time
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _suites

from tamecount import (PermutationGroup, direct_product, export_group_file,
                       fitting_subgroup, index_of, is_nilpotent, normal_subgroups,
                       parse_group_file, parse_permutation, pointwise_class_centralizer,
                       product_representation, quotient, regular_representation,
                       upper_central_series, wreath_product)
import tamecount.perm as perm
from tamecount.catalog import Q8XC2_CLASS_REPS, resolve_entry
from tamecount.errors import (ContractViolationError, ParseError, ResourceCapError,
                              ValidationError)
from tamecount.perm import (Permutation, class_mask, compose, conjugate, conjugation_step,
                            cycle_count, inverse, is_abelian_normal, normal_subgroup_mask, orbit,
                            prime_factors, right_multiplier, subgroup_generated, subgroup_key)
from _suites import (ref_all_subgroups, ref_is_abelian_set, ref_is_normal, ref_is_subgroup,
                     ref_sylow_orders, ref_upper_central_series)


def s4():
    return PermutationGroup(4, ["(1,2,3,4)", "(1,2)"], name="S4")


def cyclic(n):
    return PermutationGroup(n, [tuple(range(2, n + 1)) + (1,)], name=f"C{n}")


def test_kernel_identity_and_composition():
    ident = (1, 2, 3)
    p = (2, 3, 1)
    assert compose(ident, p) == p
    assert compose(p, inverse(p)) == ident
    assert cycle_count(ident) == 3


# ---------------------------------------------------------------------------
# the itemgetter kernels against plain per-point loops
# ---------------------------------------------------------------------------

def ref_compose(p, q):
    return tuple(p[j - 1] for j in q)


def ref_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p, start=1):
        out[v - 1] = i
    return tuple(out)


def ref_conjugate(h, g):
    """h g h^-1."""
    return ref_compose(ref_compose(h, g), ref_inverse(h))


def ref_order(p):
    """Smallest k >= 1 with p^k = 1, by repeated composition."""
    identity = tuple(range(1, len(p) + 1))
    power, k = p, 1
    while power != identity:
        power = ref_compose(power, p)
        k += 1
    return k


def ref_power(p, e):
    if e < 0:
        p, e = ref_inverse(p), -e
    out = tuple(range(1, len(p) + 1))
    for _ in range(e % ref_order(p)):
        out = ref_compose(out, p)
    return out


def ref_cycle_count(p):
    seen = set()
    count = 0
    for start in range(1, len(p) + 1):
        if start not in seen:
            count += 1
            point = start
            while point not in seen:
                seen.add(point)
                point = p[point - 1]
    return count


_perm_pair = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)).map(tuple), st.permutations(range(1, n + 1)).map(tuple)))
_exponent = st.one_of(st.integers(-40, 40), st.integers(-10 ** 30, 10 ** 30))


@settings(max_examples=300, deadline=None)
@given(pair=_perm_pair, e=_exponent)
def test_kernels_match_per_point_loops(pair, e):
    p, q = pair
    assert compose(p, q) == ref_compose(p, q)
    assert right_multiplier(q)(p) == ref_compose(p, q)
    assert inverse(p) == ref_inverse(p)
    assert conjugate(p, q) == ref_conjugate(p, q)
    assert conjugation_step([p, q, p])(q) == [ref_conjugate(h, q) for h in (p, q, p)]
    assert cycle_count(p) == ref_cycle_count(p)
    P, Q = Permutation(p), Permutation(q)
    assert P.order() == ref_order(p)
    for result, expected in [(P * Q, ref_compose(p, q)), (P.inverse(), ref_inverse(p)),
                             (Q.conjugate_by(P), ref_conjugate(p, q)),
                             (P ** e, ref_power(p, e)), (P ** 0, ref_power(p, 0))]:
        assert result.images == expected
        assert Permutation(result.images) == result  # the unchecked wrap holds a bijection


def _suite_groups():
    groups = _suites.class_index_groups_up_to_200() + _suites.normal_scan_groups_up_to_100()
    return [pytest.param(G, id=f"{G.name or 'G'}-{G.degree}-{i}") for i, G in enumerate(groups)]


@pytest.mark.parametrize("G", _suite_groups())
def test_class_products_match_rep_times_member_table(G):
    classes = G.conjugacy_classes()
    where = {x.images: i for i, c in enumerate(classes) for x in c.members}
    expected = [[0] * len(classes) for _ in classes]
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            for x in cj.members:
                expected[i][j] |= 1 << where[ref_compose(ci.representative.images, x.images)]
    assert G.class_products() == expected


@pytest.mark.parametrize("G", _suite_groups())
def test_class_order_is_the_element_order(G):
    classes = G.conjugacy_classes()
    for c in classes:
        assert c.order == c.representative.order() == ref_order(c.representative.images)
        assert all(x.order() == c.order for x in c.members)
    assert G.exponent() == math.lcm(*(ref_order(g.images) for g in G.elements))


class TestOrbit:
    def test_breadth_first_discovery_order(self):
        graph = {1: [2, 3], 2: [4], 3: [5], 4: [1], 5: [3]}
        assert orbit(1, graph.__getitem__) == [1, 2, 3, 4, 5]  # depth first: 1, 3, 5, 2, 4

    def test_start_comes_first_and_once(self):
        assert orbit(7, lambda x: []) == [7]
        assert orbit(0, lambda x: [(x + 1) % 3]) == [0, 1, 2]

    def test_stops_once_past_limit(self):
        # the check comes after each value's neighbours, so an infinite
        # orbit stops with every neighbour of the last value expanded
        assert orbit(0, lambda x: [x + 1, x + 2], limit=3) == [0, 1, 2, 3]
        assert orbit(0, lambda x: [x + 1, x + 2, x + 3], limit=1) == [0, 1, 2, 3]
        assert orbit(0, lambda x: [(x + 1) % 4], limit=4) == [0, 1, 2, 3]

    def test_closure_is_the_orbit_of_the_identity(self):
        # closure returns (elements, kept): the orbit of the identity under
        # the kept generators, taken more moved points first; the identity,
        # a repeat and the square of the 4-cycle add nothing and are skipped.
        # The elements come coset by coset: first the cyclic group of the
        # kept 4-cycle c, then its cosets under the transposition
        gens = [(2, 1, 3, 4), (3, 4, 1, 2), (1, 2, 3, 4), (2, 3, 4, 1), (2, 1, 3, 4)]
        elements, kept = perm.closure(gens)
        assert kept == [(2, 3, 4, 1), (2, 1, 3, 4)]
        assert elements[0] == (1, 2, 3, 4)
        c = kept[0]
        assert elements[:4] == [(1, 2, 3, 4), c, compose(c, c), compose(compose(c, c), c)]
        assert len(elements) == len(set(elements)) == 24
        assert set(elements) == ref_closure(gens, 4)
        assert perm.closure([(1, 2, 3)]) == ([(1, 2, 3)], [])


def ref_closure(gens, n):
    """The group generated by `gens` (image tuples of degree n), as a set."""
    found = {tuple(range(1, n + 1))}
    frontier = found
    while frontier:
        frontier = {ref_compose(g, h) for g in frontier for h in gens} - found
        found |= frontier
    return found


def _generator_lists(degree):
    return st.lists(st.permutations(range(1, degree + 1)).map(tuple), min_size=1, max_size=4)


# random generators of S5 and S6: the cyclic group of the first kept one is
# usually not normal, so its left and right cosets differ
_SMALL_SYMMETRIC_GENERATORS = st.sampled_from([5, 6]).flatmap(_generator_lists)


@settings(max_examples=60, deadline=None)
@given(gens=_SMALL_SYMMETRIC_GENERATORS)
def test_coset_closure_matches_the_reference(gens):
    n = len(gens[0])
    elements, kept = perm.closure(gens)
    group = ref_closure(gens, n)
    assert len(elements) == len(set(elements))
    assert set(elements) == group
    # kept is an irredundant generating subset of gens
    assert set(kept) <= set(gens)
    assert ref_closure(kept, n) == group
    for i, g in enumerate(kept):
        assert g not in ref_closure(kept[:i], n)


@settings(max_examples=30, deadline=None)
@given(gens=_SMALL_SYMMETRIC_GENERATORS)
def test_coset_closure_cap_boundary(gens):
    n = len(gens[0])
    order = len(ref_closure(gens, n))
    assume(order > 1)
    with mock.patch.object(perm, "DEFAULT_ELEMENT_CAP", order - 1):
        with pytest.raises(ResourceCapError, match=f"element cap of {order - 1}$"):
            perm.closure(gens)
    with mock.patch.object(perm, "DEFAULT_ELEMENT_CAP", order):
        assert len(perm.closure(gens)[0]) == order
    # the caps are checked before each coset is built, and the refusal names
    # the size the closure would reach: here the last coset completes G
    with mock.patch.object(perm, "DEFAULT_POINT_CAP", order * n - 1):
        with pytest.raises(ResourceCapError,
                           match=f": {order} elements x degree {n} = {order * n} points$"):
            perm.closure(gens)


_GENERATING_SET_GROUPS = [s4(), resolve_entry("4T3").group, resolve_entry("8T11").group,
                          resolve_entry("16T11").group, wreath_product(cyclic(2), cyclic(3)),
                          product_representation(resolve_entry("4T3").group, cyclic(3))]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_group_data_do_not_depend_on_the_generating_set(data):
    G = data.draw(st.sampled_from(_GENERATING_SET_GROUPS))
    padded = st.tuples(st.permutations(G.generators),
                       st.lists(st.sampled_from(G.generators + (G.identity,)), max_size=4))
    listing = data.draw(st.one_of(st.just(list(G.elements)),
                                  padded.flatmap(lambda t: st.permutations(t[0] + t[1]))))
    H = PermutationGroup(G.degree, listing)
    assert H.elements == G.elements
    assert H.conjugacy_classes() == G.conjugacy_classes()
    assert H.class_products() == G.class_products()
    assert normal_subgroups(H) == normal_subgroups(G)
    # kept is an irredundant generating subset of the listing
    kept = [g.images for g in H.kept]
    assert set(kept) <= {g.images for g in listing}
    assert ref_closure(kept, G.degree) == {g.images for g in G.elements}
    for i, g in enumerate(kept):
        assert g not in ref_closure(kept[:i], G.degree)


@pytest.mark.parametrize("spec, kept", [("wreath(C2,C8)", 2), ("wreath(4T3,C3)", 3),
                                        ("16T11", 3)])
def test_paper_groups_close_over_few_generators(spec, kept):
    G = resolve_entry(spec).group
    assert len(G.generators) > len(G.kept) == kept
    assert set(G.kept) <= set(G.generators)


class TestPrimeFactors:
    def test_small_values(self):
        assert prime_factors(1) == {}
        assert prime_factors(97) == {97: 1}
        assert prime_factors(360) == {2: 3, 3: 2, 5: 1}

    def test_matches_brute_force(self):
        for n in range(1, 400):
            expected = {}
            m = n
            for p in range(2, n + 1):
                while m % p == 0:
                    expected[p] = expected.get(p, 0) + 1
                    m //= p
            assert prime_factors(n) == expected

    def test_sylow_orders(self):
        assert ref_sylow_orders(s4()) == {2: 8, 3: 3}


class TestParsePermutation:
    def test_table3_representative(self):
        p = parse_permutation("(1,5)(2,6)(3,7)(4,8)", 8)
        assert p.images == (5, 6, 7, 8, 1, 2, 3, 4)

    def test_identity_notation(self):
        assert parse_permutation("()", 4) == Permutation.identity(4)

    def test_repeated_point_rejected(self):
        with pytest.raises(ParseError, match="repeated"):
            parse_permutation("(1,2)(2,3)", 3)

    def test_point_beyond_degree(self):
        with pytest.raises(ParseError, match="outside"):
            parse_permutation("(1,5)", 4)

    def test_malformed_token(self):
        with pytest.raises(ParseError):
            parse_permutation("(1,x)", 4)

    def test_unmentioned_points_fixed(self):
        p = parse_permutation("(1,5)(3,7)", 8)
        assert p(2) == 2 and p(4) == 4 and p(1) == 5

    def test_cycle_string_roundtrip(self):
        for text in ["(1,2,3,4)", "(1,6)(2,5)(3,8)(4,7)", "()"]:
            p = parse_permutation(text, 8)
            assert parse_permutation(p.cycle_string(), 8) == p


class TestEnumeration:
    def test_d4_presentation_has_order_8(self, d4_quartic):
        assert d4_quartic.group.order == 8

    def test_trivial_group(self):
        G = PermutationGroup(1, [Permutation.identity(1)])
        assert G.order == 1

    def test_q8c2_from_five_representatives(self):
        reps = list(Q8XC2_CLASS_REPS.values())[:5]
        G = PermutationGroup(8, reps)
        assert G.order == 16

    def test_cap_exceeded(self, monkeypatch):
        monkeypatch.setattr(perm, "DEFAULT_ELEMENT_CAP", 50)
        G = PermutationGroup(5, ["(1,2,3,4,5)", "(1,2)"])
        with pytest.raises(ResourceCapError, match="element cap of 50"):
            _ = G.elements
        with pytest.raises(ResourceCapError, match="element cap of 50"):
            subgroup_generated(G, G.generators)
        # a cap equal to the order is not exceeded
        monkeypatch.setattr(perm, "DEFAULT_ELEMENT_CAP", 120)
        assert PermutationGroup(5, ["(1,2,3,4,5)", "(1,2)"]).order == 120

    def test_point_cap_exceeded(self, monkeypatch):
        # S5 on 5 points stores 120 x 5 = 600 points
        monkeypatch.setattr(perm, "DEFAULT_POINT_CAP", 599)
        G = PermutationGroup(5, ["(1,2,3,4,5)", "(1,2)"])
        with pytest.raises(ResourceCapError,
                           match=r"point cap of 599: 120 elements x degree 5 = 600 points"):
            _ = G.elements
        monkeypatch.setattr(perm, "DEFAULT_POINT_CAP", 600)
        assert PermutationGroup(5, ["(1,2,3,4,5)", "(1,2)"]).order == 120

    def test_default_point_cap_admits_c5000(self):
        assert perm.DEFAULT_POINT_CAP >= 5000 * 5000

    def test_generator_order_irrelevant(self):
        a = PermutationGroup(4, ["(1,2,3,4)", "(1,3)"]).element_set()
        b = PermutationGroup(4, ["(1,3)", "(1,2,3,4)"]).element_set()
        assert a == b

    def test_degree_zero_rejected(self):
        with pytest.raises(ValidationError):
            PermutationGroup(0, [])

    def test_membership(self, d4_quartic):
        G = d4_quartic.group
        assert all(g in G for g in G.elements)
        assert parse_permutation("(1,2)", 4) not in G
        assert Permutation.identity(5) not in G  # another degree
        assert G.identity.images not in G and "()" not in G  # not a Permutation

    def test_membership_is_fast(self):
        # one class-index lookup per query; rebuilding the element set
        # costs about 0.6 ms per query on this order-2048 group
        G = wreath_product(cyclic(2), cyclic(8))
        queries = [G.elements[i % G.order] for i in range(10_000)]
        start = time.perf_counter()
        assert all(g in G for g in queries)
        assert time.perf_counter() - start < 1.0


class TestConjugacyClasses:
    def test_d4_sizes(self, d4_quartic):
        sizes = sorted(c.size for c in d4_quartic.group.conjugacy_classes())
        assert sizes == [1, 1, 2, 2, 2]

    def test_q8c2_sizes(self, q8c2_deg8):
        sizes = sorted(c.size for c in q8c2_deg8.group.conjugacy_classes())
        assert sizes == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]

    def test_cyclic_singletons(self):
        assert all(c.size == 1 for c in cyclic(3).conjugacy_classes())

    def test_partition(self, q8c2_deg8):
        G = q8c2_deg8.group
        classes = G.conjugacy_classes()
        assert sum(c.size for c in classes) == G.order
        union = set()
        for c in classes:
            assert not (union & c.members)
            union |= c.members
        assert union == set(G.elements)

    def test_sizes_divide_order(self):
        for G in [s4(), cyclic(6), wreath_product(cyclic(2), cyclic(3))]:
            for c in G.conjugacy_classes():
                assert G.order % c.size == 0


class TestCentralizer:
    def test_d4_class_2c(self, d4_quartic):
        G = d4_quartic.group
        b = parse_permutation("(1,3)", 4)
        cls = G.class_of(b)
        cent = pointwise_class_centralizer(G, cls.members)
        expected = subgroup_generated(G, {b, parse_permutation("(1,3)(2,4)", 4)})
        assert cent == expected
        assert len(cent) == 4

    def test_identity_class(self, d4_quartic):
        G = d4_quartic.group
        assert pointwise_class_centralizer(G, {G.identity}) == G.element_set()

    def test_central_class(self, d4_quartic):
        G = d4_quartic.group
        center = parse_permutation("(1,3)(2,4)", 4)
        assert pointwise_class_centralizer(G, {center}) == G.element_set()

    def test_result_is_subgroup(self, q8c2_deg8):
        G = q8c2_deg8.group
        for cls in G.conjugacy_classes():
            assert ref_is_subgroup(G, pointwise_class_centralizer(G, cls.members))


class TestNormalSubgroups:
    def test_d4_has_six(self, d4_quartic):
        assert len(normal_subgroups(d4_quartic.group)) == 6

    def test_c4_all_three(self):
        assert len(normal_subgroups(cyclic(4))) == 3

    def test_s3(self):
        S3 = PermutationGroup(3, ["(1,2,3)", "(1,2)"])
        assert sorted(len(N) for N in normal_subgroups(S3)) == [1, 3, 6]

    @pytest.mark.parametrize("builder", [
        lambda: PermutationGroup(3, ["(1,2,3)", "(1,2)"]),
        lambda: PermutationGroup(4, ["(1,2,3,4)", "(1,3)"]),
        s4,
        lambda: wreath_product(cyclic(2), cyclic(2)),
        lambda: cyclic(12),
    ])
    def test_matches_bruteforce_scan(self, builder):
        G = builder()
        expected = {H for H in map(frozenset, ref_all_subgroups(G)) if ref_is_normal(G, H)}
        assert set(map(frozenset, normal_subgroups(G))) == expected

    def test_canonical_order(self, q8c2_deg8):
        keys = [subgroup_key(N) for N in normal_subgroups(q8c2_deg8.group)]
        assert all(a < b for a, b in zip(keys, keys[1:]))


class TestQuotient:
    def test_d4_mod_tc(self, d4_quartic, d4_types):
        G = d4_quartic.group
        tc = next(t for t in d4_types if t.label == "2C")
        T = subgroup_generated(G, tc.members)
        q = quotient(G, T)
        assert q.carrier.order == 2

    def test_full_quotient_trivial(self, d4_quartic):
        G = d4_quartic.group
        q = quotient(G, G.element_set())
        assert q.carrier.order == 1

    def test_q8c2_mod_tb_is_c2xc2(self, q8c2_deg8, cyc_q):
        G = q8c2_deg8.group
        types = q8c2_deg8.types(cyc_q)
        tb = next(t for t in types if t.label == "2B")
        T = subgroup_generated(G, tb.members)
        q = quotient(G, T)
        assert q.carrier.order == 4
        assert all(g.order() <= 2 for g in q.carrier.elements)

    def test_projection_is_homomorphism(self, q8c2_deg8):
        G = q8c2_deg8.group
        N = subgroup_generated(G, {g for g in G.elements if g.order() <= 2
                                   and all(g * h == h * g for h in G.elements)})
        q = quotient(G, N)
        for g in G.elements:
            for h in G.elements:
                assert q.push(g * h) == q.push(g) * q.push(h)

    def test_non_normal_kernel_rejected(self):
        G = s4()
        H = subgroup_generated(G, [parse_permutation("(1,2)", 4)])
        with pytest.raises(ContractViolationError):
            quotient(G, H)

    def test_kernel_outside_group_rejected(self):
        G = PermutationGroup(4, ["(1,2)"])
        K = {Permutation.identity(4), parse_permutation("(3,4)", 4)}
        with pytest.raises(ContractViolationError, match="kernel is not normal"):
            quotient(G, K)

    def test_push_outside_parent_rejected(self):
        G = PermutationGroup(4, ["(1,2)"])
        q = quotient(G, {Permutation.identity(4)})
        with pytest.raises(ValidationError, match="not an element of the group"):
            q.push(parse_permutation("(3,4)", 4))
        # degree 5: its first four images are those of (1,2)
        with pytest.raises(ValidationError, match="not an element of the group"):
            q.push(parse_permutation("(1,2)", 5))


def _outside_element(G):
    """The least permutation of G's degree outside G; None for the full
    symmetric group."""
    elements = G.element_set()
    perms = map(Permutation, itertools.permutations(range(1, G.degree + 1)))
    return next((p for p in perms if p not in elements), None)


@pytest.mark.parametrize("G", [pytest.param(G, id=f"{G.name}-{G.order}")
                               for G in _suites.normal_scan_groups_up_to_100()])
def test_class_data_predicates_match_element_walkers(G):
    """class_mask, normal_subgroup_mask, the quotient guard and
    is_abelian_normal against the
    element-set oracles, on every subgroup, on subsets that meet a class
    in part, on unions of one or two classes and on subsets holding an
    element outside G."""
    elements = G.element_set()
    classes = G.conjugacy_classes()
    subsets = {frozenset()} | set(map(frozenset, ref_all_subgroups(G)))
    subsets |= {c.members | d.members for c in classes for d in classes}
    for N in normal_subgroups(G):
        subsets |= {N - {max(c.members)} for c in classes if c.size > 1 and c.members <= N}
    outside = _outside_element(G)
    if outside is not None:
        subsets |= {S | {outside} for S in list(subsets)}
    for S in subsets:
        inside = S <= elements
        normal = inside and ref_is_normal(G, S)
        mask = class_mask(G, S)
        assert (mask is not None) == normal
        try:
            quotient(G, S)
            accepted = True
        except ContractViolationError:
            accepted = False
        assert accepted == (normal and ref_is_subgroup(G, S))
        assert (normal_subgroup_mask(G, S) is not None) == (normal and ref_is_subgroup(G, S))
        if mask is not None:
            assert set().union(*(classes[i].members
                                 for i in range(len(classes)) if mask >> i & 1)) == S
            assert is_abelian_normal(G, S) == (ref_is_subgroup(G, S) and ref_is_abelian_set(S))


class TestSeries:
    def test_d4_series(self, d4_quartic):
        series = upper_central_series(d4_quartic.group)
        assert [len(Z) for Z in series] == [1, 2, 8]

    def test_abelian(self):
        assert [len(Z) for Z in upper_central_series(cyclic(6))] == [1, 6]

    def test_s3_stationary(self):
        S3 = PermutationGroup(3, ["(1,2,3)", "(1,2)"])
        assert [len(Z) for Z in upper_central_series(S3)] == [1]

    def test_strictly_increasing(self, q8c2_deg16):
        series = upper_central_series(q8c2_deg16.group)
        for a, b in zip(series, series[1:]):
            assert a < b

    @pytest.mark.parametrize("spec", ["4T3", "16T11", "product(4T3,C3)", "wreath(C2,C4)"])
    def test_matches_element_walker_on_normal_subgroups(self, spec):
        G = resolve_entry(spec).group
        for N in normal_subgroups(G):
            H = perm.subgroup_as_group(G, N)
            assert upper_central_series(H) == ref_upper_central_series(H)

    def test_nilpotent_iff_sylow_product(self):
        # nilpotent <=> every Sylow subgroup is normal (so G is their
        # direct product); cross-checked for orders <= 100
        cases = [(cyclic(12), True), (s4(), False),
                 (PermutationGroup(3, ["(1,2,3)", "(1,2)"]), False),
                 (wreath_product(cyclic(2), cyclic(2)), True),
                 (wreath_product(cyclic(2), cyclic(4)), True),
                 (product_representation(cyclic(4), cyclic(3)), True)]
        for G, expect in cases:
            assert G.order <= 100
            assert is_nilpotent(G) is expect
            sylow_product = True
            for p, pk in ref_sylow_orders(G).items():
                p_part = {g for g in G.elements if pk % g.order() == 0}
                sylow_product &= (len(p_part) == pk and ref_is_subgroup(G, p_part))
            assert sylow_product is expect


class TestFitting:
    def test_nilpotent_gives_whole_group(self, d4_quartic):
        G = d4_quartic.group
        assert fitting_subgroup(G) == G.element_set()

    def test_s3(self):
        S3 = PermutationGroup(3, ["(1,2,3)", "(1,2)"])
        fit = fitting_subgroup(S3)
        assert len(fit) == 3

    def test_s4_gives_v4(self):
        fit = fitting_subgroup(s4())
        expected = {Permutation.identity(4),
                    parse_permutation("(1,2)(3,4)", 4),
                    parse_permutation("(1,3)(2,4)", 4),
                    parse_permutation("(1,4)(2,3)", 4)}
        assert fit == expected

    def test_fitting_is_nilpotent_normal(self):
        from tamecount.perm import subgroup_as_group
        for G in [s4(), PermutationGroup(3, ["(1,2,3)", "(1,2)"])]:
            fit = fitting_subgroup(G)
            assert ref_is_normal(G, fit)
            assert is_nilpotent(subgroup_as_group(G, fit))


class TestProducts:
    def test_wreath_c2_c2_is_d4(self, d4_quartic):
        W = wreath_product(cyclic(2), cyclic(2))
        assert W.degree == 4 and W.order == 8
        got = sorted((c.size, c.representative.order(),
                      index_of(c.representative)) for c in W.conjugacy_classes())
        expected = sorted((c.size, c.representative.order(),
                           index_of(c.representative))
                          for c in d4_quartic.group.conjugacy_classes())
        assert got == expected

    def test_direct_product_disjoint_points(self, d4_octic):
        P = direct_product(d4_octic.group, cyclic(3))
        assert P.degree == 11
        assert P.order == 24
        assert not P.is_transitive()

    def test_product_representation_transitive(self, d4_octic):
        P = product_representation(d4_octic.group, cyclic(3))
        assert P.degree == 24
        assert P.order == 24
        assert P.is_transitive()

    @pytest.mark.parametrize("construct, degree", [(direct_product, 11),
                                                   (product_representation, 24),
                                                   (wreath_product, 24)])
    def test_product_degree_above_point_cap_refused(self, d4_octic, monkeypatch,
                                                    construct, degree):
        monkeypatch.setattr(perm, "DEFAULT_POINT_CAP", degree - 1)
        with pytest.raises(ResourceCapError, match=f"degree {degree} exceeds the point cap"):
            construct(d4_octic.group, cyclic(3))
        # both factors are transitive, so product and wreath product are too
        # and need degree x degree points: that many pass, the degree alone
        # not; their direct product has at least 8 x 3 elements on 11 points
        admitted = 8 * 3 * degree if construct is direct_product else degree * degree
        monkeypatch.setattr(perm, "DEFAULT_POINT_CAP", admitted)
        assert construct(d4_octic.group, cyclic(3)).degree == degree
        if construct is not direct_product:
            monkeypatch.setattr(perm, "DEFAULT_POINT_CAP", admitted - 1)
            with pytest.raises(ResourceCapError, match=f"transitive degree {degree} exceeds"):
                construct(d4_octic.group, cyclic(3))

    def test_transitive_direct_product_refused_before_any_generator(self, d4_octic,
                                                                    monkeypatch):
        # transitive factors of degrees 8 and 3 have at least 8 and 3
        # elements: G x H holds at least 24 elements x 11 points
        monkeypatch.setattr(perm, "DEFAULT_POINT_CAP", 8 * 3 * 11 - 1)
        with pytest.raises(ResourceCapError, match=(
                r"^degree 11 exceeds the point cap of 263: "
                r"at least 24 elements x degree 11 = 264 points")):
            direct_product(d4_octic.group, cyclic(3))
        monkeypatch.setattr(perm, "DEFAULT_POINT_CAP", 8 * 3 * 11)
        assert direct_product(d4_octic.group, cyclic(3)).order == 24
        # at the default cap, C5000 x C5000 is refused before a generator of
        # degree 10,000 is built
        monkeypatch.undo()
        C5000 = cyclic(5000)
        built = []
        monkeypatch.setattr(perm, "Permutation", lambda images: built.append(images))
        with pytest.raises(ResourceCapError, match="at least 25000000 elements x degree 10000"):
            direct_product(C5000, C5000)
        assert built == []

    def test_intransitive_direct_product_escapes_the_transitive_rule(self, monkeypatch):
        monkeypatch.setattr(perm, "DEFAULT_POINT_CAP", 100)
        P = direct_product(PermutationGroup(5, ["()"]), cyclic(7))
        assert P.degree == 12 and P.order == 7

    @pytest.mark.parametrize("construct", [product_representation, wreath_product])
    def test_intransitive_factor_escapes_the_transitive_rule(self, monkeypatch, construct):
        # 35 x 35 = 1225 points exceed the cap, but with an intransitive
        # factor the group may have fewer than 35 elements: here it is C7
        monkeypatch.setattr(perm, "DEFAULT_POINT_CAP", 1000)
        P = construct(PermutationGroup(5, ["()"]), cyclic(7))
        assert P.degree == 35 and not P.is_transitive()
        assert P.order == 7

    def test_regular_c2(self):
        R = regular_representation(cyclic(2))
        assert R.degree == 2 and R.order == 2

    @pytest.mark.parametrize("spec", ["4T3", "8T11"])
    def test_regular_embedding_is_left_multiplication(self, spec):
        G = resolve_entry(spec).group
        embedding = perm.regular_embedding(G)
        position = {g: i for i, g in enumerate(G.elements, start=1)}
        for g in G.elements:
            image = embedding.push(g)
            assert all(image(position[x]) == position[g * x] for x in G.elements)
        assert embedding.carrier.generators == tuple(map(embedding.push, G.generators))
        assert embedding.carrier.order == G.order

    def test_wreath_order(self):
        W = wreath_product(cyclic(2), cyclic(3))
        assert W.degree == 6 and W.order == 24


class TestIndex:
    def test_quartic_2c(self):
        assert index_of(parse_permutation("(1,3)", 4)) == 1

    def test_identity(self):
        assert index_of(Permutation.identity(7)) == 0

    def test_octic_4a(self, d4_octic, cyc_q):
        t4a = next(t for t in d4_octic.types(cyc_q) if t.label == "4A")
        assert index_of(t4a.representative) == 6

    def test_class_and_power_invariance_exhaustive(self):
        import math
        groups = [PermutationGroup(4, ["(1,2,3,4)", "(1,3)"]), s4(),
                  PermutationGroup(8, list(Q8XC2_CLASS_REPS.values())),
                  wreath_product(cyclic(2), cyclic(3)),
                  product_representation(PermutationGroup(4, ["(1,2,3,4)", "(1,3)"]),
                                         cyclic(3))]
        for G in groups:
            assert G.order <= 200
            for g in G.elements:
                base = index_of(g)
                for h in G.generators:
                    assert index_of(g.conjugate_by(h)) == base
                for u in range(1, g.order() + 1):
                    if math.gcd(u, g.order()) == 1:
                        assert index_of(g ** u) == base

    def test_wreath_index_additivity(self):
        # base-tuple elements with identity top: indices add across blocks
        N = PermutationGroup(4, ["(1,2,3,4)", "(1,3)"])
        m = 3
        W = wreath_product(N, cyclic(m))
        n = N.degree
        for g1 in N.elements:
            for g2 in N.elements:
                images = []
                for block, g in enumerate((g1, g2, N.identity)):
                    images.extend(g(i) + block * n for i in range(1, n + 1))
                w = Permutation(images)
                assert w in W
                assert index_of(w) == index_of(g1) + index_of(g2)


class TestGroupFile:
    GOOD = "name demo\ndegree 4\n(1,2,3,4)\n(1,3)\n"

    def test_parse(self):
        G = parse_group_file(self.GOOD)
        assert G.name == "demo" and G.order == 8

    def test_roundtrip(self):
        G = parse_group_file(self.GOOD)
        again = parse_group_file(export_group_file(G))
        assert again.element_set() == G.element_set()

    def test_error_cites_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_group_file("name x\ndegree 4\n(1,9)\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="name"):
            parse_group_file("degree 4\n(1,2)\n")

    def test_content_lines_skip_blank_and_comment_lines(self):
        text = "# header\n\n  name demo  \n\t# indented comment\ndegree 4\n   \n(1,2) # tail\n"
        assert list(perm.content_lines(text)) == [
            (3, "name demo"), (5, "degree 4"), (7, "(1,2) # tail")]
        assert list(perm.content_lines("")) == []

    def test_error_line_counts_skipped_lines(self):
        with pytest.raises(ParseError, match="line 6"):
            parse_group_file("# c\nname x\n\n  # c\ndegree 4\n(1,9)\n")


def test_order_divides_degree_factorial():
    import math
    for G in [s4(), cyclic(6), wreath_product(cyclic(2), cyclic(2))]:
        assert math.factorial(G.degree) % G.order == 0


def test_normal_subgroups_are_class_unions(q8c2_deg8):
    G = q8c2_deg8.group
    classes = G.conjugacy_classes()
    for N in normal_subgroups(G):
        covered = set()
        for c in classes:
            if c.members & N:
                assert c.members <= N
                covered |= c.members
        assert covered == set(N)


def test_abelian_set_helper(d4_quartic):
    G = d4_quartic.group
    assert ref_is_abelian_set(subgroup_generated(G, [parse_permutation("(1,2,3,4)", 4)]))
    assert not ref_is_abelian_set(G.element_set())
