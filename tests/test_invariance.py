"""Answers that must not depend on how a group is written down.

Each case writes a catalog group as a group file with its points
relabelled by a random permutation, its generators shuffled and one
redundant generator (the product of two of them) added, and reads it
back.  The conjugacy classes, the tame types and the `classify --weight
disc` verdict must agree with the catalog group's on every field that
names no point or label: the canonical class order and the type labels
follow point labels by design, and the base the class layer keys its
elements by is read off them.  Metamorphic testing (Chen, Cheung and
Yiu, HKUST-CS98-01, 1998; Segura et al., IEEE TSE 42, 2016).
"""
import functools
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from _suites import INVARIANCE_SPECS
from tamecount import CyclotomicProfile, parse_group_file, resolve_entry
from tamecount.catalog import CatalogEntry, resolve_weight
from tamecount.concentration import classify
from tamecount.perm import Permutation, compose, index_of

Q = CyclotomicProfile.full_q()
# classify reads the normal-subgroup lattice, minutes at orders 1,536 and 2,048
VERDICT_SPECS = [spec for spec in INVARIANCE_SPECS if resolve_entry(spec).group.order <= 128]


def invariants(entry, verdict):
    """The label-free answers for a catalog entry: the multisets of class
    (order, size) and of type (order, size, index), then, if `verdict`,
    the classify status, Fitting status, minimum weight and witness sizes."""
    G = entry.group
    types = entry.types(Q)
    answers = (Counter((c.order, c.size) for c in G.conjugacy_classes()),
               Counter((t.order, t.size, index_of(t.representative)) for t in types))
    if not verdict:
        return answers
    found = classify(G, resolve_weight("disc", entry, types), types)
    return answers + ((found.status, found.fitting_status, found.min_weight,
                       sorted(len(W) for W in found.witnesses)),)


@functools.cache
def catalog_invariants(spec, verdict):
    return invariants(resolve_entry(spec), verdict)


@st.composite
def rewritten(draw, spec):
    """The catalog group `spec` as a group file: its points relabelled,
    its generators shuffled, one product of two of them inserted."""
    G = resolve_entry(spec).group
    label = draw(st.permutations(range(1, G.degree + 1)))  # point i -> label[i - 1]
    generators = draw(st.permutations([g.images for g in G.generators]))
    first, second = (draw(st.integers(0, len(generators) - 1)) for _ in range(2))
    generators.insert(draw(st.integers(0, len(generators))),
                      compose(generators[first], generators[second]))
    lines = [f"name {spec} rewritten", f"degree {G.degree}"]
    for g in generators:
        images = [0] * G.degree
        for i, v in enumerate(g, 1):
            images[label[i - 1] - 1] = label[v - 1]
        lines.append(Permutation(images).cycle_string())
    H = parse_group_file("\n".join(lines) + "\n")
    return CatalogEntry(label=H.name, group=H)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_classes_and_types_survive_relabelling(data):
    spec = data.draw(st.sampled_from(INVARIANCE_SPECS))
    entry = data.draw(rewritten(spec))
    assert invariants(entry, verdict=False) == catalog_invariants(spec, verdict=False)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_classify_verdict_survives_relabelling(data):
    spec = data.draw(st.sampled_from(VERDICT_SPECS))
    entry = data.draw(rewritten(spec))
    assert invariants(entry, verdict=True) == catalog_invariants(spec, verdict=True)
