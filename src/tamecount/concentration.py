"""Concentration classification and the group-theoretic feasibility
thresholds for the twisted / wreath / direct-product counting theorems.

A normal subgroup holds a tame type exactly when it holds the type's
representative (each rep^u generates <rep>), so types are read through it."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, islice
from operator import or_

from .errors import (ContractViolationError, ResourceCapError, UnsupportedHypothesisError,
                     ValidationError)
from .hull_lp import exact
from .perm import (Permutation, PermutationGroup, abelian_normal_subgroups, closure, compose,
                   fitting_subgroup, index_of, is_abelian_normal, normal_closure,
                   normal_subgroup_mask, prime_factors, subgroup_as_group, upper_central_series)
from .ramtypes import WeightFunction, min_weight

STATUS_CONCENTRATED = "concentrated"
STATUS_PROPER = "properly-semiconcentrated"
STATUS_NOT = "not-semiconcentrated"

FITTING_NILPOTENT = "nilpotent"
FITTING_CONCENTRATED = "concentrated-in-fitting"
FITTING_NEITHER = "neither"
# _least_cover tests at most this many families: C2^5 as a product needs 8.6 M
_COVER_CAP = 10_000_000


@dataclass(frozen=True)
class ConcentrationVerdict:
    status: str
    witnesses: tuple      # abelian normal subgroups covering the minimum-weight types
    fitting_status: str
    min_weight: Fraction
    min_type_labels: tuple


def _least_cover(candidates, targets):
    """The first family of `candidates` covering `targets`, smallest first,
    searched over the first candidate per nonzero mask of targets held: a
    smallest cover never holds two of one mask, and the first in place of
    a later one gives an earlier family of the same size.  Raises
    ResourceCapError once _COVER_CAP families were tested in vain."""
    first = {}  # mask of the targets held -> the first candidate holding them
    for c in candidates:
        first.setdefault(sum(1 << k for k, x in enumerate(targets) if x in c), c)
    first.pop(0, None)
    full = (1 << len(targets)) - 1
    families = chain.from_iterable(combinations(first, k) for k in range(1, len(first) + 1))
    for combo in islice(families, _COVER_CAP):
        if reduce(or_, combo) == full:
            return [first[mask] for mask in combo]
    if next(families, None) is not None:
        raise ResourceCapError(f"witness cover search exceeds the family cap of {_COVER_CAP}")
    return None


def minimal_abelian_cover(G: PermutationGroup, min_elements):
    """Smallest family of abelian normal subgroups covering `min_elements`.

    Exhaustive subset search, smallest families first; among families of
    one size the least is taken, comparing the members' `subgroup_key`s
    lexicographically.  The candidates come in key order (that of
    `normal_subgroups`), so that is the first cover `combinations` yields.
    None when no cover exists.
    """
    return _least_cover(abelian_normal_subgroups(G), min_elements)


def classify(G: PermutationGroup, wt: WeightFunction, types) -> ConcentrationVerdict:
    """Concentration status of G for the given weight.

    Concentrated: the minimum-weight elements generate a proper (normal)
    subgroup.  Semiconcentrated: each minimum-weight class generates a
    proper normal subgroup, so the union of all proper normal subgroups
    covers the minimum-weight elements.
    """
    a, argmin = min_weight(wt, types)
    reps = [t.representative for t in argmin]
    concentrated = len(normal_closure(G, reps)) < G.order
    semiconcentrated = all(len(normal_closure(G, [r])) < G.order for r in reps)
    if concentrated:
        status = STATUS_CONCENTRATED
    elif semiconcentrated:
        status = STATUS_PROPER
    else:
        status = STATUS_NOT
    cover = minimal_abelian_cover(G, reps) if status != STATUS_NOT else None
    fitting = fitting_subgroup(G)
    if len(fitting) == G.order:
        fitting_status = FITTING_NILPOTENT
    else:
        fitting_status = FITTING_CONCENTRATED if fitting.issuperset(reps) else FITTING_NEITHER
    return ConcentrationVerdict(status=status,
                                witnesses=tuple(cover or ()),
                                fitting_status=fitting_status,
                                min_weight=a,
                                min_type_labels=tuple(t.label for t in argmin))


def analysis_witnesses(G: PermutationGroup, types, wt: WeightFunction):
    """Default witness family for an analysis run.

    Takes the subgroup generated by each tame type whenever it is a proper
    nontrivial abelian normal subgroup, plus a minimal abelian cover of the
    minimum-weight types.  Extra regions only enlarge the hull, so this
    dominates any smaller admissible choice.  With `types` all of G's tame
    types, a proper abelian normal N holds a type's representative, whose
    closure is then a witness; so none exists exactly when no such N does.
    """
    reps = [t.representative for t in min_weight(wt, types)[1]]
    abelian = abelian_normal_subgroups(G)
    if not abelian:
        raise ValidationError("no abelian normal witnesses exist for this group")
    cover = _least_cover(abelian, reps)
    if cover is None:
        raise ValidationError(
            "the minimum-weight types admit no abelian normal cover; "
            "the hull machinery does not apply")
    abelian = set(abelian)
    closures = [normal_closure(G, [t.representative]) for t in types]
    return list(dict.fromkeys(S for S in closures + cover if S in abelian))


# ---------------------------------------------------------------------------
# the h^1_ur ledger
# ---------------------------------------------------------------------------

def _invariant_factors(A, B):
    """Invariant factors of the abelian quotient A/B of element sets, B a
    subgroup of A, read as `abelian_invariants` says from the counts of the
    x in A with x^(p^k) in B, which number |B| p^(e_k)."""
    invariants = []
    for p, a in prime_factors(len(A) // len(B)).items():
        powers, e = list(A), 0  # x^(p^k) for each x in A, k = 0, 1, ...
        while e < a:
            powers = [x ** p for x in powers]
            killed = sum(x in B for x in powers) // len(B)
            at_least = prime_factors(killed).get(p, 0) - e  # cyclic p-factors of order >= p^k
            e += at_least
            invariants.extend([1] * (at_least - len(invariants)))
            invariants[:at_least] = [d * p for d in invariants[:at_least]]
    return invariants


def abelian_invariants(G: PermutationGroup, subset):
    """Invariant factors [d_1 >= d_2 >= ...] of the abelian subgroup A of G
    generated by `subset`, read from element orders.

    For each prime p of |A|, the x in A with x^(p^k) = 1 number p^(e_k),
    e_k the sum of min(lambda_i, k) over the cyclic factors Z/p^(lambda_i)
    of A; so e_k - e_(k-1) of them have order at least p^k, and each
    multiplies one of the first e_k - e_(k-1) invariant factors by p (Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, 2005, ch. 4).
    """
    if not all(g in G for g in subset):
        raise ContractViolationError("abelian invariants of a set outside the group")
    A, gens = closure([g.images for g in subset] or [G.identity.images])
    if any(compose(a, b) != compose(b, a) for i, a in enumerate(gens) for b in gens[i + 1:]):
        raise ContractViolationError("abelian invariants of a nonabelian set")
    return _invariant_factors(set(map(Permutation._of, A)), {G.identity})


def h1ur_chain(G: PermutationGroup, N, T):
    """Layers (order, invariant factors) of T along the upper central
    series of N, ending at the hypercenter; orders multiply to |T|."""
    N = frozenset(N)
    T = frozenset(T)
    if normal_subgroup_mask(G, N) is None or not is_abelian_normal(G, T):
        raise ContractViolationError("N and T must be normal in G, and T abelian")
    series = upper_central_series(subgroup_as_group(G, N, name="N"))
    if not T <= series[-1]:
        raise ContractViolationError("T must lie in the hypercenter of N")
    layers = [T & Z for Z in series]
    return [(len(cur) // len(prev), tuple(_invariant_factors(cur, prev)))
            for prev, cur in zip(layers, layers[1:]) if len(cur) > len(prev)]


# ---------------------------------------------------------------------------
# wreath / direct-product threshold arithmetic
# ---------------------------------------------------------------------------

def _log2_exact(n: int) -> int:
    k = n.bit_length() - 1
    if 1 << k != n:
        raise ValidationError(f"{n} is not a power of two")
    return k


def wreath_theta_from_params(n: int, a, t_order: int, m: int, k_degree: int) -> Fraction:
    """n/a - log2|T|/2 + log2|T|/(2 m [k:Q]) for one witness size."""
    a = exact(a, "the least index")
    if m < 1 or k_degree < 1:
        raise ValidationError("block count and field degree must be positive")
    if a <= 0:
        raise ValidationError("the least index must be positive")
    log2t = _log2_exact(t_order)
    return (Fraction(n, 1) / a - Fraction(log2t, 2)
            + Fraction(log2t, 2 * m * k_degree))


def wreath_theta_bound(N: PermutationGroup, witnesses, m: int, k_degree: int) -> Fraction:
    """Required growth cap for base counts in the wreath theorem: the count
    of top extensions must be O(X^(bound - delta)) for some delta > 0.

    Proven only for 2-groups; other primes are refused, not extrapolated.
    """
    order = N.order
    if order & (order - 1):
        raise UnsupportedHypothesisError("the wreath bound is proven for 2-groups only")
    if order == 1:
        raise ValidationError("N must be nontrivial")
    if not witnesses:
        raise ValidationError("at least one witness is required")
    a = min(index_of(c.representative) for c in N.conjugacy_classes()[1:])
    thetas = []
    for T in witnesses:
        T = frozenset(T)
        if not is_abelian_normal(N, T):
            raise ContractViolationError("witnesses must be abelian and normal in N")
        thetas.append(wreath_theta_from_params(N.degree, a, len(T), m, k_degree))
    return min(thetas)


@dataclass(frozen=True)
class DirectProductCondition:
    passes: bool
    cap_exponent: Fraction  # the general growth cap n/(m a(N))


def direct_product_condition(n: int, m: int, a_N, a_B) -> DirectProductCondition:
    """Sufficient condition a(B)/m > a(N)/n for nilpotent tops, plus the
    general cap exponent n/(m a(N)) on the top-group count."""
    a_N, a_B = exact(a_N, "a(N)"), exact(a_B, "a(B)")
    if n < 1 or m < 1 or a_N <= 0 or a_B <= 0:
        raise ValidationError("degrees and minimal weights must be positive")
    return DirectProductCondition(passes=Fraction(a_B, m) > Fraction(a_N, n),
                                  cap_exponent=Fraction(n, 1) / (m * a_N))
