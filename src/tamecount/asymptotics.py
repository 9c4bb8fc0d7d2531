"""Malle verdicts: thresholds, continuation width, pole brackets, and the
Tauberian power-saving exponent, composed from regions + hull + weights."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .hull_lp import HullCertificate, exact, hull_membership, line_threshold, rational_str
from .perm import PermutationGroup
from .ramtypes import CyclotomicProfile, min_weight, pole_order_bound
from .regions import (SubconvexityProfile, build_region, subconvexity_matrix,
                      witness_type_labels)

SCHEMA_VERSION = "1"

VERDICT_POWER_SAVING = "asymptotic-with-power-saving"
VERDICT_ASYMPTOTIC = "asymptotic-only"
VERDICT_HULL_TOO_SMALL = "hull-too-small"

# published values for the worked analyses; a strict improvement is
# flagged rather than silently accepted
PUBLISHED_BASELINES = {
    ("4T3", "disc"): (Fraction(9, 16), Fraction(15, 22)),
    ("4T3", "cond-d4"): (Fraction(27, 32), Fraction(39, 44)),
    ("8T4", "disc"): (Fraction(27, 128), Fraction(61, 274)),
    ("8T11", "disc"): (Fraction(23, 80), Fraction(19, 55)),
    ("16T11", "disc"): (Fraction(23, 192), Fraction(97, 800)),
}
_BASELINE_PROFILES = ("burgess-yang", "paper-d4", "paper-16t11")


@dataclass
class MalleReport:
    group: str
    degree: int
    weight: str
    profile: str
    cyclotomic: str
    a_inv: Fraction
    sigma_a: Fraction
    threshold: Fraction
    delta: Fraction
    b_low: int
    b_high: int
    xi: Fraction | None
    power_saving_exponent: Fraction | None
    verdict: str
    pole_point: dict
    certificate: HullCertificate | None
    witnesses: list        # generator cycle strings per witness
    variables: tuple
    published_check: str | None = None

    def to_json_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "group": self.group,
            "degree": self.degree,
            "weight": self.weight,
            "profile": self.profile,
            "cyclotomic": self.cyclotomic,
            "a_inv": rational_str(self.a_inv),
            "sigma_a": rational_str(self.sigma_a),
            "threshold": rational_str(self.threshold),
            "delta": rational_str(self.delta),
            "b_low": self.b_low,
            "b_high": self.b_high,
            "xi": None if self.xi is None else rational_str(self.xi),
            "power_saving_exponent": (None if self.power_saving_exponent is None
                                      else rational_str(self.power_saving_exponent)),
            "verdict": self.verdict,
            "pole_point": {v: rational_str(self.pole_point[v]) for v in self.variables},
            "certificate": (None if self.certificate is None
                            else self.certificate.to_json_dict(self.variables)),
            "witnesses": self.witnesses,
            "published_check": self.published_check,
        }


def xi_exponent(regions, witness_type_sets, beta, wt, s_star: Fraction) -> Fraction:
    """Hull-wide t-aspect exponent of the specialized series.

    Variables split into pointwise ones (identical pure lower bound in
    every region, zero coefficient in every mixed constraint, member of
    every witness's type set: their bound survives on the hull as a
    non-increasing function of sigma) and hulled ones (worst-case bound
    taken per region).  witness_type_sets holds one label set per region,
    in order; beta maps labels to t-aspect exponents; wt maps labels to
    weights; s_star is the specialization threshold.
    """
    if not regions:
        raise ValidationError("no regions given")
    if len(witness_type_sets) != len(regions):
        raise ValidationError("xi needs exactly one witness type set per region")
    variables = regions[0].variables
    lower = {v: [r.pure_lower_bound(v) for r in regions] for v in variables}
    in_mixed = {lab for r in regions for lab in r.mixed_labels}
    pointwise = []
    hulled = []
    for v in variables:
        if (len(set(lower[v])) == 1 and v not in in_mixed
                and all(v in s for s in witness_type_sets)):
            pointwise.append(v)
        else:
            hulled.append(v)
    regional = []
    for j, labels in enumerate(witness_type_sets):
        total = Fraction(0)
        for v in hulled:
            if v in labels:
                total += beta[v] * max(1 - lower[v][j], Fraction(0))
        regional.append(total)
    xi = max(regional)
    for v in pointwise:
        xi += beta[v] * max(1 - wt[v] * s_star, Fraction(0))
    return xi


def b_bounds(wt, types, witness_type_sets, pole_orders):
    """Bracket for the pole order of the specialized series at sigma_a.

    b_low = max over witnesses of the pole-order sum over minimum-weight
    types inside that witness; b_high sums over the union.  The degree of
    the main-term polynomial lies in [b_low - 1, b_high - 1].
    """
    min_labels = [t.label for t in min_weight(wt, types)[1]]
    per_witness = [sum(pole_orders[lab] for lab in min_labels if lab in labels)
                   for labels in witness_type_sets]
    union = set().union(*witness_type_sets)
    b_low = max(per_witness) if per_witness else 0
    b_high = sum(pole_orders[lab] for lab in min_labels if lab in union)
    return b_low, b_high


def analyze(G: PermutationGroup, types, wt, witnesses, profile: SubconvexityProfile,
            cyc: CyclotomicProfile, *, group_label="", weight_name=None,
            baselines=PUBLISHED_BASELINES) -> MalleReport:
    """Full pipeline for one (group, weight, witnesses, profile) request."""
    wt.validate_total(types)
    if not witnesses:
        raise ValidationError("at least one abelian normal witness is required")
    witnesses = [frozenset(T) for T in witnesses]
    witness_sets = [frozenset(witness_type_labels(T, types)) for T in witnesses]
    matrix = subconvexity_matrix(G, types, profile, cyc, columns=frozenset().union(*witness_sets))
    regions = [build_region(G, T, types, profile, cyc, matrix=matrix) for T in witnesses]
    witness_gens = [sorted(g.cycle_string() for g in T if not g.is_identity())
                    for T in witnesses]
    a_inv = min_weight(wt, types)[0]
    sigma_a = 1 / a_inv
    wt_map = {t.label: wt(t) for t in types}
    threshold = line_threshold(lambda v: wt_map[v], regions)
    delta = sigma_a - threshold
    pole_point = {t.label: wt(t) / a_inv for t in types}
    _, cert = hull_membership(pole_point, regions, mode="open")
    pole_orders = {t.label: pole_order_bound(t, G, cyc) for t in types}
    b_low, b_high = b_bounds(wt, types, witness_sets, pole_orders)
    xi = None
    exponent = None
    if delta > 0:
        if profile.beta is not None:
            xi = xi_exponent(regions, witness_sets, profile.beta,
                             wt_map, threshold)
            exponent = sigma_a - delta / (xi + 1)
            verdict = VERDICT_POWER_SAVING
        else:
            verdict = VERDICT_ASYMPTOTIC
    else:
        verdict = VERDICT_HULL_TOO_SMALL
    wname = weight_name if weight_name is not None else wt.name
    published_check = None
    if baselines and profile.name in _BASELINE_PROFILES and cyc.is_full:
        base = baselines.get((group_label, wname))
        if base is not None:
            base_threshold, base_exponent = base
            if threshold == base_threshold and exponent == base_exponent:
                published_check = "matches-published"
            elif threshold < base_threshold or (
                    exponent is not None and exponent < base_exponent):
                published_check = "exceeds-published"
            else:
                published_check = "below-published"
    return MalleReport(
        group=group_label or (G.name or "?"),
        degree=G.degree,
        weight=wname,
        profile=profile.name,
        cyclotomic=cyc.name,
        a_inv=a_inv,
        sigma_a=sigma_a,
        threshold=threshold,
        delta=delta,
        b_low=b_low,
        b_high=b_high,
        xi=xi,
        power_saving_exponent=exponent,
        verdict=verdict,
        pole_point=pole_point,
        certificate=cert,
        witnesses=witness_gens,
        variables=tuple(t.label for t in types),
        published_check=published_check,
    )


@dataclass(frozen=True)
class GammaFamilyResult:
    gamma: Fraction
    threshold: Fraction
    power_saving_exponent: Fraction
    secondary_visible: bool


def d4_gamma_family(gamma) -> GammaFamilyResult:
    """The D4 invariant family between the conductor and the quartic
    discriminant: threshold, exponent, and secondary-term visibility.

    Visibility of the potential X^{1/(1+gamma)} term is the sign condition
    6*gamma^2 + 23*gamma - 5 < 0 (the exponent dips below 1/(1+gamma)).
    """
    gamma = Fraction(exact(gamma, "gamma"))
    if gamma < 0:
        raise ValidationError("gamma must be nonnegative")
    if gamma > Fraction(11, 8):
        raise ValidationError("the family is computed for gamma <= 11/8")
    threshold = max(Fraction(27, 32 + 16 * gamma), Fraction(1, 2))
    exponent = Fraction(39 + 6 * gamma, 44 + 22 * gamma)
    quadratic = 6 * gamma * gamma + 23 * gamma - 5
    return GammaFamilyResult(gamma=gamma, threshold=threshold,
                             power_saving_exponent=exponent,
                             secondary_visible=quadratic < 0)
