import pytest

import tamecount.hull_lp as hull_lp
from tamecount import CyclotomicProfile, resolve_entry


@pytest.fixture
def recorded_lps(monkeypatch):
    """The (LPProblem, LPResult) of every lp_solve call made through hull_lp."""
    results = []
    solve = hull_lp.lp_solve

    def recording_solve(problem):
        results.append((problem, solve(problem)))
        return results[-1][1]

    monkeypatch.setattr(hull_lp, "lp_solve", recording_solve)
    return results


@pytest.fixture(scope="session")
def cyc_q():
    return CyclotomicProfile.full_q()


@pytest.fixture(scope="session")
def d4_quartic():
    return resolve_entry("4T3")


@pytest.fixture(scope="session")
def d4_octic():
    return resolve_entry("8T4")


@pytest.fixture(scope="session")
def q8c2_deg8():
    return resolve_entry("8T11")


@pytest.fixture(scope="session")
def q8c2_deg16():
    return resolve_entry("16T11")


@pytest.fixture(scope="session")
def d4_types(d4_quartic, cyc_q):
    return d4_quartic.types(cyc_q)


@pytest.fixture(scope="session")
def octic_types(d4_octic, cyc_q):
    return d4_octic.types(cyc_q)


@pytest.fixture(scope="session")
def t16_types(q8c2_deg16, cyc_q):
    return q8c2_deg16.types(cyc_q)
