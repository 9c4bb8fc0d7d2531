"""Behavioral equivalence of the pure and compiled permutation kernels."""
import random

import pytest

from tamecount._kernels import pure

try:
    from tamecount._kernels import _speed as speed
except ImportError:
    speed = None

needs_speed = pytest.mark.skipif(speed is None, reason="compiled kernel unavailable")


def random_perm(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


@needs_speed
def test_pointwise_ops_agree():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 24)
        p = random_perm(rng, n)
        q = random_perm(rng, n)
        assert pure.compose(p, q) == speed.compose(p, q)
        assert pure.inverse(p) == speed.inverse(p)
        assert pure.conjugate(p, q) == speed.conjugate(p, q)
        assert pure.cycle_count(p) == speed.cycle_count(p)


@needs_speed
def test_closure_agrees():
    gens_sets = [
        [(2, 3, 4, 1), (3, 2, 1, 4)],
        [(2, 1, 3, 4, 5), (1, 2, 3, 5, 4)],
        [(2, 3, 1), (1, 3, 2)],
    ]
    for gens in gens_sets:
        a = pure.closure(gens, 10_000)
        b = speed.closure(gens, 10_000)
        assert a == b


@needs_speed
def test_closure_cap_agrees():
    gens = [(2, 3, 4, 5, 1), (2, 1, 3, 4, 5)]  # S5, order 120
    assert pure.closure(gens, 50) is None
    assert speed.closure(gens, 50) is None
    assert len(speed.closure(gens, 120)) == 120


def test_backend_selection_env(monkeypatch):
    import importlib
    import tamecount._kernels as kernels
    monkeypatch.setenv("TAMECOUNT_PURE", "1")
    reloaded = importlib.reload(kernels)
    assert reloaded.BACKEND == "pure"
    monkeypatch.delenv("TAMECOUNT_PURE")
    importlib.reload(kernels)


def test_pure_identity_and_composition():
    ident = (1, 2, 3)
    p = (2, 3, 1)
    assert pure.compose(ident, p) == p
    assert pure.compose(p, pure.inverse(p)) == ident
    assert pure.cycle_count(ident) == 3
