#!/usr/bin/env python3
"""Benchmark the pure vs compiled permutation kernels.

The hot loop of the toolkit is element closure; this script times both
backends on the same inputs.

    python benchmarks/bench_kernels.py [--repeat N]
"""
import argparse
import time

from tamecount._kernels import pure

try:
    from tamecount._kernels import _speed as speed
except ImportError:
    speed = None


def build_inputs():
    """Generator sets of growing closure size, as raw image tuples."""
    def cycle(n):
        return tuple(range(2, n + 1)) + (1,)

    def transpose(n):
        return (2, 1) + tuple(range(3, n + 1))

    d4_a = (2, 3, 4, 1)
    d4_b = (3, 2, 1, 4)

    def wreathed(gens, n, m):
        # copies of the generators in each of m blocks, plus the block cycle
        out = []
        for block in range(m):
            for g in gens:
                images = list(range(1, n * m + 1))
                for i in range(1, n + 1):
                    images[block * n + i - 1] = block * n + g[i - 1]
                out.append(tuple(images))
        top = [((b + 1) % m) * n + i for b in range(m) for i in range(1, n + 1)]
        out.append(tuple(top))
        return out

    return [
        ("S7 (order 5040)", [cycle(7), transpose(7)]),
        ("D4 wr C3 (order 1536)", wreathed([d4_a, d4_b], 4, 3)),
        ("C2 wr C12 (order 49152)", wreathed([(2, 1)], 2, 12)),
    ]


def timed(fn, *args, repeat=3):
    best = None
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    print(f"{'input':<28} {'kernel':<22} {'pure':>10} {'speed':>10} {'ratio':>7}")
    for name, gens in build_inputs():
        t_pure, elems = timed(pure.closure, gens, 10 ** 6, repeat=args.repeat)
        row = f"{name:<28} {'closure':<22} {t_pure * 1e3:9.1f}ms"
        if speed is not None:
            t_fast, elems_fast = timed(speed.closure, gens, 10 ** 6,
                                       repeat=args.repeat)
            assert elems == elems_fast
            row += f" {t_fast * 1e3:9.1f}ms {t_pure / t_fast:6.1f}x"
        else:
            row += f" {'n/a':>10} {'':>7}"
        print(row)
    if speed is None:
        print("\ncompiled kernel not built; showing pure timings only")


if __name__ == "__main__":
    main()
