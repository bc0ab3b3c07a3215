"""Benchmark inputs, built from the seed without calling flaghorn.

Everything here is the benchmark's own arithmetic: the job pool of the
``enumerate`` workload, the exact-degree tuple counts behind
``tuples_per_s``, and the random requests of the ``query`` workload.
The program under test only ever receives the generated inputs.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

# The enumerate pool.  Each entry lists interchangeable variants: flag types
# with the same multiset of block sizes (a flag and its dual), or one flag
# under two methods.  Variants of one entry have the same Poincare polynomial,
# hence the same number of exact-degree tuples, so every seed covers the same
# number of tuples and passes of different seeds cost about the same.  The
# seed picks one variant per entry and the order of the entries.
POOL: tuple[tuple[tuple[str, ...], int, tuple[str, ...]], ...] = (
    (("1,3/6", "3,5/6"), 3, ("via_iii",)),
    (("1,4/6", "2,5/6"), 3, ("via_iii",)),
    (("2,3/6", "3,4/6"), 3, ("via_iii",)),
    (("1,2,3/5", "2,3,4/5"), 3, ("via_iii",)),
    (("1,2,4/6", "2,4,5/6"), 2, ("via_iii",)),
    (("1,3,4/6", "2,3,5/6"), 2, ("via_iii",)),
    (("1,2/6", "4,5/6"), 3, ("via_iii",)),
    (("1,2,3,4/5",), 2, ("via_i", "via_iv")),
    (("2,4/6",), 2, ("via_iii", "via_iv")),
    (("1,2/5", "3,4/5"), 3, ("via_i", "via_iv")),
    (("3/6",), 3, ("via_iii", "via_iv")),
)

# The default sweep of the thm1 suite (flag types, tuple sizes 2 and 3):
# the exact-degree tuples that `verify` checks three ways.
VERIFY_SWEEP = ("1,2/3", "1,2/4", "1,3/4", "2/4", "1,2,3/4", "2/5", "1,2/5")
VERIFY_SIZES = (2, 3)

# The query families, fixed up front: (flag type, tuple size).  Coefficient
# requests use flags with n = 6-7; decisions use n = 8-9 and larger s.  The
# decide flags are ones whose three-route cross-check, run on every request,
# costs a few milliseconds: on 2,5/8 or 2,6/8 it averages 40 ms and reaches
# 0.35 s, which would leave a run little time to measure.
COEFF_FAMILY = (
    ("2,4/6", 3), ("1,3,5/6", 3), ("3/6", 4),
    ("3/7", 3), ("2,5/7", 3), ("1,3,5/7", 2), ("2,4/7", 3),
)
DECIDE_FAMILY = (("3/8", 4), ("4/8", 4), ("3/9", 4), ("3/9", 5), ("2/9", 5), ("1,4/8", 3))
# Requests of each family in one session.  Coefficient times are heavy-tailed
# (standard deviation about 2.4 times the mean), so what a session costs
# depends on its draw: with 72 coefficient requests a flag, the polynomial
# work of a session had a coefficient of variation of 9% between seeds.  A
# session holds five times as many coefficient requests as decisions, whose
# check is what costs most outside the timed window, so that a run draws as
# many coefficients as its time allows.
PER_FAMILY = {"coeff": 144, "decide": 28}
REQUESTS = {"coeff": PER_FAMILY["coeff"] * len(COEFF_FAMILY),
            "decide": PER_FAMILY["decide"] * len(DECIDE_FAMILY)}


def parse_flag(text: str) -> tuple[tuple[int, ...], int]:
    head, _, tail = text.partition("/")
    return tuple(int(a) for a in head.split(",")), int(tail)


def block_sizes(text: str) -> tuple[int, ...]:
    steps, n = parse_flag(text)
    bounds = (0, *steps, n)
    return tuple(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1))


def dimension(text: str) -> int:
    steps, n = parse_flag(text)
    bounds = (0, *steps, n)
    return sum(bounds[i] * (bounds[i + 1] - bounds[i]) for i in range(1, len(bounds) - 1))


def count_exact_degree_tuples(text: str, s: int) -> int:
    """Unordered s-tuples of classes whose codimensions sum to the dimension,
    counted from the number of classes of each codimension (multisets, so a
    class may repeat) without listing the tuples."""
    dim = dimension(text)
    profile: dict[int, int] = {}
    for w in classes(text):
        profile[dim - inversions(w)] = profile.get(dim - inversions(w), 0) + 1
    ways = {(0, 0): 1}  # (classes chosen, codimension sum) -> count
    for c, n_c in profile.items():
        nxt: dict[tuple[int, int], int] = {}
        for (k, total), v in ways.items():
            for m in range(0, s - k + 1):
                if total + m * c > dim:
                    break
                key = (k + m, total + m * c)
                nxt[key] = nxt.get(key, 0) + v * comb(n_c + m - 1, m)
        ways = nxt
    return ways.get((s, dim), 0)


def pool_variants() -> list[tuple[str, int, str]]:
    """Every (flag, s, method) job the pool can draw."""
    return [(f, s, m) for flags, s, methods in POOL for f in flags for m in methods]


def enumerate_jobs(seed: int) -> list[tuple[str, int, str]]:
    rng = random.Random(seed)
    jobs = [(rng.choice(flags), s, rng.choice(methods)) for flags, s, methods in POOL]
    rng.shuffle(jobs)
    return jobs


def classes(text: str) -> list[tuple[int, ...]]:
    """Minimal coset representatives: one-line permutations that increase
    inside every block."""
    n = parse_flag(text)[1]
    sizes = block_sizes(text)
    out: list[tuple[int, ...]] = []

    def fill(rest: tuple[int, ...], k: int, acc: tuple[int, ...]) -> None:
        if k == len(sizes):
            out.append(acc)
            return
        for chosen in combinations(rest, sizes[k]):
            fill(tuple(x for x in rest if x not in chosen), k + 1, acc + chosen)

    fill(tuple(range(1, n + 1)), 0, ())
    return out


def inversions(w: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


class _Family:
    def __init__(self, text: str, s: int) -> None:
        self.flag, self.s = text, s
        self.dim = dimension(text)
        self.classes = classes(text)
        self.by_codim: dict[int, list[tuple[int, ...]]] = {}
        for w in self.classes:
            self.by_codim.setdefault(self.dim - inversions(w), []).append(w)

    def draw(self, rng: random.Random) -> list[list[int]]:
        """A random exact-degree tuple: s - 1 uniform classes and a last
        class of the codimension that is left, redrawn until one exists."""
        while True:
            head = [rng.choice(self.classes) for _ in range(self.s - 1)]
            need = self.dim - sum(self.dim - inversions(w) for w in head)
            if need in self.by_codim:
                chosen = sorted(head + [rng.choice(self.by_codim[need])])
                return [list(w) for w in chosen]


def query_requests(seed: int, session: int) -> list[dict]:
    """One session: PER_FAMILY requests of each family, interleaved in a
    random order.  Every session of a run has its own requests, drawn from
    the seed and the session number."""
    rng = random.Random(seed * 1_000_003 + session)
    out = []
    for kind, families in (("coeff", COEFF_FAMILY), ("decide", DECIDE_FAMILY)):
        for flag, s in families:
            family = _Family(flag, s)
            out += [{"kind": kind, "flag": flag, "tuple": family.draw(rng)}
                    for _ in range(PER_FAMILY[kind])]
    rng.shuffle(out)
    return out
