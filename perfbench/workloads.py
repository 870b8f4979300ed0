"""Workload grids, seeded case drawing and the operations the benchmark times.

Three workloads:

* ``arith-sweep``: one op is one (chi, k) case of the Carlitz and gbn-theorem
  acceptance grids (``bernoulli.gbn``, ``bernoulli.verify_carlitz``, and on the
  gbn-theorem grid the denominator-ideal vs homotopy comparison), plus a few
  cases in fields of degree 10 and 12.
* ``homotopy-sweep``: ``homotopy.pi_jn_chi_paths`` over primitive characters
  of conductor <= 48, Brown-Comenetz duality rows, and the p-adic SNF oracle
  against the closed-form E2 pages.
* ``cli-cold``: ``dirichletj ... --json`` calls, one cold process per call.

Every op belongs to a *group*: a set of ops that a seed draws or skips as a
whole (all k of one character, all degrees of one character, all t of one
tame p-adic character, one CLI call).
``reference.json`` pins a digest per group, so the outputs of any seed can be
checked, not only those of the default seed.

The functions here take ``dj``, a namespace holding the imported package
modules, so that the caller controls where (and in which process) the package
is imported.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass

WORKLOADS = ("arith-sweep", "homotopy-sweep", "cli-cold")

# -- arith-sweep grid ---------------------------------------------------------
CARLITZ_CONDUCTORS = (3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)
CARLITZ_MAX_K = 20
GBN_A_MAX_MODULUS = 16
GBN_A_MAX_K = 12
GBN_B_MODULI = (3, 4, 5, 7, 11, 13)
GBN_B_MODULI_INVERT2 = (9, 25, 27)
GBN_B_MAX_K = 12
# Fields of degree 10 and 12 (conductors 23 and 29): a run draws one
# character of each and runs its gbn (both pipelines) at every k in
# EXTENSION_K of its parity.  They run no Carlitz check: at degree 12 one
# costs about 3 s, which would leave room for too few passes in a run.
EXTENSION = ((23, (11, 22)), (29, (28,)))
EXTENSION_K = range(1, 11)
# Share of the grid's characters (and of the tame characters of each p-adic
# level) a seeded run draws.  Passes are kept short so that many fit in one
# run: each op's latency is its median over the passes (see run.py).
ARITH_FRACTION = 0.1
HOMOTOPY_FRACTION = 0.125
PADIC_FRACTION = 0.25
# Candidate draws per stratum, of which the one closest to the mean cost is kept.
DRAW_TRIES = 64
# The draw every run makes; --seed orders its groups (see build_ops).
FIXED_DRAW_SEED = 0

# -- homotopy-sweep grid ------------------------------------------------------
PATHS_MAX_CONDUCTOR = 48
PATHS_DEGREES = range(-8, 25)
DUALITY_ODD = ((3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2))
DUALITY_TWO = ((2, 2), (2, 3), (2, 4))
DUALITY_T = range(-20, 21)
PADIC_PRIMES = (3, 5, 7)
PADIC_VS = (2, 3)
PADIC_T = range(-10, 11)
# p = 11, v = 3: 110 x 110 SNF matrices.  One draw on the Z/p stripe, one off.
PADIC_EXTENSION = (11, 3, 1, 1)

# -- cli-cold: moduli whose `chars list` costs sit in one narrow band each ------
CHARS_MID = (900, 924, 936, 960, 990, 1020, 1050, 1092)
# Calls per cli-cold stratum: every stratum gets the same share of a pass,
# CLI_STRATUM_MS at its mean pinned cost per call (``cost_ms`` in
# reference.json), and at least one call; a stratum with fewer candidates
# gives all of them.
CLI_STRATUM_MS = 300.0

# Passes per run are --seconds // PASS_SECONDS (at least one): the count does
# not depend on how fast the code runs, so a run of the parent and a run of a
# change take their medians over equally many passes.  A pass takes about
# 1.7 s (arith, homotopy) or 3.7 s (cli) on the baseline machine, so the
# passes of a 20 s run fill about 17 s and a slower host still fits.
PASS_SECONDS = {"arith-sweep": 1.875, "homotopy-sweep": 1.875, "cli-cold": 4.25}


@dataclass(frozen=True)
class Op:
    """One timed operation: a JSON-able key and the group it is drawn with."""

    key: tuple
    group: str


def case_digest(ops: list[Op]) -> str:
    """Digest of the case list, so a run can show which inputs it used."""
    return hashlib.sha256(json.dumps([list(op.key) for op in ops]).encode()).hexdigest()[:16]


def op_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def output_digest(op_digests: list[str]) -> str:
    """Digest of a sequence of op digests (a group's, or a whole run's)."""
    return hashlib.sha256(" ".join(op_digests).encode()).hexdigest()[:16]


def group_digests(ops: list[Op], op_digests: list[str]) -> dict[str, str]:
    """Digest of each group's outputs, in op order."""
    by_group: dict[str, list[str]] = {}
    for op, digest in zip(ops, op_digests):
        by_group.setdefault(op.group, []).append(digest)
    return {g: output_digest(ds) for g, ds in by_group.items()}


# ---------------------------------------------------------------------------
# Case lists


def _primitive(dj, N: int) -> list:
    return [c for c in dj.characters.enumerate_characters(N) if dj.characters.is_primitive(c) and not c.is_trivial()]


def _arith_pool(dj) -> tuple[dict, list]:
    """The acceptance-grid ops and the degree-extension candidates.

    Returns ({(N, index): {k: steps}}, [(N, index), ...]); a step is "g"
    (gbn), "c" (Carlitz) or "t" (denominator theorem).
    """
    ch = dj.characters
    steps: dict[tuple[int, int], dict[int, set]] = {}

    def add(chi, k, step):
        steps.setdefault((chi.modulus, chi.index()), {}).setdefault(k, set()).add(step)

    for N in range(1, GBN_A_MAX_MODULUS + 1):
        for chi in ch.enumerate_characters(N):
            for k in range(0, GBN_A_MAX_K + 1):
                add(chi, k, "g")
    for N in CARLITZ_CONDUCTORS:
        for chi in _primitive(dj, N):
            for k in range(1, CARLITZ_MAX_K + 1):
                if (-1) ** k == ch.parity(chi):
                    add(chi, k, "c")
    for N in GBN_B_MODULI + GBN_B_MODULI_INVERT2:
        for chi in _primitive(dj, N):
            for k in range(-GBN_B_MAX_K, GBN_B_MAX_K + 1):
                if k != 0 and (-1) ** k == ch.parity(chi):
                    add(chi, k, "t")
    extension = [(N, chi.index()) for N, orders in EXTENSION for chi in _primitive(dj, N) if chi.order() in orders]
    return steps, extension


def _binned_draw(items: list, count: int, cost, rng: random.Random) -> list:
    """``count`` items, one from each of ``count`` equal bins of ``items`` ranked by pinned cost.

    Of DRAW_TRIES such draws the one whose total pinned cost is closest to
    ``count`` times the mean is kept, so the draw holds the stratum's spread of
    costs and its share of their total.
    """
    ranked = sorted(items, key=lambda item: (cost(item), item))
    target = count * statistics.mean(cost(item) for item in ranked)
    draws = [sorted(rng.choice(ranked[i * len(ranked) // count:(i + 1) * len(ranked) // count])
                    for i in range(count)) for _ in range(DRAW_TRIES)]
    return min(draws, key=lambda draw: abs(sum(cost(item) for item in draw) - target))


def _arith_ops(dj, seed: int | None, costs: dict | None) -> list[Op]:
    steps, extension = _arith_pool(dj)
    chars = sorted(steps)
    rng = None if seed is None else random.Random(seed)
    if rng is not None:
        # Drawn separately among characters with equally many weights, so the op count is fixed.
        by_weights: dict[int, list] = {}
        for c in chars:
            by_weights.setdefault(len(steps[c]), []).append(c)
        chars = sorted(c for n in sorted(by_weights) for c in _binned_draw(
            by_weights[n], math.ceil(ARITH_FRACTION * len(by_weights[n])),
            lambda c: costs[f"arith:{c[0]}:{c[1]}"], rng))
    ops = []
    for N, idx in chars:
        for k in sorted(steps[(N, idx)]):
            ops.append(Op(("arith", N, idx, k, "".join(sorted(steps[(N, idx)][k]))), f"arith:{N}:{idx}"))
    if rng is not None:  # one character of each conductor; they cost alike at the same k
        extension = [rng.choice([c for c in extension if c[0] == N]) for N, _ in EXTENSION]
    for N, idx in extension:
        parity = dj.characters.parity(dj.characters.character_from_index(N, idx))
        for k in EXTENSION_K:
            if (-1) ** k == parity:
                ops.append(Op(("arith", N, idx, k, "g"), f"arith:{N}:{idx}"))
    return ops


def _homotopy_ops(dj, seed: int | None, costs: dict | None) -> list[Op]:
    # Quadratic characters of odd prime conductor form a stratum of their own:
    # every run then has values the sympy oracle can check.
    strata: dict[bool, list] = {False: [], True: []}
    for N in range(3, PATHS_MAX_CONDUCTOR + 1):
        prime = all(N % d for d in range(2, N))
        for chi in _primitive(dj, N):
            strata[prime and chi.order() == 2].append((N, chi.index()))
    paths = sorted(strata[False] + strata[True])
    duality = [(p**v, chi.index(), v) for p, v in DUALITY_ODD + DUALITY_TWO for chi in _primitive(dj, p**v)]
    rng = None if seed is None else random.Random(seed)
    if rng is not None:
        paths = sorted(c for stratum in (strata[True], strata[False]) for c in _binned_draw(
            stratum, math.ceil(HOMOTOPY_FRACTION * len(stratum)), lambda c: costs[f"paths:{c[0]}:{c[1]}"], rng))
        count = math.ceil(HOMOTOPY_FRACTION * len(duality))
        duality = _binned_draw(duality, count, lambda c: costs[f"duality:{c[0]}:{c[1]}"], rng)
    ops = []
    for N, idx in paths:
        for i in PATHS_DEGREES:
            ops.append(Op(("paths", N, idx, i), f"paths:{N}:{idx}"))
    for N, idx, v in duality:
        for t in DUALITY_T:
            ops.append(Op(("duality", N, idx, v, t), f"duality:{N}:{idx}"))
    for p in PADIC_PRIMES:
        for v in PADIC_VS:
            tame = list(range(p - 1))
            if rng is not None:
                tame = _binned_draw(tame, math.ceil(PADIC_FRACTION * len(tame)),
                                    lambda a: costs[f"padic:{p}:{v}:{a}"], rng)
            for a in tame:
                for t in PADIC_T:
                    ops.append(Op(("padic", p, v, a, t), f"padic:{p}:{v}:{a}"))
    p, v, on_stripe, off_stripe = PADIC_EXTENSION
    cands = [(a, t) for a in range(p - 1) for t in PADIC_T]
    on = [c for c in cands if (c[1] - c[0]) % (p - 1) == 0]
    off = [c for c in cands if (c[1] - c[0]) % (p - 1) != 0]
    if rng is not None:
        on, off = rng.sample(on, on_stripe), rng.sample(off, off_stripe)
    for a, t in sorted(on + off):
        ops.append(Op(("padic", p, v, a, t), f"padic:{p}:{v}:{a}:{t}"))
    return ops


def passes(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_SECONDS[workload]))


def _cli_strata(dj) -> list[tuple[str, list[list[str]]]]:
    """(stratum, candidate argv lists)."""
    ch = dj.characters

    def bern(moduli, degrees, ks):
        out = []
        for N in moduli:
            for chi in _primitive(dj, N):
                if dj.cyclotomic.euler_phi(chi.order()) in degrees:
                    for k in ks:
                        if (-1) ** k == ch.parity(chi):
                            out.append(["bern", "--modulus", str(N), "--index", str(chi.index()), "--weight", str(k)])
        return out

    def chars(moduli):
        return [["chars", "list", "--modulus", str(N)] for N in moduli]

    def eis(conductors, ks, nmaxes):
        out = []
        for N in conductors:
            for chi in _primitive(dj, N):
                for k in ks:
                    if (-1) ** k == ch.parity(chi):
                        for n in nmaxes:
                            out.append(["eisenstein", "--modulus", str(N), "--index", str(chi.index()),
                                        "--weight", str(k), "--nmax", str(n)])
        return out

    homotopy = []
    for N in (5, 7, 11, 13, 16, 19, 24, 29, 37, 48):
        for chi in _primitive(dj, N)[:3]:
            homotopy.append(["homotopy", "chi", "--modulus", str(N), "--index", str(chi.index()),
                             "--from", "-8", "--to", "24"])
    for lo, hi in ((-20, 20), (-4, 40), (1, 60)):
        homotopy.append(["homotopy", "j", "--from", str(lo), "--to", str(hi)])
    for N, gens in ((5, "4"), (7, "6"), (8, "7"), (9, "8"), (13, "12"), (1, "")):
        for lo, hi in ((1, 12), (3, 24)):
            homotopy.append(["homotopy", "jk", "--modulus", str(N), "--subgroup", gens,
                             "--from", str(lo), "--to", str(hi)])
    e2 = []
    for p in (3, 5, 7, 11):
        for v in (1, 2, 3):
            for a in range(0, p - 1, 2):
                e2.append(["e2", "--prime", str(p), "--level-exp", str(v), "--tame", str(a),
                           "--tmin", "-20", "--tmax", "20"])
    dedekind = []
    for N, gens in ((5, "4"), (7, "6"), (8, "7"), (1, "")):
        for w in (2, 4):
            for t in (1, 2, 3):
                dedekind.append(["dedekind", "--modulus", str(N), "--subgroup", gens, "--weight", str(w),
                                 "--verify-t", str(t)])
    return [
        # Quadratic characters get a stratum of their own: every run then has
        # values the sympy oracle can check.
        ("bern-deg1", bern((3, 4, 5, 7, 8, 11, 12, 13, 15, 19, 20, 21, 23, 24), (1,), range(1, 13))),
        ("bern-deg2-4", bern((5, 7, 8, 9, 11, 12, 13, 15, 16), (2, 4), range(1, 13))),
        ("bern-deg6", bern((19, 27), (6,), range(1, 13))),
        # k = 37 is left out: every degree-16 character of modulus 61 takes over 3 s there.
        ("bern-deg16", bern((61,), (16,), (33, 35, 39))),
        ("chars-small", chars(range(100, 401))),
        ("chars-mid", chars(CHARS_MID)),
        ("eisenstein-small", eis((3, 4, 5, 7), range(1, 10), (200, 300, 400, 500))),
        ("eisenstein-large", eis((5, 7), range(1, 13), (1800, 1900, 2000))),
        ("homotopy", homotopy),
        ("e2", e2),
        ("dedekind", dedekind),
    ]


def cli_stratum_calls(costs: list[float]) -> int:
    """Calls a run draws from a stratum whose candidates have these pinned costs (ms)."""
    return min(len(costs), max(1, round(CLI_STRATUM_MS / statistics.mean(costs))))


def cli_group(argv: list[str]) -> str:
    return "cli:" + " ".join(argv)


def _cli_ops(dj, seed: int | None, costs: dict | None) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for name, cands in _cli_strata(dj):
        if seed is not None:
            count = cli_stratum_calls([costs[cli_group(argv)] for argv in cands])
            cands = _binned_draw(cands, count, lambda argv: costs[cli_group(argv)], rng)
        ops += [Op(("cli", name, *argv), cli_group(argv)) for argv in cands]
    return ops


def _shuffled_groups(ops: list[Op], seed: int) -> list[Op]:
    """The ops with their groups in an order drawn from ``seed``; each group keeps its own order."""
    groups: dict[str, list[Op]] = {}
    for op in ops:
        groups.setdefault(op.group, []).append(op)
    order = sorted(groups)
    random.Random(seed).shuffle(order)
    return [op for group in order for op in groups[group]]


def build_ops(dj, workload: str, seed: int | None, costs: dict | None = None) -> list[Op]:
    """The seeded case list, or with ``seed=None`` every candidate of the grid.

    ``costs`` maps each group to its pinned time in ms (``cost_ms`` in
    reference.json); a seeded draw needs it.  Every seed runs the same draw
    (FIXED_DRAW_SEED) with its groups in an order drawn from the seed.  Draws
    of different seeds, though equal in pinned cost, differed by up to a
    factor of two in median op latency: groups share caches within a pass,
    and a pinned cost is one cold, noisy timing.
    """
    draw = {"arith-sweep": _arith_ops, "homotopy-sweep": _homotopy_ops, "cli-cold": _cli_ops}[workload]
    if seed is None:
        return draw(dj, None, costs)
    return _shuffled_groups(draw(dj, FIXED_DRAW_SEED, costs), seed)


# ---------------------------------------------------------------------------
# Operations.  Each returns (rendered output, ok).


def _arith_run(dj, key: tuple) -> tuple[str, bool]:
    _, N, idx, k, steps = key
    ch, bern = dj.characters, dj.bernoulli
    chi = ch.character_from_index(N, idx)
    parts = [dj.cyclotomic.render_cyc(bern.gbn(chi, abs(k)))]
    ok = True
    if "c" in steps:
        row = bern.verify_carlitz(chi, k)
        parts.append(row["case"])
        ok = ok and row["ok"]
    if "t" in steps:
        ell = ch.ell_of_chi(chi)
        inverted = set() if ell == 1 else {ell}
        if N in GBN_B_MODULI_INVERT2:
            inverted.add(2)
        ideal = bern.denom_ideal(ch.char_inv(chi), abs(k))
        arithmetic = dj.homotopy.invert_primes(dj.cyclotomic.quotient_group(ideal), inverted)
        topological = dj.homotopy.pi_jn_chi(chi, 2 * k - 1, inverted)
        parts += [arithmetic.render(), topological.render()]
        ok = ok and arithmetic == topological
    return "|".join(parts), ok


def _homotopy_run(dj, key: tuple) -> tuple[str, bool]:
    kind = key[0]
    if kind == "paths":
        _, N, idx, i = key
        direct, assembled = dj.homotopy.pi_jn_chi_paths(dj.characters.character_from_index(N, idx), i)
        return f"{direct.render()}|{assembled.render()}", direct == assembled
    if kind == "duality":
        _, N, idx, v, t = key
        (row,) = dj.homotopy.check_duality_dirichlet(dj.characters.character_from_index(N, idx), v, [t])
        return f"{row['lhs']}|{row['rhs']}", row["ok"]
    _, p, v, a, t = key
    A = dj.homotopy.AbelianGroupExpr
    got = dj.padic.quotient_oracle(p, v, a, t)
    expected = A.cyclic(p) if (t - a) % (p - 1) == 0 else A.zero()
    page = dj.padic.e2_page(dj.padic.PAdicCharacterData(p=p, v=v, tame=a), 1, 2 * t)
    return f"{got.render()}|{page.render()}", got == expected and page == got


def run_op(dj, key: tuple) -> tuple[str, bool]:
    """Run one arith or homotopy op in this process."""
    return _arith_run(dj, key) if key[0] == "arith" else _homotopy_run(dj, key)


def cli_argv(key: tuple) -> list[str]:
    return list(key[2:]) + ["--json"]
