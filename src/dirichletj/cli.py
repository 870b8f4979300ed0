"""Command-line surface: subcommands, their JSON and text views, and verification suites.

Each ``cmd_*`` subcommand returns ``(payload, text, code)``: the JSON
payload without its schema, a zero-argument renderer of the text view
(called only without ``--json``) and the exit code.  ``main`` alone writes
stdout: one ``json.dumps`` line with the schema added, or the text view.
Every subcommand is deterministic: identical arguments produce
byte-identical JSON (wall time is reported only in text output).  The
``verify`` subcommand runs the acceptance sweeps; its exit code is 0
exactly when no case failed (findings do not fail a suite: they mark
reported-only checks, like the full-ideal Eisenstein congruence).  Any
subcommand exits 2 on a bad argument (rejected by argparse, or by a
library check that raises ``InputError``) and 1 on any other error.

Each ``suite_*`` is a generator of rows, one per case: ``(case, outcome)``
or ``(case, outcome, payload)``, where the case is a tuple, the outcome
``True`` (pass), ``False`` (fail) or ``"finding"``, and the payload a
dict.  The ``@suite`` decorator alone counts the rows into an immutable
``RunReport``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from typing import Callable, Iterable, Iterator, Optional

from . import bernoulli, characters, dedekind, eisenstein, homotopy
from .characters import DirichletCharacter, InputError, character_from_index, char_inv, enumerate_characters
from .cyclotomic import (cyclotomic_factor_count, denominator_ideal, denominator_invariants, padic_splitting,
                         quotient_group, render_cyc)
from .exactalg import AbelianGroupExpr, Record, factorize, is_prime, staudt_odd_primes
from .padic import PAdicCharacterData, e2_page, quotient_oracle, quotient_oracle_2

SCHEMA = 1
# The divisor sieve of an Eisenstein series holds every sum up to --nmax at once; the
# coefficients are read off it one at a time, and only the printed ones are kept.
MAX_NMAX = 100_000
# Caps at about the cost of --nmax 100000, cold on a 2-core VM: `eisenstein --modulus 5 --index 1
# --weight 1` takes 0.3-0.4 s of CPU and 18 MB, `--modulus 29 --index 1` (order 28) 1.9-2.0 s and
# 25 MB; `chars list` of the prime 49999 0.5-1.0 s and 55 MB, and a 50000-degree `homotopy` table
# from degree 1 up to 1.9 s and 33 MB.  MAX_MODULUS bounds every modulus, level and prime
# the CLI reads, as each is factored by trial division, in every degree for a table,
# or sets the size of a table of residues; MAX_DEGREES also bounds an `e2` table's cells.
MAX_MODULUS = 50_000
MAX_DEGREES = 50_000
# One degree i costs one trial-division primality test per divisor d of (i + 1)/2
# with d + 1 prime (von Staudt's primes).  Cold calls on a 2-core VM: below the cap
# at most 0.8 s of CPU, for degree 49795199; 99459359 takes 4.1 s, 735134399 24 s.
MAX_ABS_DEGREE = 50_000_000
# B_(k,chi) costs about W^3 big-integer steps up to weight W.  Cold `bern --modulus 5
# --index 1` (odd, so only odd weights cost) on a 2-core VM: weight 601 takes 0.25-0.35 s
# of CPU and 16 MB, 999 0.7-1.2 s and 17 MB, and the value alone, in a fresh process,
# 4.0 s and 19 MB at 1499, 9.8 s and 23 MB at 1999.  Larger fields cost more at the same
# weight: 29:5 at weight 999 takes 4.0-6.4 s and 28 MB.
MAX_WEIGHT = 1_000

# (payload, text view, exit code), as returned by every cmd_* subcommand.
Output = tuple[dict, Callable[[], str], int]


def _check_cap(what: str, flag: str, value: int, cap: int, size: Optional[int] = None) -> None:
    """Refuse ``flag value`` when the size it gives, ``size`` (else ``value``), is above ``cap``."""
    if (value if size is None else size) > cap:
        raise InputError(f"{what} too large: {flag} {value} is above {cap}")


class RunReport(Record):
    """The result of one verification suite: its params, case counts, least failing case and wall time."""

    __slots__ = _fields = ("suite", "params", "run", "passed", "failed", "findings", "first_counterexample",
                           "wall_time")

    def __init__(self, suite: str, params: dict, run: int = 0, passed: int = 0, failed: int = 0, findings: int = 0,
                 first_counterexample: Optional[dict] = None, wall_time: float = 0.0):
        self._set(suite, params, run, passed, failed, findings, first_counterexample, wall_time)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "suite": self.suite,
            "params": self.params,
            "run": self.run,
            "passed": self.passed,
            "failed": self.failed,
            "findings": self.findings,
            "first_counterexample": self.first_counterexample,
        }

    def text(self) -> str:
        status = "PASS" if self.failed == 0 else "FAIL"
        line = (
            f"{status} {self.suite}: {self.passed}/{self.run} passed, "
            f"{self.failed} failed, {self.findings} findings ({self.wall_time:.2f}s)"
        )
        if self.first_counterexample is not None:
            line += f"\n  first counterexample: {json.dumps(self.first_counterexample, sort_keys=True)}"
        return line


# ---------------------------------------------------------------------------
# Verification suites


def _primitive_characters(N: int) -> list[DirichletCharacter]:
    return [chi for chi in enumerate_characters(N) if characters.is_primitive(chi) and not chi.is_trivial()]


def _matching_weights(chi: DirichletCharacter, weights: Iterable[int]) -> Iterable[int]:
    """The k of ``weights`` with (-1)^k = chi(-1), in order: where B_{k,chi} is not 0 by parity."""
    sign = characters.parity(chi)
    return (k for k in weights if (-1) ** k == sign)


Rows = Iterator[tuple]  # what a suite_* yields; see the module docstring

# The suites in ``verify all`` order, and the verify options each reads, as
# option -> keyword of its suite_* function; a suite not listed reads none.
SUITES: dict[str, Callable[..., RunReport]] = {}
SUITE_OPTIONS: dict[str, dict[str, str]] = {}


def suite(name: str, options: Optional[dict[str, str]] = None) -> Callable:
    """Register the generator ``sweep(**params)`` of a suite's rows as the verify suite ``name``.

    The registered suite takes the sweep's keywords, binds their defaults,
    draws the rows and returns their ``RunReport(name, params)``, with every
    keyword as a param in declaration order: the counts of each outcome, the
    least failing case with its payload as the first counterexample, and
    the wall time of the draw.  ``options`` maps the verify options the
    suite reads to its keywords.
    """

    def register(sweep: Callable[..., Rows]) -> Callable[..., RunReport]:
        # The keywords in declaration order, and their defaults.
        code = sweep.__code__
        keywords = code.co_varnames[: code.co_argcount]
        defaults = dict(zip(reversed(keywords), reversed(sweep.__defaults__ or ())))

        @functools.wraps(sweep)
        def run(**kwargs) -> RunReport:
            kwargs = {**defaults, **kwargs}
            params = {key: kwargs[key] for key in keywords if key in kwargs}
            tally, least = {True: 0, False: 0, "finding": 0}, None
            start = time.perf_counter()
            for case, outcome, *payload in sweep(**kwargs):  # an unknown or missing keyword raises TypeError here
                tally[outcome] += 1
                if not outcome and (least is None or case < least[0]):
                    least = case, dict(*payload)
            first = None if least is None else {"case": list(least[0]), **least[1]}
            return RunReport(name, params, sum(tally.values()), tally[True], tally[False], tally["finding"], first,
                             time.perf_counter() - start)

        SUITES[name] = run
        if options:
            SUITE_OPTIONS[name] = options
        return run

    return register


@suite("von-staudt", {"--max": "max_k"})
def suite_von_staudt(max_k: int = 30) -> Rows:
    """Clausen-von Staudt for B_{2k}, 1 <= k <= max_k: its denominator is the product of the primes p with
    (p - 1) | 2k, and the primes dividing the denominator of B_{2k}/(4k) are those same primes."""
    for k in range(1, max_k + 1):
        b = bernoulli.bernoulli_number(2 * k)
        expected = 2 * math.prod(staudt_odd_primes(2 * k))
        ok = b.den == expected and set(factorize(b.den)) == set(factorize((b / (4 * k)).den))
        yield (k,), ok, {"denominator": b.den, "expected": expected}


@suite("carlitz", {"--max": "max_k"})
def suite_carlitz(conductors: Iterable[int] = (3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27), max_k: int = 20) -> Rows:
    for N in conductors:
        for chi in _primitive_characters(N):
            for k in _matching_weights(chi, range(1, max_k + 1)):
                row = bernoulli.verify_carlitz(chi, k)
                yield (N, chi.index(), k), row["ok"], {"case_kind": row["case"]}


@suite("gbn-theorem", {"--max-weight": "max_weight", "--primes": "moduli"})
def suite_gbn_theorem(
    max_modulus: int = 16,
    max_weight: int = 12,
    moduli: Iterable[int] = (3, 4, 5, 7, 11, 13),
    moduli_invert2: Iterable[int] = (9, 25, 27),
) -> Rows:
    """Dual-pipeline B_{k,chi} equality plus the denominator/homotopy comparison."""
    for N in range(1, max_modulus + 1):
        for chi in enumerate_characters(N):
            for k in range(0, max_weight + 1):
                try:
                    bernoulli.gbn(chi, k)  # asserts both pipelines agree
                except AssertionError as exc:
                    yield (0, N, chi.index(), k), False, {"error": str(exc)}
                else:
                    yield (0, N, chi.index(), k), True
    for extra2, group in ((False, moduli), (True, moduli_invert2)):
        for N in group:
            for chi in _primitive_characters(N):
                ell = characters.ell_of_chi(chi)
                inverted = set() if ell == 1 else {ell}
                if extra2:
                    inverted.add(2)
                # k and -k have the same parity and the same arithmetic side, Z[chi]/D(B_(|k|,chi^-1)/2|k|).
                for k in _matching_weights(chi, range(1, max_weight + 1)):
                    arithmetic = homotopy.invert_primes(quotient_group(bernoulli.denom_ideal(char_inv(chi), k)),
                                                        inverted)
                    for signed in (-k, k):
                        topological = homotopy.pi_jn_chi(chi, 2 * signed - 1, inverted)
                        yield ((1, N, chi.index(), signed), arithmetic == topological,
                               {"arithmetic": arithmetic.render(), "homotopy": topological.render()})


@suite("duality-dirichlet")
def suite_duality_dirichlet(
    odd_primes: Iterable[int] = (3, 5, 7),
    odd_vs: Iterable[int] = (1, 2),
    two_vs: Iterable[int] = (2, 3, 4),
    t_min: int = -20,
    t_max: int = 20,
) -> Rows:
    pairs = [(p, v) for p in odd_primes for v in odd_vs] + [(2, v) for v in two_vs]
    for p, v in pairs:
        for chi in _primitive_characters(p**v):
            for row in homotopy.check_duality_dirichlet(chi, v, range(t_min, t_max + 1)):
                yield (p, v, chi.index(), row["t"]), row["ok"], {"lhs": row["lhs"], "rhs": row["rhs"]}


@suite("duality-jn")
def suite_duality_jn(
    strict_levels: Iterable[int] = (4, 8, 12),
    lax_levels: Iterable[int] = (1, 3, 5),
    t_min: int = -10,
    t_max: int = 10,
) -> Rows:
    for N in list(strict_levels) + list(lax_levels):
        for row in homotopy.check_duality_JN(N, range(t_min, t_max + 1)):
            payload = {"lhs": row["lhs"], "rhs": row["rhs"]}
            if "note" in row:
                payload["note"] = row["note"]
            yield (N, row["t"]), row["ok"], payload


@suite("e2-oracle")
def suite_e2_oracle(
    primes: Iterable[int] = (3, 5, 7),
    v_range: Iterable[int] = (2, 3),
    t_min: int = -10,
    t_max: int = 10,
    max_nprime: int = 30,
    max_split_p: int = 13,
) -> Rows:
    """SNF oracle vs closed forms, plus the cyclotomic splitting counts."""
    for p in primes:
        for v in v_range:
            for a in range(p - 1):
                data = PAdicCharacterData(p=p, v=v, tame=a)
                for t in range(t_min, t_max + 1):
                    got = quotient_oracle(p, v, a, t)
                    expected = AbelianGroupExpr.cyclic(p) if (t - a) % (p - 1) == 0 else AbelianGroupExpr.zero()
                    page = e2_page(data, 1, 2 * t)
                    yield ((0, p, v, a, t), got == expected and page == got,
                           {"oracle": got.render(), "closed_form": expected.render(), "e2": page.render()})
    for v in (3, 4):
        for t in range(-5, 6):
            got = quotient_oracle_2(v, t)
            yield (1, 2, v, 0, t), got == AbelianGroupExpr.cyclic(2), {"oracle": got.render()}
    for n_prime in range(1, max_nprime + 1):
        for p in range(2, max_split_p + 1):
            if not is_prime(p) or n_prime % p == 0:
                continue
            counted = len(padic_splitting(n_prime, p))
            factors = cyclotomic_factor_count(n_prime, p)
            yield (2, p, 0, 0, n_prime), counted == factors, {"splitting": counted, "factor_count": factors}


@suite("consistency")
def suite_consistency(max_conductor: int = 27, i_min: int = -8, i_max: int = 24) -> Rows:
    """Direct tables vs p-completion assembly for every primitive character."""
    for N in range(3, max_conductor + 1):
        for chi in _primitive_characters(N):
            for i in range(i_min, i_max + 1):
                direct, assembled = homotopy.pi_jn_chi_paths(chi, i)
                yield ((N, chi.index(), i), direct == assembled,
                       {"direct": direct.render(), "assembled": assembled.render()})


@suite("eisenstein")
def suite_eisenstein(
    conductors: Iterable[int] = (1, 3, 4, 5, 7),
    max_k: int = 9,
    max_classical_weight: int = 20,
    n_max: int = 200,
) -> Rows:
    for N in conductors:
        if N == 1:
            chis = [character_from_index(1, 0)]
            weights = range(2, max_classical_weight + 1, 2)
        else:
            chis = _primitive_characters(N)
            weights = range(1, max_k + 1)
        for chi in chis:
            for k in _matching_weights(chi, weights):
                result = eisenstein.congruence_check(chi, k, n_max, 0)
                if result["mandatory_failures"]:
                    yield (N, chi.index(), k), False, {"mandatory_failures": result["mandatory_failures"]}
                elif result["full_findings"]:
                    yield (N, chi.index(), k), "finding", {"full_findings": result["full_findings"]}
                else:
                    yield (N, chi.index(), k), True


@suite("dedekind-jk")
def suite_dedekind_jk(
    cases: Iterable[tuple[int, tuple[int, ...]]] = ((5, (4,)), (7, (6,)), (8, (7,)), (1, ())),
    ts: Iterable[int] = (1, 2, 3),
) -> Rows:
    for N, gens in cases:
        field = characters.abelian_field(N, tuple(gens))
        for t in ts:
            row = dedekind.verify_jk(field, t)
            yield (N, t), row["ok"], {"zeta": row["zeta_value"], "arithmetic": row["arithmetic_side"],
                                      "homotopy": row["homotopy_side"]}


# ---------------------------------------------------------------------------
# Subcommands


def cmd_chars(args) -> Output:
    _check_cap("character table", "--modulus", args.modulus, MAX_MODULUS)
    rows = [characters.display(chi) for chi in enumerate_characters(args.modulus)]

    def text() -> str:
        lines = [
            f"characters mod {args.modulus} ({len(rows)} total)",
            f"{'name':>8} {'conductor':>9} {'order':>5} {'parity':>6} {'primitive':>9}  exponents",
        ]
        for row in rows:
            name = f"{row['modulus']}:{row['index']}"
            lines.append(
                f"{name:>8} {row['conductor']:>9} {row['order']:>5} {row['parity']:>+6d} "
                f"{str(row['primitive']):>9}  {row['exponents']}"
            )
        return "\n".join(lines)

    return {"modulus": args.modulus, "characters": rows}, text, 0


def cmd_bern(args) -> Output:
    _check_cap("weight", "--weight", args.weight, MAX_WEIGHT)
    _check_cap("modulus", "--modulus", args.modulus, MAX_MODULUS)
    chi = character_from_index(args.modulus, args.index)
    k = args.weight
    b = bernoulli.gbn(chi, k)
    lv = bernoulli.l_value(chi, 1 - k)
    x = bernoulli.denom_ideal(characters.primitivize(chi), k)
    diag = [row[i] for i, row in enumerate(denominator_ideal(x))]
    snf_diag = denominator_invariants(x)
    # Two routes to the index that share no elimination: the HNF pivots and the local invariants.
    if math.prod(diag) != math.prod(snf_diag):
        raise AssertionError(f"denominator ideal index: the HNF pivots {diag} and the local invariants "
                             f"{snf_diag} give different products")
    quot = AbelianGroupExpr.from_invariants(snf_diag)
    payload = {
        "B": render_cyc(b),
        "L(1-k)": render_cyc(lv),
        "cyclotomic_n": chi.order(),  # "z" in the value strings is a primitive n-th root
        "weight": k,
        "character": characters.display(chi),
        "denominator_ideal_diagonal": list(diag),
        "denominator_ideal_snf": list(snf_diag),
        "quotient": quot.render(),
    }
    return payload, lambda: (
        f"chi = {args.modulus}:{args.index}, k = {k}\n"
        f"  B_(k,chi)        = {payload['B']}\n"
        f"  L(1-k; chi)      = {payload['L(1-k)']}\n"
        f"  denominator SNF  = {snf_diag}\n"
        f"  quotient group   = {payload['quotient']}"
    ), 0


def cmd_homotopy(args) -> Output:
    lo, hi, target = args.degree_from, args.degree_to, args.homotopy_command
    if lo > hi:
        raise InputError(f"empty degree range: --from {lo} is above --to {hi}")
    if hi - lo + 1 > MAX_DEGREES:
        raise InputError(f"degree range too large: --from {lo} --to {hi} spans {hi - lo + 1} degrees, "
                         f"above {MAX_DEGREES}")
    if max(-lo, hi) > MAX_ABS_DEGREE:
        raise InputError(f"degree too large: --from {lo} --to {hi} leaves -{MAX_ABS_DEGREE}..{MAX_ABS_DEGREE}")
    if target == "j":
        fn, title = lambda i: homotopy.pi_JN(1, i), "pi_i(J)"
    elif target == "jn":
        _check_cap("level", "--level", args.level, MAX_MODULUS)
        fn, title = lambda i: homotopy.pi_JN(args.level, i), f"pi_i(J({args.level}))"
    elif target == "k1":
        _check_cap("prime", "--prime", args.prime, MAX_MODULUS)
        fn, title = lambda i: homotopy.pi_K1(args.prime, i), f"pi_i(S_K(1), p={args.prime})"
    elif target == "k1pv":
        p, v = args.prime, args.level_exp
        _check_cap("prime", "--prime", p, MAX_MODULUS)
        # p^min(v, 16) is above the cap exactly when p^v is, as 2^16 > MAX_MODULUS.
        _check_cap("level p^v", f"--prime {p} --level-exp", v, MAX_MODULUS, p ** min(v, 16) if p > 1 and v > 0 else 1)
        fn, title = lambda i: homotopy.pi_K1_pv(p, v, i), f"pi_i(S_K(1)({p}^{v}))"
    elif target == "exotic":
        fn, title = homotopy.pi_exotic, "pi_i(exotic K(1)-local sphere, p=2)"
    elif target == "chi":
        _check_cap("modulus", "--modulus", args.modulus, MAX_MODULUS)
        loc = set(args.invert or [])
        _check_cap("prime", "--invert", max(loc, default=0), MAX_MODULUS)
        chi = character_from_index(args.modulus, args.index)
        fn = lambda i: homotopy.pi_jn_chi(chi, i, loc)
        title = f"pi_i(J({args.modulus})^(chi {args.modulus}:{args.index}))" + (f"[1/{sorted(loc)}]" if loc else "")
    else:  # jk
        _check_cap("modulus", "--modulus", args.modulus, MAX_MODULUS)
        gens = tuple(args.subgroup or [])
        field = characters.abelian_field(args.modulus, gens)
        fn = lambda i: homotopy.pi_JK(field, i, invert_G=args.invert_order)
        title = f"pi_i(J(K)), N={args.modulus}, H=<{','.join(map(str, gens))}>"
    table = {str(i): fn(i).render() for i in range(lo, hi + 1)}
    return {"table": table, "title": title}, lambda: "\n".join(
        [title] + [f"  {i:>4}  {s}" for i, s in table.items()]
    ), 0


def cmd_e2(args) -> Output:
    if args.tmin > args.tmax:
        raise InputError(f"empty t range: --tmin {args.tmin} is above --tmax {args.tmax}")
    if args.smax < 0:
        raise InputError(f"empty s range: --smax {args.smax} is negative")
    cells = (args.smax + 1) * (args.tmax - args.tmin + 1)
    if cells > MAX_DEGREES:
        raise InputError(f"E2 table too large: --smax {args.smax} --tmin {args.tmin} --tmax {args.tmax} gives "
                         f"{cells} cells, above {MAX_DEGREES}")
    _check_cap("prime", "--prime", args.prime, MAX_MODULUS)
    data = PAdicCharacterData(p=args.prime, v=args.level_exp, tame=args.tame)
    ts = [t for t in range(args.tmin, args.tmax + 1) if args.prime == 2 or t % 2 == 0]
    pages = {(s, t): e2_page(data, s, t) for s in range(args.smax + 1) for t in ts}
    groups = {key: g.render() for key, g in pages.items() if not g.is_zero()}
    payload = {
        "prime": args.prime,
        "v": args.level_exp,
        "tame": args.tame,
        "entries": [{"s": s, "t": t, "group": g} for (s, t), g in groups.items()],
    }
    return payload, lambda: "\n".join(
        [f"E2 page, p={args.prime}, v={args.level_exp}, tame={args.tame}"]
        + [f"s={s:>2} " + " ".join(f"{groups.get((s, t), '.'):>10}" for t in ts) for s in range(args.smax, -1, -1)]
        + ["  t: " + " ".join(f"{t:>10}" for t in ts)]
    ), 0


def cmd_eisenstein(args) -> Output:
    if args.nmax < 1:
        raise InputError(f"empty coefficient range: --nmax {args.nmax} is below 1")
    _check_cap("coefficient range", "--nmax", args.nmax, MAX_NMAX)
    if args.show_coeffs < 0:
        raise InputError(f"empty coefficient range: --show-coeffs {args.show_coeffs} is negative")
    _check_cap("weight", "--weight", args.weight, MAX_WEIGHT)
    _check_cap("modulus", "--modulus", args.modulus, MAX_MODULUS)
    chi = character_from_index(args.modulus, args.index)
    result = eisenstein.congruence_check(chi, args.weight, args.nmax, min(args.nmax, args.show_coeffs) + 1)
    payload = {
        "character": characters.display(chi),
        "weight": args.weight,
        "cyclotomic_n": chi.order(),
        "ideal_index": result["ideal_index"],
        "mandatory_failures": result["mandatory_failures"],
        "full_findings": result["full_findings"],
        "ok": result["ok"],
        "coefficients": [render_cyc(c) for c in result["coefficients"]],
    }
    return payload, lambda: (
        f"E_(k,chi), chi = {args.modulus}:{args.index}, k = {args.weight}, n <= {args.nmax}\n"
        f"  denominator-ideal index: {result['ideal_index']}\n"
        f"  mandatory (conductor-primary) failures: {result['mandatory_failures']}\n"
        f"  full-ideal findings: {result['full_findings']}\n"
        "  leading coefficients: " + ", ".join(payload["coefficients"])
    ), 0 if result["ok"] else 1


def cmd_dedekind(args) -> Output:
    _check_cap("weight", "--weight", args.weight, MAX_WEIGHT)
    if args.verify_t is not None:  # it computes zeta_K(1 - 2t), a weight of 2t
        _check_cap("weight 2t", "--verify-t", args.verify_t, MAX_WEIGHT, 2 * args.verify_t)
    _check_cap("modulus", "--modulus", args.modulus, MAX_MODULUS)
    field = characters.abelian_field(args.modulus, tuple(args.subgroup or []))
    value = dedekind.zeta_special_value(field, 1 - args.weight)
    payload = {
        "modulus": args.modulus,
        "subgroup": field.galois_group(args.modulus),
        "totally_real": field.is_totally_real(),
        "weight": args.weight,
        "zeta(1-k)": render_cyc(value),
        "characters": len(characters.field_characters(field)),
    }
    row = None
    if args.verify_t is not None:
        row = payload["verify_jk"] = dedekind.verify_jk(field, args.verify_t)

    def text() -> str:
        out = (
            f"K inside Q(zeta_{args.modulus}), H = {payload['subgroup']}\n"
            f"  totally real: {payload['totally_real']}\n"
            f"  zeta_K(1-{args.weight}) = {payload['zeta(1-k)']}"
        )
        if row is not None:
            out += (
                f"\n  verify t={args.verify_t}: arithmetic {row['arithmetic_side']}"
                f" vs homotopy {row['homotopy_side']} -> {'ok' if row['ok'] else 'MISMATCH'}"
            )
        return out

    return payload, text, 1 if row is not None and not row["ok"] else 0


def cmd_verify(args) -> Output:
    given = {option: getattr(args, option[2:].replace("-", "_")) for option in ("--max", "--max-weight", "--primes")}
    given = {option: value for option, value in given.items() if value is not None}
    if args.suite != "all":
        unread = [option for option in given if option not in SUITE_OPTIONS.get(args.suite, {})]
        if unread:
            raise InputError(f"suite {args.suite} does not read {', '.join(unread)}")
    if given.get("--max", 1) < 1:
        raise InputError(f"empty range: --max {given['--max']} is below 1")
    if given.get("--max-weight", 0) < 0:
        raise InputError(f"empty weight range: --max-weight {given['--max-weight']} is negative")
    _check_cap("weight", "--max-weight", given.get("--max-weight", 0), MAX_WEIGHT)
    primes = given.get("--primes")
    _check_cap("modulus", "--primes", max(primes or [0]), MAX_MODULUS)
    if primes is not None and (not primes or any(N <= 2 or len(factorize(N)) != 1 for N in primes)):
        raise InputError(f"--primes takes prime powers above 2, got {primes}")
    reports = []
    for name in list(SUITES) if args.suite == "all" else [args.suite]:
        options = SUITE_OPTIONS.get(name, {})
        reports.append(SUITES[name](**{options[o]: v for o, v in given.items() if o in options}))
    failed = sum(r.failed for r in reports)
    return {"reports": [r.to_json() for r in reports]}, lambda: "\n".join(
        [r.text() for r in reports]
        + [f"total: {sum(r.run for r in reports)} cases, {failed} failed, {sum(r.findings for r in reports)} findings"]
    ), 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# Argument parsing


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


_JSON = _arg("--json", action="store_true")
_MODULUS = _arg("--modulus", type=int, required=True)
_CHARACTER_WEIGHT = [_MODULUS, _arg("--index", type=int, required=True), _arg("--weight", type=int, required=True)]
_SPAN = [_arg("--from", dest="degree_from", type=int, default=-4), _arg("--to", dest="degree_to", type=int, default=12)]
_PRIME, _TABLE_MODULUS = _arg("--prime", type=int, default=3), _arg("--modulus", type=int, default=4)

# Every subcommand, once: name -> (help, handler or nested commands, argument specs).
# A handler's subparser also takes _JSON; nested commands parse into the dest "<name>_command".
COMMANDS: dict[str, tuple] = {
    "chars": ("enumerate Dirichlet characters", {"list": (None, cmd_chars, [_MODULUS])}, []),
    "bern": ("generalized Bernoulli numbers and L-values", cmd_bern, _CHARACTER_WEIGHT),
    "homotopy": ("homotopy-group tables", {
        "j": ("J, the KU-local sphere", cmd_homotopy, _SPAN),
        "jn": ("J(N), the J-spectrum of level N", cmd_homotopy, _SPAN + [_arg("--level", type=int, default=1)]),
        "k1": ("S_K(1), the K(1)-local sphere at p", cmd_homotopy, _SPAN + [_PRIME]),
        "k1pv": ("S_K(1)(p^v), of level p^v", cmd_homotopy, _SPAN + [_PRIME, _arg("--level-exp", type=int, default=1)]),
        "exotic": ("the exotic K(1)-local sphere at p = 2", cmd_homotopy, _SPAN),
        "chi": ("J(N)^chi", cmd_homotopy, _SPAN + [_TABLE_MODULUS, _arg("--index", type=int, default=1),
            _arg("--invert", type=_int_list, help="comma-separated primes to invert")]),
        "jk": ("J(K)", cmd_homotopy, _SPAN + [_TABLE_MODULUS, _arg("--invert-order", action="store_true"),
            _arg("--subgroup", type=_int_list, help="comma-separated unit generators")]),
    }, []),
    "e2": ("E2 pages of the eigen spectral sequences", cmd_e2, [
        _arg("--prime", type=int, required=True), _arg("--level-exp", type=int, default=1),
        _arg("--tame", type=int, default=0), _arg("--smax", type=int, default=2),
        _arg("--tmin", type=int, default=-8), _arg("--tmax", type=int, default=8),
    ]),
    "eisenstein": ("q-expansion coefficients and congruences", cmd_eisenstein,
        _CHARACTER_WEIGHT + [_arg("--nmax", type=int, default=50), _arg("--show-coeffs", type=int, default=8)]),
    "dedekind": ("Dedekind zeta special values", cmd_dedekind, [
        _MODULUS, _arg("--subgroup", type=_int_list, default=None),
        _arg("--weight", type=int, default=2), _arg("--verify-t", type=int, default=None),
    ]),
    "verify": ("run verification suites", cmd_verify, [
        _arg("suite", choices=list(SUITES) + ["all"]), _arg("--max", type=int, default=None),
        _arg("--max-weight", type=int, default=None), _arg("--primes", type=_int_list, default=None),
    ]),
}


def _add_commands(parser: argparse.ArgumentParser, dest: str, commands: dict) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, run, specs) in commands.items():
        command = sub.add_parser(name, allow_abbrev=False, **({} if help_text is None else {"help": help_text}))
        for flags, kwargs in specs:
            command.add_argument(*flags, **kwargs)
        if isinstance(run, dict):
            _add_commands(command, f"{name}_command", run)
        else:
            command.add_argument(*_JSON[0], **_JSON[1])
            command.set_defaults(fn=run)


DESCRIPTION = """Exact arithmetic of Dirichlet characters and their J-spectra: generalized
Bernoulli numbers and their denominator ideals, Eisenstein series, Dedekind
zeta values, the homotopy groups of the J-spectra, and suites that verify
each by a second route. With --json a subcommand prints one JSON line, the
same bytes for the same arguments. Exit codes: 0 on success, 1 on a failed
computation or verification, 2 on a bad argument."""


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser with every subcommand."""
    parser = argparse.ArgumentParser(prog="dirichletj", description=DESCRIPTION, allow_abbrev=False)
    _add_commands(parser, "command", COMMANDS)
    return parser


def _plain_namespace(argv: list[str]) -> Optional[argparse.Namespace]:
    """What ``build_parser().parse_args(argv)`` returns, read straight off ``COMMANDS``; None when unsure.

    A plain call names its command (and nested command), spells each option
    in full as a token of its own (``--modulus 5``; a repeated option keeps
    its last value) and gives the positionals in order.  Anything else is
    left to argparse, which alone prints help and errors: ``-h``, ``--``,
    ``--opt=value``, a token starting with ``-`` that is neither an option
    of the subcommand nor ``-<ASCII digits>`` (an abbreviated option is
    refused), a missing or extra token, and a value its type or choices
    reject.  It reads the specs as ``tests/test_cli.py`` requires them to
    be: one flag each, only the keywords read here, no str default and no
    action but store_true.
    """
    values, dest, commands, i = {}, "command", COMMANDS, 0
    while isinstance(commands, dict):
        if i == len(argv) or argv[i] not in commands:
            return None
        name = values[dest] = argv[i]
        _, commands, specs = commands[name]
        dest, i = f"{name}_command", i + 1
    values["fn"] = commands
    options, positionals, required = {}, [], set()
    for (flag,), kwargs in specs + [_JSON]:
        if flag.startswith("-"):
            dest = kwargs.get("dest", flag.lstrip("-").replace("-", "_"))
            options[flag] = dest, kwargs
            values[dest] = kwargs.get("default", False if "action" in kwargs else None)
            if kwargs.get("required"):
                required.add(flag)
        else:
            positionals.append((flag, kwargs))

    def value(kwargs: dict, token: str):
        if token.startswith("-") and not (token[1:].isascii() and token[1:].isdigit()):
            raise ValueError(token)
        converted = kwargs.get("type", str)(token)
        if "choices" in kwargs and converted not in kwargs["choices"]:
            raise ValueError(token)
        return converted

    try:
        while i < len(argv):
            if argv[i] in options:
                dest, kwargs = options[argv[i]]
                required.discard(argv[i])
                if "action" in kwargs:
                    values[dest] = True
                else:
                    i += 1
                    values[dest] = value(kwargs, argv[i])
            else:
                flag, kwargs = positionals.pop(0)
                values[flag] = value(kwargs, argv[i])
            i += 1
    except (IndexError, ValueError, TypeError, argparse.ArgumentTypeError):
        return None
    return None if positionals or required else argparse.Namespace(**values)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_namespace(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    # Python's limit on int <-> str digits (absent before 3.10.7) still refuses a huge
    # number in argv with exit 2, but not an output like E_k's coefficients at weight 999;
    # an in-process caller gets its own limit back.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        payload, text, code = args.fn(args)
    except (ValueError, ArithmeticError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2 if isinstance(exc, InputError) else 1
    else:
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True) if args.json else text())
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
