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
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from typing import Callable, Iterable, Optional

from . import bernoulli, characters, dedekind, eisenstein, homotopy
from .characters import DirichletCharacter, InputError, character_from_index, char_inv, enumerate_characters
from .cyclotomic import (cyclotomic_factor_count, denominator_ideal, denominator_invariants, padic_splitting,
                         quotient_group, render_cyc)
from .exactalg import AbelianGroupExpr, Record, factorize, is_prime
from .padic import PAdicCharacterData, e2_page, quotient_oracle, quotient_oracle_2

SCHEMA = 1
# The divisor sieve of an Eisenstein series holds every sum up to --nmax at once.
MAX_NMAX = 100_000
# Caps at about the cost of --nmax 100000 (2 s of CPU, 75 MB): `chars list` of the
# prime 49999 takes 2.2 s and 73 MB, and a 50000-degree `homotopy` table from
# degree 1 up to 1.9 s and 33 MB.
MAX_CHARS_MODULUS = 50_000
MAX_DEGREES = 50_000
# One degree i costs one trial-division primality test per divisor d of (i + 1)/2
# with d + 1 prime (von Staudt's primes).  Cold calls on a 2-core VM: below the cap
# at most 0.8 s of CPU, for degree 49795199; 99459359 takes 4.1 s, 735134399 24 s.
MAX_ABS_DEGREE = 50_000_000
# B_(k,chi) costs about W^3 big-integer steps up to weight W.  Cold `bern --modulus 5
# --index 1` on a 2-core VM: weight 600 takes 0.3-0.4 s of CPU and 17 MB, 1000 1.5-2 s
# and 18 MB, 1500 9.3 s and 21 MB, 2000 23 s and 25 MB.  Larger fields cost more at the
# same weight: 29:5 at weight 999 takes 9-12 s.
MAX_WEIGHT = 1_000

# (payload, text view, exit code), as returned by every cmd_* subcommand.
Output = tuple[dict, Callable[[], str], int]


def _check_weight(flag: str, weight: int) -> None:
    if weight > MAX_WEIGHT:
        raise InputError(f"weight too large: {flag} {weight} is above {MAX_WEIGHT}")


class RunReport(Record):
    """Aggregated result of one verification sweep; unlike the other records, filled in as it runs."""

    __slots__ = _fields = ("suite", "params", "run", "passed", "failed", "findings", "first_counterexample",
                           "wall_time", "_failures", "_start")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, suite: str, params: dict, run: int = 0, passed: int = 0, failed: int = 0, findings: int = 0,
                 first_counterexample: Optional[dict] = None, wall_time: float = 0.0,
                 _failures: Optional[list] = None, _start: Optional[float] = None):
        self._set(suite, params, run, passed, failed, findings, first_counterexample, wall_time,
                  [] if _failures is None else _failures, time.perf_counter() if _start is None else _start)

    def record(self, case_params: tuple, status: str, payload: Optional[dict] = None) -> None:
        self.run += 1
        if status == "pass":
            self.passed += 1
        elif status == "finding":
            self.findings += 1
        else:
            self.failed += 1
            self._failures.append((case_params, payload or {}))

    def check(self, case_params: tuple, ok: bool, payload: Optional[dict] = None) -> None:
        self.record(case_params, "pass" if ok else "fail", payload)

    def finalize(self) -> "RunReport":
        """Stop the clock started at construction and pick the first counterexample."""
        self.wall_time = time.perf_counter() - self._start
        if self.passed + self.failed + self.findings != self.run:
            raise AssertionError(f"{self.suite}: pass, fail and finding counts do not add up to {self.run}")
        if self._failures:
            self._failures.sort(key=lambda item: item[0])
            params, payload = self._failures[0]
            self.first_counterexample = {"case": list(params), **payload}
        return self

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


# The suites in ``verify all`` order, and the verify options each reads, as
# option -> keyword of its suite_* function; a suite not listed reads none.
SUITES: dict[str, Callable[..., RunReport]] = {}
SUITE_OPTIONS: dict[str, dict[str, str]] = {}


def suite(name: str, options: Optional[dict[str, str]] = None) -> Callable:
    """Register ``sweep(report, **params)`` as the verify suite ``name``.

    The registered suite takes the sweep's keywords, binds their defaults,
    runs the sweep into ``RunReport(name, params)`` with every keyword as a
    param and returns the finalized report.  ``options`` maps the verify
    options the suite reads to its keywords.
    """

    def register(sweep: Callable[..., None]) -> Callable[..., RunReport]:
        # The keywords after ``report`` in declaration order, and their defaults.
        code = sweep.__code__
        keywords = code.co_varnames[1 : code.co_argcount]
        defaults = dict(zip(reversed(keywords), reversed(sweep.__defaults__ or ())))

        @functools.wraps(sweep)
        def run(**kwargs) -> RunReport:
            kwargs = {**defaults, **kwargs}
            report = RunReport(name, {key: kwargs[key] for key in keywords if key in kwargs})
            sweep(report, **kwargs)  # an unknown or missing keyword raises TypeError here
            return report.finalize()

        SUITES[name] = run
        if options:
            SUITE_OPTIONS[name] = options
        return run

    return register


@suite("von-staudt", {"--max": "max_k"})
def suite_von_staudt(report: RunReport, max_k: int = 30) -> None:
    for row in bernoulli.verify_von_staudt(max_k):
        report.check((row["k"],), row["ok"], {"denominator": row["denominator"], "expected": row["expected"]})


@suite("carlitz", {"--max": "max_k"})
def suite_carlitz(
    report: RunReport, conductors: Iterable[int] = (3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27), max_k: int = 20
) -> None:
    for N in conductors:
        for chi in _primitive_characters(N):
            sign = characters.parity(chi)
            for k in range(1, max_k + 1):
                if (-1) ** k != sign:
                    continue
                row = bernoulli.verify_carlitz(chi, k)
                report.check((N, chi.index(), k), row["ok"], {"case_kind": row["case"]})


@suite("gbn-theorem", {"--max-weight": "max_weight", "--primes": "moduli"})
def suite_gbn_theorem(
    report: RunReport,
    max_modulus: int = 16,
    max_weight: int = 12,
    moduli: Iterable[int] = (3, 4, 5, 7, 11, 13),
    moduli_invert2: Iterable[int] = (9, 25, 27),
) -> None:
    """Dual-pipeline B_{k,chi} equality plus the denominator/homotopy comparison."""
    for N in range(1, max_modulus + 1):
        for chi in enumerate_characters(N):
            for k in range(0, max_weight + 1):
                try:
                    bernoulli.gbn(chi, k)  # asserts both pipelines agree
                    report.record((0, N, chi.index(), k), "pass")
                except AssertionError as exc:
                    report.record((0, N, chi.index(), k), "fail", {"error": str(exc)})
    for extra2, group in ((False, moduli), (True, moduli_invert2)):
        for N in group:
            for chi in _primitive_characters(N):
                sign = characters.parity(chi)
                ell = characters.ell_of_chi(chi)
                inverted = set() if ell == 1 else {ell}
                if extra2:
                    inverted.add(2)
                for k in range(-max_weight, max_weight + 1):
                    if k == 0 or (-1) ** k != sign:
                        continue
                    ideal = bernoulli.denom_ideal(char_inv(chi), abs(k))
                    arithmetic = homotopy.invert_primes(quotient_group(ideal), inverted)
                    topological = homotopy.pi_jn_chi(chi, 2 * k - 1, inverted)
                    report.check(
                        (1, N, chi.index(), k),
                        arithmetic == topological,
                        {"arithmetic": arithmetic.render(), "homotopy": topological.render()},
                    )


@suite("duality-dirichlet")
def suite_duality_dirichlet(
    report: RunReport,
    odd_primes: Iterable[int] = (3, 5, 7),
    odd_vs: Iterable[int] = (1, 2),
    two_vs: Iterable[int] = (2, 3, 4),
    t_min: int = -20,
    t_max: int = 20,
) -> None:
    pairs = [(p, v) for p in odd_primes for v in odd_vs] + [(2, v) for v in two_vs]
    for p, v in pairs:
        for chi in _primitive_characters(p**v):
            for row in homotopy.check_duality_dirichlet(chi, v, range(t_min, t_max + 1)):
                report.check((p, v, chi.index(), row["t"]), row["ok"], {"lhs": row["lhs"], "rhs": row["rhs"]})


@suite("duality-jn")
def suite_duality_jn(
    report: RunReport,
    strict_levels: Iterable[int] = (4, 8, 12),
    lax_levels: Iterable[int] = (1, 3, 5),
    t_min: int = -10,
    t_max: int = 10,
) -> None:
    for N in list(strict_levels) + list(lax_levels):
        for row in homotopy.check_duality_JN(N, range(t_min, t_max + 1)):
            payload = {"lhs": row["lhs"], "rhs": row["rhs"]}
            if "note" in row:
                payload["note"] = row["note"]
            report.check((N, row["t"]), row["ok"], payload)


@suite("e2-oracle")
def suite_e2_oracle(
    report: RunReport,
    primes: Iterable[int] = (3, 5, 7),
    v_range: Iterable[int] = (2, 3),
    t_min: int = -10,
    t_max: int = 10,
    max_nprime: int = 30,
    max_split_p: int = 13,
) -> None:
    """SNF oracle vs closed forms, plus the cyclotomic splitting counts."""
    for p in primes:
        for v in v_range:
            for a in range(p - 1):
                data = PAdicCharacterData(p=p, v=v, tame=a)
                for t in range(t_min, t_max + 1):
                    got = quotient_oracle(p, v, a, t)
                    expected = AbelianGroupExpr.cyclic(p) if (t - a) % (p - 1) == 0 else AbelianGroupExpr.zero()
                    page = e2_page(data, 1, 2 * t)
                    report.check(
                        (0, p, v, a, t),
                        got == expected and page == got,
                        {"oracle": got.render(), "closed_form": expected.render(), "e2": page.render()},
                    )
    for v in (3, 4):
        for t in range(-5, 6):
            got = quotient_oracle_2(v, t)
            report.check((1, 2, v, 0, t), got == AbelianGroupExpr.cyclic(2), {"oracle": got.render()})
    for n_prime in range(1, max_nprime + 1):
        for p in range(2, max_split_p + 1):
            if not is_prime(p) or n_prime % p == 0:
                continue
            counted = len(padic_splitting(n_prime, p))
            factors = cyclotomic_factor_count(n_prime, p)
            report.check((2, p, 0, 0, n_prime), counted == factors, {"splitting": counted, "factor_count": factors})


@suite("consistency")
def suite_consistency(report: RunReport, max_conductor: int = 27, i_min: int = -8, i_max: int = 24) -> None:
    """Direct tables vs p-completion assembly for every primitive character."""
    for N in range(3, max_conductor + 1):
        for chi in _primitive_characters(N):
            for i in range(i_min, i_max + 1):
                direct, assembled = homotopy.pi_jn_chi_paths(chi, i)
                report.check(
                    (N, chi.index(), i),
                    direct == assembled,
                    {"direct": direct.render(), "assembled": assembled.render()},
                )


@suite("eisenstein")
def suite_eisenstein(
    report: RunReport,
    conductors: Iterable[int] = (1, 3, 4, 5, 7),
    max_k: int = 9,
    max_classical_weight: int = 20,
    n_max: int = 200,
) -> None:
    for N in conductors:
        if N == 1:
            chis = [character_from_index(1, 0)]
            weights = range(2, max_classical_weight + 1, 2)
        else:
            chis = _primitive_characters(N)
            weights = range(1, max_k + 1)
        for chi in chis:
            sign = characters.parity(chi)
            for k in weights:
                if (-1) ** k != sign:
                    continue
                result = eisenstein.congruence_check(chi, k, n_max)
                if result["mandatory_failures"]:
                    report.record((N, chi.index(), k), "fail", {"mandatory_failures": result["mandatory_failures"]})
                elif result["full_findings"]:
                    report.record((N, chi.index(), k), "finding", {"full_findings": result["full_findings"]})
                else:
                    report.record((N, chi.index(), k), "pass")


@suite("dedekind-jk")
def suite_dedekind_jk(
    report: RunReport,
    cases: Iterable[tuple[int, tuple[int, ...]]] = ((5, (4,)), (7, (6,)), (8, (7,)), (1, ())),
    ts: Iterable[int] = (1, 2, 3),
) -> None:
    for N, gens in cases:
        spec = dedekind.AbelianFieldSpec(N, tuple(gens))
        for t in ts:
            row = dedekind.verify_jk(spec, t)
            report.check(
                (N, t),
                row["ok"],
                {"zeta": row["zeta_value"], "arithmetic": row["arithmetic_side"], "homotopy": row["homotopy_side"]},
            )


# ---------------------------------------------------------------------------
# Subcommands


def cmd_chars(args) -> Output:
    if args.modulus > MAX_CHARS_MODULUS:
        raise InputError(f"character table too large: --modulus {args.modulus} is above {MAX_CHARS_MODULUS}")
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
    _check_weight("--weight", args.weight)
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
    lo, hi = args.degree_from, args.degree_to
    if lo > hi:
        raise InputError(f"empty degree range: --from {lo} is above --to {hi}")
    if hi - lo + 1 > MAX_DEGREES:
        raise InputError(f"degree range too large: --from {lo} --to {hi} spans {hi - lo + 1} degrees, "
                         f"above {MAX_DEGREES}")
    if max(-lo, hi) > MAX_ABS_DEGREE:
        raise InputError(f"degree too large: --from {lo} --to {hi} leaves -{MAX_ABS_DEGREE}..{MAX_ABS_DEGREE}")
    if args.target == "j":
        fn, title = homotopy.pi_J, "pi_i(J)"
    elif args.target == "jn":
        fn, title = lambda i: homotopy.pi_JN(args.level, i), f"pi_i(J({args.level}))"
    elif args.target == "k1":
        fn, title = lambda i: homotopy.pi_K1(args.prime, i), f"pi_i(S_K(1), p={args.prime})"
    elif args.target == "k1pv":
        fn = lambda i: homotopy.pi_K1_pv(args.prime, args.level_exp, i)
        title = f"pi_i(S_K(1)({args.prime}^{args.level_exp}))"
    elif args.target == "exotic":
        fn, title = homotopy.pi_exotic, "pi_i(exotic K(1)-local sphere, p=2)"
    elif args.target == "chi":
        chi = character_from_index(args.modulus, args.index)
        loc = set(args.invert or [])
        fn = lambda i: homotopy.pi_jn_chi(chi, i, loc)
        title = f"pi_i(J({args.modulus})^(chi {args.modulus}:{args.index}))" + (f"[1/{sorted(loc)}]" if loc else "")
    elif args.target == "jk":
        gens = tuple(args.subgroup or [])
        fn = lambda i: homotopy.pi_JK(args.modulus, gens, i, invert_G=args.invert_order)
        title = f"pi_i(J(K)), N={args.modulus}, H=<{','.join(map(str, gens))}>"
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError
    table = {str(i): fn(i).render() for i in range(lo, hi + 1)}
    return {"table": table, "title": title}, lambda: "\n".join(
        [title] + [f"  {i:>4}  {s}" for i, s in table.items()]
    ), 0


def cmd_e2(args) -> Output:
    if args.tmin > args.tmax:
        raise InputError(f"empty t range: --tmin {args.tmin} is above --tmax {args.tmax}")
    if args.smax < 0:
        raise InputError(f"empty s range: --smax {args.smax} is negative")
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
    if args.nmax > MAX_NMAX:
        raise InputError(f"coefficient range too large: --nmax {args.nmax} is above {MAX_NMAX}")
    if args.show_coeffs < 0:
        raise InputError(f"empty coefficient range: --show-coeffs {args.show_coeffs} is negative")
    _check_weight("--weight", args.weight)
    chi = character_from_index(args.modulus, args.index)
    result = eisenstein.congruence_check(chi, args.weight, args.nmax)
    coeffs = result["coefficients"][: min(args.nmax, args.show_coeffs) + 1]
    payload = {
        "character": characters.display(chi),
        "weight": args.weight,
        "cyclotomic_n": chi.order(),
        "ideal_index": result["ideal_index"],
        "mandatory_failures": result["mandatory_failures"],
        "full_findings": result["full_findings"],
        "ok": result["ok"],
        "coefficients": [render_cyc(c) for c in coeffs],
    }
    return payload, lambda: (
        f"E_(k,chi), chi = {args.modulus}:{args.index}, k = {args.weight}, n <= {args.nmax}\n"
        f"  denominator-ideal index: {result['ideal_index']}\n"
        f"  mandatory (conductor-primary) failures: {result['mandatory_failures']}\n"
        f"  full-ideal findings: {result['full_findings']}\n"
        "  leading coefficients: " + ", ".join(payload["coefficients"])
    ), 0 if result["ok"] else 1


def cmd_dedekind(args) -> Output:
    _check_weight("--weight", args.weight)
    spec = dedekind.AbelianFieldSpec(args.modulus, tuple(args.subgroup or []))
    value = dedekind.zeta_special_value(spec, 1 - args.weight)
    payload = {
        "modulus": args.modulus,
        "subgroup": sorted(spec.subgroup()),
        "totally_real": dedekind.is_totally_real(spec),
        "weight": args.weight,
        "zeta(1-k)": str(value),
        "characters": len(dedekind.field_characters(spec)),
    }
    row = None
    if args.verify_t is not None:
        row = payload["verify_jk"] = dedekind.verify_jk(spec, args.verify_t)

    def text() -> str:
        out = (
            f"K inside Q(zeta_{args.modulus}), H = {payload['subgroup']}\n"
            f"  totally real: {payload['totally_real']}\n"
            f"  zeta_K(1-{args.weight}) = {value}"
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
    _check_weight("--max-weight", given.get("--max-weight", 0))
    primes = given.get("--primes")
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

# Every subcommand, once: name -> (help, handler or nested commands, argument specs).
# A handler's subparser also takes _JSON; nested commands parse into the dest "<name>_command".
COMMANDS: dict[str, tuple] = {
    "chars": ("enumerate Dirichlet characters", {"list": (None, cmd_chars, [_MODULUS])}, []),
    "bern": ("generalized Bernoulli numbers and L-values", cmd_bern, _CHARACTER_WEIGHT),
    "homotopy": ("homotopy-group tables", cmd_homotopy, [
        _arg("target", choices=["j", "jn", "k1", "k1pv", "exotic", "chi", "jk"]),
        _arg("--from", dest="degree_from", type=int, default=-4), _arg("--to", dest="degree_to", type=int, default=12),
        _arg("--level", type=int, default=1), _arg("--prime", type=int, default=3),
        _arg("--level-exp", type=int, default=1), _arg("--modulus", type=int, default=4),
        _arg("--index", type=int, default=1),
        _arg("--invert", type=_int_list, default=None, help="comma-separated primes to invert"),
        _arg("--subgroup", type=_int_list, default=None, help="comma-separated unit generators"),
        _arg("--invert-order", action="store_true"),
    ]),
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
        command = sub.add_parser(name, **({} if help_text is None else {"help": help_text}))
        for flags, kwargs in specs:
            command.add_argument(*flags, **kwargs)
        if isinstance(run, dict):
            _add_commands(command, f"{name}_command", run)
        else:
            command.add_argument(*_JSON[0], **_JSON[1])
            command.set_defaults(fn=run)


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser with every subcommand."""
    parser = argparse.ArgumentParser(prog="dirichletj", description=__doc__)
    _add_commands(parser, "command", COMMANDS)
    return parser


def _plain_namespace(argv: list[str]) -> Optional[argparse.Namespace]:
    """What ``build_parser().parse_args(argv)`` returns, read straight off ``COMMANDS``; None when unsure.

    A plain call names its command (and nested command), spells each option
    in full as a token of its own (``--modulus 5``; a repeated option keeps
    its last value) and gives the positionals in order.  Anything else is
    left to argparse, which alone prints help and errors: ``-h``, ``--``,
    an abbreviation, ``--opt=value``, a token starting with ``-`` that is
    neither an option of the subcommand nor ``-<ASCII digits>``, a missing
    or extra token, and a value its type or choices reject.  It reads the
    specs as ``tests/test_cli.py`` requires them to be: one flag each, only
    the keywords read here, no str default and no action but store_true.
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
    try:
        payload, text, code = args.fn(args)
    except (ValueError, ArithmeticError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1
    print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True) if args.json else text())
    return code


if __name__ == "__main__":
    sys.exit(main())
