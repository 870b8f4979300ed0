"""CLI surface: determinism, exit codes, payload shapes."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dirichletj import cli, cyclotomic, eisenstein, exactalg, homotopy
from dirichletj.bernoulli import gbn
from dirichletj.characters import character_from_index, enumerate_characters, is_primitive, parity
from dirichletj.cli import RunReport, main
from dirichletj.cyclotomic import CycElement, denominator_ideal, denominator_invariants


@pytest.fixture
def hnf_spy(monkeypatch):
    """The row counts of every Hermite normal form computed while the test runs."""
    calls = []
    real = exactalg.hermite_normal_form

    def counted(m, modulus):
        calls.append(len(m))
        return real(m, modulus)

    for module in (exactalg, cyclotomic):
        monkeypatch.setattr(module, "hermite_normal_form", counted)
    return calls


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChars:
    def test_list_mod4(self, capsys):
        code, out, _ = run_cli(capsys, "chars", "list", "--modulus", "4")
        assert code == 0
        assert out.count("4:") == 2

    def test_json_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "chars", "list", "--modulus", "12", "--json")
        _, out2, _ = run_cli(capsys, "chars", "list", "--modulus", "12", "--json")
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["schema"] == 1
        assert len(payload["characters"]) == 4


class TestBern:
    def test_quad5_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "bern", "--modulus", "5", "--index", "2", "--weight", "2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["B"] == "4/5"
        assert payload["L(1-k)"] == "-2/5"
        assert payload["denominator_ideal_snf"] == [5]
        assert payload["quotient"] == "Z/5"

    @pytest.mark.parametrize("modulus, index, weight, hnfs, expected", [
        # One HNF gives the printed diagonal; the SNF and the quotient come from local invariants.
        ("5", "2", "2", 1, '{"B": "4/5", "L(1-k)": "-2/5", "character": {"conductor": 5, "exponents": [2], "index": 2, "modulus": 5, "order": 2, "parity": 1, "primitive": true}, "cyclotomic_n": 2, "denominator_ideal_diagonal": [5], "denominator_ideal_snf": [5], "quotient": "Z/5", "schema": 1, "weight": 2}'),
        # Parity mismatch: the ideal is the full ring and no HNF runs.
        ("5", "2", "3", 0, '{"B": "0", "L(1-k)": "0", "character": {"conductor": 5, "exponents": [2], "index": 2, "modulus": 5, "order": 2, "parity": 1, "primitive": true}, "cyclotomic_n": 2, "denominator_ideal_diagonal": [1], "denominator_ideal_snf": [1], "quotient": "0", "schema": 1, "weight": 3}'),
        # B_{1,chi_0} = 1/2 is the vanishing case of the convention: the full ring, not Z/4.
        ("1", "0", "1", 0, '{"B": "1/2", "L(1-k)": "-1/2", "character": {"conductor": 1, "exponents": [], "index": 0, "modulus": 1, "order": 1, "parity": 1, "primitive": true}, "cyclotomic_n": 1, "denominator_ideal_diagonal": [1], "denominator_ideal_snf": [1], "quotient": "0", "schema": 1, "weight": 1}'),
    ])
    def test_one_hnf_per_printed_basis(self, capsys, hnf_spy, modulus, index, weight, hnfs, expected):
        code, out, _ = run_cli(capsys, "bern", "--modulus", modulus, "--index", index, "--weight", weight, "--json")
        assert code == 0 and len(hnf_spy) == hnfs
        assert out == expected + "\n"

    def test_index_routes_that_disagree_exit_1(self, capsys, monkeypatch):
        # An HNF whose kernel block is twice the true one is still a z-closed lattice, with pivots off by 2^d.
        real = exactalg.hermite_normal_form

        def doubled(m, modulus):
            h = real(m, modulus)
            d = len(h) // 2
            return h[:d] + [[2 * x for x in row] for row in h[d:]]

        monkeypatch.setattr(cyclotomic, "hermite_normal_form", doubled)
        code, out, err = run_cli(capsys, "bern", "--modulus", "5", "--index", "2", "--weight", "2", "--json")
        assert (code, out) == (1, "")
        assert err == "error: denominator ideal index: the HNF pivots [10] and the local invariants [5] " \
                      "give different products\n"

    @pytest.mark.parametrize("modulus, index, weight", [(41, 1, 9), (61, 1, 37), (83, 1, 3), (101, 1, 3)])
    def test_large_degree_denominator_ideal(self, capsys, modulus, index, weight):
        start = time.process_time()
        code, out, _ = run_cli(
            capsys, "bern", "--modulus", str(modulus), "--index", str(index),
            "--weight", str(weight), "--json",
        )
        assert time.process_time() - start < 1.0
        assert code == 0
        assert json.loads(out)["cyclotomic_n"] == modulus - 1
        a = gbn(character_from_index(modulus, index), weight) / (2 * weight)
        basis = denominator_ideal(a)
        index = math.prod(row[i] for i, row in enumerate(basis))
        assert index > 1 and index == math.prod(denominator_invariants(a))
        assert all((CycElement(a.field, row) * a).den == 1 for row in basis)
        # a = n/c: D(a) = cO / (cO + nO) as ideals, so [O : D(a)] [O : cO + nO] = c^d.
        field, c = a.field, a.den
        n = CycElement(field, a.nums)
        rows = [list((n * field.zeta_power(j)).nums) for j in range(field.degree)]
        assert index * index_mod(rows, c) == c ** field.degree


def _factor(n):
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def index_mod(rows, c):
    """[Z^d : span(rows) + c Z^d] from an echelon form over Z/p^e for each p^e exactly dividing c.

    Over Z/p^e the entry of least p-valuation in a column divides the rest
    of it, so it is the pivot; p^(e-v) times the pivot row is what p^e e_col
    leaves behind, and it goes back into the rows.
    """
    def val(x, p):
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    index = 1
    for p, e in _factor(c).items():
        q = p**e
        work = [[x % q for x in row] for row in rows]
        for col in range(len(rows[0])):
            live = [r for r in work if r[col]]
            if not live:
                index *= q
                continue
            piv = min(live, key=lambda r: val(r[col], p))
            v = val(piv[col], p)
            inv = pow(piv[col] // p**v, -1, q)
            work = [
                [(x - r[col] // p**v * inv * y) % q for x, y in zip(r, piv)] for r in work if r is not piv
            ] + [[p ** (e - v) * y % q for y in piv]]
            index *= p**v
    return index


class TestHomotopy:
    def test_j_table(self, capsys):
        code, out, _ = run_cli(capsys, "homotopy", "j", "--from", "-4", "--to", "9")
        assert code == 0
        lines = {line.split(None, 1)[0]: line.split(None, 1)[1] for line in out.splitlines()[1:]}
        assert lines["-2"] == "Q/Z"
        assert lines["0"] == "Z + Z/2"
        assert lines["3"] == "Z/8 + Z/3"
        assert lines["7"] == "Z/16 + Z/3 + Z/5"

    def test_chi_table_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "homotopy", "chi", "--modulus", "4", "--index", "1",
            "--from", "1", "--to", "5", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["table"]["5"] == "Z/4"

    @pytest.mark.parametrize("target, extra", [("k1", []), ("k1pv", ["--level-exp", "1"])])
    def test_non_prime_exits_2(self, capsys, target, extra):
        code, out, err = run_cli(capsys, "homotopy", target, "--prime", "4", *extra, "--from", "0", "--to", "5")
        assert code == 2 and out == "" and "prime" in err

    # Each target takes only the options its table reads: argparse refuses the others,
    # which the one parser of every target used to accept and ignore.
    @pytest.mark.parametrize("argv, option", [
        ("j --invert 2", "--invert"), ("jn --modulus 12", "--modulus"), ("k1 --level 2", "--level"),
        ("k1pv --index 1", "--index"), ("exotic --prime 3", "--prime"), ("chi --subgroup 4", "--subgroup"),
        ("jk --index 1 --from 1 --to 3", "--index"),
    ])
    def test_an_option_the_target_does_not_read_exits_2(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(["homotopy", *argv.split()])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "") and option in captured.err

    def test_jk(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "homotopy", "jk", "--modulus", "5", "--subgroup", "4",
            "--from", "3", "--to", "3", "--invert-order",
        )
        assert code == 0
        assert "Z/3 + Z/5" in out

    # Each field prints one table, whichever level presents it; the title keeps the presentation.
    @pytest.mark.parametrize("presentations, value", [
        (["--modulus 1", "--modulus 9 --subgroup 2", "--modulus 8 --subgroup 3,5"], "Z/8 + Z/3"),
        (["--modulus 4", "--modulus 8 --subgroup 5"], "Z/2 + Z/2 + Z/8 + Z/3"),
        (["--modulus 3", "--modulus 12 --subgroup 7"], "Z/8 + Z/3"),
    ])
    def test_jk_prints_one_table_per_field(self, capsys, presentations, value):
        tables = []
        for argv in presentations:
            code, out, err = run_cli(capsys, "homotopy", "jk", *argv.split(), "--from", "1", "--to", "24", "--json")
            assert (code, err) == (0, "")
            tables.append(json.loads(out)["table"])
        assert all(table == tables[0] for table in tables) and tables[0]["3"] == value


class TestE2:
    def test_chart(self, capsys):
        code, out, _ = run_cli(
            capsys, "e2", "--prime", "5", "--level-exp", "1", "--tame", "2",
            "--tmin", "0", "--tmax", "8", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert {"s": 1, "t": 4, "group": "Z/5"} in payload["entries"]


class TestBadArguments:
    # A check inside the library rejects the argument; the CLI keeps its message and exits 2.
    @pytest.mark.parametrize("argv, message", [
        (["chars", "list", "--modulus", "0"], "modulus must be positive"),
        (["bern", "--modulus", "5", "--index", "99", "--weight", "2"], "character index out of range: 99 (phi(5) = 4)"),
        (["bern", "--modulus", "5", "--index", "2", "--weight", "0"], "special values only at s = 1 - k with k >= 1"),
        (["homotopy", "chi", "--modulus", "12", "--index", "2"], "chi must be primitive and nontrivial"),
    ], ids=["chars-modulus-0", "bern-index-99", "bern-weight-0", "homotopy-chi-imprimitive"])
    def test_library_check_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    # The other domain checks: tables, p-adic data, localizations, fields, Eisenstein series, verify conductors.
    @pytest.mark.parametrize("argv, message", [
        ("homotopy k1 --prime 4", "p must be prime, got 4"),
        ("homotopy k1pv --prime 4", "p must be prime, got 4"),
        ("homotopy k1pv --prime 3 --level-exp 0", "unsupported level exponent"),
        ("homotopy jn --level 0", "N must be positive"),
        ("homotopy jk --modulus 12", "N must be 1 or a prime power in this release"),
        ("homotopy jk --modulus 0 --from 1 --to 3", "N must be positive"),
        ("homotopy jk --modulus 9 --subgroup 3", "3 is not a unit mod 9"),
        ("homotopy jk --modulus 9 --subgroup 0", "0 is not a unit mod 9"),
        ("homotopy jk --modulus 1 --from -2 --to -2", "degrees 0, -1 and -2 are not represented by the local assembly"),
        ("homotopy chi --modulus 5 --index 2 --invert 4", "4 is not prime"),
        ("e2 --prime 4", "p must be prime"),
        ("e2 --prime 5 --tame 9", "tame exponent out of range"),
        ("e2 --prime 5 --level-exp -1", "v must be nonnegative"),
        ("e2 --prime 3 --level-exp 0 --tame 1", "a trivial p-part (v = 0) must have tame datum 0"),
        ("e2 --prime 2 --level-exp 2 --tame 0", "the conductor-4 character is odd: its tame datum must be 1"),
        ("dedekind --modulus 7 --subgroup 7", "7 is not a unit mod 7"),
        ("dedekind --modulus 7 --subgroup 6 --verify-t 0", "t must be positive"),
        ("eisenstein --modulus 5 --index 1 --weight 2", "parity mismatch: B_{k,chi} = 0, series not normalizable"),
        ("eisenstein --modulus 5 --index 2 --weight 0", "k must be positive"),
        ("eisenstein --modulus 12 --index 1 --weight 1", "chi must be primitive"),
        ("eisenstein --modulus 12 --index 3 --weight 2", "the conductor must be 1 or a prime power, got 12"),
        ("eisenstein --modulus 5 --index 2 --weight 2 --nmax 100001", "coefficient range too large: --nmax 100001 is above 100000"),
        ("chars list --modulus 50001", "character table too large: --modulus 50001 is above 50000"),
        ("bern --modulus 5 --index 1 --weight 1001", "weight too large: --weight 1001 is above 1000"),
        ("eisenstein --modulus 5 --index 1 --weight 1001", "weight too large: --weight 1001 is above 1000"),
        ("dedekind --modulus 5 --weight 1001", "weight too large: --weight 1001 is above 1000"),
        ("dedekind --modulus 5 --subgroup 4 --verify-t 501", "weight 2t too large: --verify-t 501 is above 1000"),
        ("verify gbn-theorem --max-weight 1001", "weight too large: --max-weight 1001 is above 1000"),
        ("homotopy j --from -25000 --to 25000", "degree range too large: --from -25000 --to 25000 spans 50001 degrees, above 50000"),
        ("homotopy j --from 99999999999 --to 99999999999", "degree too large: --from 99999999999 --to 99999999999 leaves -50000000..50000000"),
        ("homotopy chi --modulus 5 --index 2 --from -50000001 --to -50000000", "degree too large: --from -50000001 --to -50000000 leaves -50000000..50000000"),
        ("verify gbn-theorem --primes 15", "--primes takes prime powers above 2, got [15]"),
        ("verify gbn-theorem --primes 6", "--primes takes prime powers above 2, got [6]"),
        ("verify gbn-theorem --primes ,", "--primes takes prime powers above 2, got []"),
        ("bern --modulus 50001 --index 1 --weight 2", "modulus too large: --modulus 50001 is above 50000"),
        ("eisenstein --modulus 50001 --index 1 --weight 2", "modulus too large: --modulus 50001 is above 50000"),
        ("dedekind --modulus 50001", "modulus too large: --modulus 50001 is above 50000"),
        ("homotopy chi --modulus 50001", "modulus too large: --modulus 50001 is above 50000"),
        ("homotopy jk --modulus 50001 --from 1", "modulus too large: --modulus 50001 is above 50000"),
        ("homotopy jn --level 50001", "level too large: --level 50001 is above 50000"),
        ("homotopy k1 --prime 50021", "prime too large: --prime 50021 is above 50000"),
        ("homotopy k1pv --prime 50021", "prime too large: --prime 50021 is above 50000"),
        ("e2 --prime 50021", "prime too large: --prime 50021 is above 50000"),
        ("homotopy chi --modulus 5 --index 1 --invert 3,50021", "prime too large: --invert 50021 is above 50000"),
        ("homotopy k1pv --prime 3 --level-exp 10", "level p^v too large: --prime 3 --level-exp 10 is above 50000"),
        ("homotopy k1pv --prime 2 --level-exp 16", "level p^v too large: --prime 2 --level-exp 16 is above 50000"),
        ("verify gbn-theorem --primes 3,50021", "modulus too large: --primes 50021 is above 50000"),
        ("e2 --prime 3 --tmin -1000000 --tmax 1000000",
         "E2 table too large: --smax 2 --tmin -1000000 --tmax 1000000 gives 6000003 cells, above 50000"),
        ("e2 --prime 3 --smax 49 --tmin -500 --tmax 500",
         "E2 table too large: --smax 49 --tmin -500 --tmax 500 gives 50050 cells, above 50000"),
        ("bern --modulus 49999 --index 1 --weight 2", "field too large: Q(zeta_49998) has degree 15360, above 200"),
        ("eisenstein --modulus 479 --index 2 --weight 2", "field too large: Q(zeta_239) has degree 238, above 200"),
        ("dedekind --modulus 479 --weight 2", "field too large: Q(zeta_478) has degree 238, above 200"),
        ("verify gbn-theorem --primes 1009", "field too large: Q(zeta_1008) has degree 288, above 200"),
    ])
    def test_domain_check_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out, err) == (2, "", f"error: {message}\n")

    # J(2) is J(1), but H is built at N = 2, so each generator must still be a unit mod 2.
    @pytest.mark.parametrize("command, g", [("homotopy jk", 2), ("homotopy jk", 4), ("dedekind", 2)])
    def test_non_unit_mod_2_exits_2(self, capsys, command, g):
        degrees = " --from 3 --to 3" if command == "homotopy jk" else ""
        code, out, err = run_cli(capsys, *f"{command} --modulus 2 --subgroup {g}{degrees}".split())
        assert (code, out, err) == (2, "", f"error: {g} is not a unit mod 2\n")

    # An option is spelled in full: argparse would expand a prefix to the one longer option
    # it names, so `--level 2` of k1pv would print the level-9 table of `--level-exp 2`.
    @pytest.mark.parametrize("argv", [
        "homotopy k1pv --level 2 --from 1 --to 1",
        "homotopy jk --modulus 5 --subgroup 4 --from 3 --to 3 --invert",
        "bern --mod 5 --index 1 --weight 2",
    ])
    def test_an_abbreviated_option_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert (exc.value.code, capsys.readouterr().out) == (2, "")


class TestRanges:
    @pytest.mark.parametrize("argv, option", [
        (["eisenstein", "--modulus", "5", "--index", "2", "--weight", "2", "--nmax", "-5"], "--nmax"),
        (["eisenstein", "--modulus", "5", "--index", "2", "--weight", "2", "--nmax", "0"], "--nmax"),
        (["homotopy", "chi", "--modulus", "5", "--index", "2", "--from", "9", "--to", "-3"], "--from"),
        (["homotopy", "j", "--from", "3", "--to", "2"], "--from"),
        (["homotopy", "jk", "--modulus", "5", "--subgroup", "4", "--from", "4", "--to", "3"], "--from"),
        (["e2", "--prime", "5", "--tmin", "4", "--tmax", "-4"], "--tmin"),
        (["e2", "--prime", "5", "--smax", "-1"], "--smax"),
        (["eisenstein", "--modulus", "4", "--index", "1", "--weight", "1", "--show-coeffs", "-2"], "--show-coeffs"),
        (["verify", "carlitz", "--max", "-3"], "--max"),
        (["verify", "von-staudt", "--max", "0"], "--max"),
        (["verify", "all", "--max", "0"], "--max"),
        (["verify", "gbn-theorem", "--max-weight", "-1"], "--max-weight"),
    ])
    def test_empty_range_exits_2(self, capsys, argv, option):
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and option in err

    @pytest.mark.parametrize("argv", [
        ["eisenstein", "--modulus", "5", "--index", "2", "--weight", "2", "--nmax", "1"],
        ["homotopy", "chi", "--modulus", "5", "--index", "2", "--from", "3", "--to", "3"],
        ["e2", "--prime", "5", "--tmin", "4", "--tmax", "4", "--smax", "0"],
        ["eisenstein", "--modulus", "4", "--index", "1", "--weight", "1", "--show-coeffs", "0"],
        ["verify", "von-staudt", "--max", "1"],
        ["verify", "gbn-theorem", "--max-weight", "0"],
    ])
    def test_one_point_range_exits_0(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["schema"] == 1

    # Each size cap refuses a value far above it before any work; without the caps these
    # calls ran for seconds (trial division in each degree, 2^v digits) or held hundreds of MB.
    @pytest.mark.parametrize("argv", [
        "bern --modulus 1000003 --index 500001 --weight 2", "homotopy k1 --prime 1000000000000000003",
        "e2 --prime 1000000000000000003", "homotopy jn --level 1000000000000000003",
        "homotopy chi --modulus 5 --index 1 --invert 1000000000000000003",
        "homotopy k1pv --prime 3 --level-exp 100000 --from 1 --to 1", "homotopy k1pv --prime 2 --level-exp 10000000000",
        "e2 --prime 3 --tmin -1000000 --tmax 1000000", "e2 --prime 3 --smax 3000000",
        "verify gbn-theorem --primes 1000000000000000003",
    ])
    def test_a_size_cap_refuses_at_once(self, capsys, argv):
        start = time.process_time()
        code, out, err = run_cli(capsys, *argv.split())
        assert time.process_time() - start < 1.0
        assert (code, out) == (2, "") and err.startswith("error: ") and "too large" in err

    @pytest.mark.parametrize("argv, rows", [
        (["chars", "list", "--modulus", "50000"], 20000),
        (["homotopy", "jn", "--level", "50000", "--from", "1", "--to", "3"], 3),
        (["homotopy", "k1", "--prime", "49999", "--from", "1", "--to", "3"], 3),
        (["homotopy", "k1pv", "--prime", "3", "--level-exp", "9", "--from", "1", "--to", "3"], 3),
        (["homotopy", "k1pv", "--prime", "49999", "--from", "1", "--to", "3"], 3),
        (["homotopy", "chi", "--modulus", "5", "--index", "1", "--invert", "49999", "--from", "1", "--to", "3"], 3),
        (["homotopy", "chi", "--modulus", "49999", "--index", "1", "--from", "1", "--to", "3"], 3),
        (["homotopy", "jk", "--modulus", "49999", "--subgroup", "2", "--from", "1", "--to", "3"], 3),
        (["homotopy", "exotic", "--from", "-24999", "--to", "25000"], 50000),
        (["homotopy", "j", "--from", "49999999", "--to", "50000000"], 2),
        (["homotopy", "j", "--from", "-50000000", "--to", "-49999999"], 2),
    ])
    def test_a_cap_admits_its_own_value(self, capsys, argv, rows):
        code, out, _ = run_cli(capsys, *argv, "--json")
        payload = json.loads(out)
        assert code == 0 and len(payload.get("characters", payload.get("table"))) == rows

    def test_the_e2_caps_admit_their_own_values(self, capsys):
        code, out, _ = run_cli(capsys, "e2", "--prime", "49999", "--tmin", "0", "--tmax", "0", "--json")
        assert code == 0 and json.loads(out)["prime"] == 49999
        # 50 rows of s times 1000 columns of t is the cap; one more column is refused.
        argv = "e2 --prime 2 --level-exp 3 --smax 49 --tmin -499 --tmax {} --json"
        code, out, _ = run_cli(capsys, *argv.format(500).split())
        assert code == 0 and len(json.loads(out)["entries"]) == 750
        code, out, err = run_cli(capsys, *argv.format(501).split())
        assert (code, out) == (2, "") and "E2 table too large" in err

    @pytest.mark.parametrize("argv", [
        "bern --modulus 5 --index 1 --weight {}", "eisenstein --modulus 5 --index 1 --weight {} --nmax 5",
        "dedekind --modulus 5 --weight {}", "verify gbn-theorem --max-weight {}",
    ])
    def test_the_weight_cap_admits_its_own_value(self, capsys, monkeypatch, argv):
        # A cap of 7 stands for MAX_WEIGHT, whose own value takes about a second of CPU.
        monkeypatch.setattr(cli, "MAX_WEIGHT", 7)
        code, out, _ = run_cli(capsys, *argv.format(7).split(), "--json")
        assert code == 0 and json.loads(out)["schema"] == 1
        code, out, err = run_cli(capsys, *argv.format(8).split(), "--json")
        assert (code, out) == (2, "") and "weight too large" in err and "is above 7" in err


    def test_verify_t_is_refused_before_any_arithmetic(self, capsys, monkeypatch):
        # --verify-t t computes zeta_K(1 - 2t), a weight of 2t; 1000 would run for minutes.
        start = time.process_time()
        code, out, err = run_cli(capsys, *"dedekind --modulus 5 --subgroup 4 --verify-t 501".split())
        assert time.process_time() - start < 0.25
        assert (code, out) == (2, "") and "weight 2t too large" in err
        # A cap of 8 stands for MAX_WEIGHT: t = 4 reaches it, t = 5 is refused.
        monkeypatch.setattr(cli, "MAX_WEIGHT", 8)
        code, out, _ = run_cli(capsys, *"dedekind --modulus 5 --subgroup 4 --verify-t 4 --json".split())
        assert code == 0 and json.loads(out)["verify_jk"]["ok"]
        code, out, err = run_cli(capsys, *"dedekind --modulus 5 --subgroup 4 --verify-t 5 --json".split())
        assert (code, out, err) == (2, "", "error: weight 2t too large: --verify-t 5 is above 8\n")


class TestVerify:
    def test_von_staudt_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "von-staudt", "--max", "10")
        assert code == 0
        assert out.startswith("PASS von-staudt: 10/10")

    def test_json_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "von-staudt", "--max", "5", "--json")
        _, out2, _ = run_cli(capsys, "verify", "von-staudt", "--max", "5", "--json")
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["reports"][0]["failed"] == 0

    def test_carlitz_suite_builds_no_lattice(self, hnf_spy):
        # Carlitz's ideals are decided by residues mod p, so the suite runs no HNF.
        report = cli.suite_carlitz()
        assert report.failed == 0 and report.passed > 500
        assert hnf_spy == []

    @pytest.mark.parametrize("argv", [
        ["verify", "gbn-theorem"],
        ["verify", "eisenstein"],
        ["eisenstein", "--modulus", "5", "--index", "2", "--weight", "2"],
        ["eisenstein", "--modulus", "1", "--index", "0", "--weight", "12"],
    ])
    def test_quotients_and_indices_run_no_hnf(self, capsys, hnf_spy, argv):
        # Every quotient and index comes from local invariants; only bern's printed basis runs an HNF.
        code, _, _ = run_cli(capsys, *argv, "--json")
        assert code == 0 and hnf_spy == []

    def test_verify_all_digest(self, capsys):
        # The nine reports of `verify all --json`, byte for byte.
        code, out, _ = run_cli(capsys, "verify", "all", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "5950c82b3fe5ee15f8f2145cc8e4da32bc249f2e394320e6f5939baf68d986d4"

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, option", [
        (["carlitz", "--primes", "3"], "--primes"),
        (["von-staudt", "--max-weight", "4"], "--max-weight"),
        (["consistency", "--max", "3"], "--max"),
    ])
    def test_option_the_suite_does_not_read_exits_2(self, capsys, argv, option):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert option in err and argv[0] in err

    def test_all_passes_each_option_to_the_suites_that_read_it(self, capsys, monkeypatch):
        calls = {}

        def fake(name):
            def run(**kwargs):
                calls[name] = kwargs
                return RunReport(name, {})
            return run

        monkeypatch.setattr(cli, "SUITES", {name: fake(name) for name in cli.SUITES})
        code, _, _ = run_cli(capsys, "verify", "all", "--max", "7", "--max-weight", "4", "--primes", "3,5")
        assert code == 0
        assert calls == {
            "von-staudt": {"max_k": 7},
            "carlitz": {"max_k": 7},
            "gbn-theorem": {"max_weight": 4, "moduli": [3, 5]},
            "duality-dirichlet": {},
            "duality-jn": {},
            "e2-oracle": {},
            "consistency": {},
            "eisenstein": {},
            "dedekind-jk": {},
        }

    def test_gbn_theorem_primes_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "gbn-theorem", "--primes", "3,5", "--json")
        assert code == 0
        assert out == (
            '{"reports": [{"failed": 0, "findings": 0, "first_counterexample": null, "params": '
            '{"max_modulus": 16, "max_weight": 12, "moduli": [3, 5], "moduli_invert2": [9, 25, 27]}, '
            '"passed": 1472, "run": 1472, "schema": 1, "suite": "gbn-theorem"}], "schema": 1}\n'
        )

    def test_verify_all_text_view_digest(self, capsys):
        # The text view of `verify all`, byte for byte once each suite's wall time is masked.
        code, out, err = run_cli(capsys, "verify", "all")
        assert (code, err) == (0, "")
        masked = re.sub(r"\(\d+\.\d\ds\)", "(N.NNs)", out)
        assert masked.count("(N.NNs)") == 9
        assert hashlib.sha256(masked.encode()).hexdigest() == \
            "fb729d9dbc37cc303ff697ad44ec1c1bf1baf55cf841e91d331e90bb1aaf7b7d"

    def test_gbn_theorem_report_of_an_injected_fault(self, monkeypatch):
        # pi_jn_chi doubled in three (modulus, degree) cells: three cases of part B fail, and the
        # least of them, chi = 5:2 at k = 2, is the first counterexample.
        real = homotopy.pi_jn_chi

        def doubled(chi, i, loc=()):
            group = real(chi, i, loc)
            return group + group if (chi.modulus, i) in {(5, 3), (7, 1), (5, -1)} else group

        monkeypatch.setattr(homotopy, "pi_jn_chi", doubled)
        report = cli.SUITES["gbn-theorem"](max_modulus=3, max_weight=4, moduli=(5, 7), moduli_invert2=())
        counterexample = {"arithmetic": "Z/5", "case": [1, 5, 2, 2], "homotopy": "Z/5 + Z/5"}
        assert report.to_json() == {
            "schema": 1, "suite": "gbn-theorem",
            "params": {"max_modulus": 3, "max_weight": 4, "moduli": (5, 7), "moduli_invert2": ()},
            "run": 52, "passed": 49, "failed": 3, "findings": 0, "first_counterexample": counterexample,
        }
        assert re.sub(r"\(\d+\.\d\ds\)", "(N.NNs)", report.text()) == (
            "FAIL gbn-theorem: 49/52 passed, 3 failed, 0 findings (N.NNs)\n"
            '  first counterexample: {"arithmetic": "Z/5", "case": [1, 5, 2, 2], "homotopy": "Z/5 + Z/5"}'
        )


class TestRunReport:
    """The report the @suite decorator counts off the rows of a suite."""

    @pytest.fixture
    def suite_demo(self, monkeypatch):
        monkeypatch.setattr(cli, "SUITES", {})
        monkeypatch.setattr(cli, "SUITE_OPTIONS", {})

        @cli.suite("demo")
        def suite_demo(rows=()):
            yield from rows

        return suite_demo

    def test_counts_add_up_and_the_least_failing_case_wins(self, suite_demo):
        report = suite_demo(rows=[
            ((2,), True),
            ((1,), False, {"lhs": "Z/2", "rhs": "0"}),
            ((3,), "finding", {"full_findings": 1}),
            ((0, 5), False, {"lhs": "Z/4", "rhs": "0"}),
            ((0, 7), False),
        ])
        assert (report.run, report.passed, report.failed, report.findings) == (5, 1, 3, 1)
        assert report.passed + report.failed + report.findings == report.run
        # The smallest failing case tuple wins, with its payload.
        assert report.first_counterexample == {"case": [0, 5], "lhs": "Z/4", "rhs": "0"}

    def test_a_failing_case_without_a_payload_is_reported_alone(self, suite_demo):
        report = suite_demo(rows=[((1,), True), ((2,), False)])
        assert report.first_counterexample == {"case": [2]}
        assert report.text().startswith("FAIL demo: 1/2 passed, 1 failed, 0 findings (")

    def test_a_finding_is_counted_and_fails_nothing(self, suite_demo):
        report = suite_demo(rows=[((1,), "finding", {"full_findings": 2}), ((2,), True)])
        assert (report.run, report.passed, report.failed, report.findings) == (2, 1, 0, 1)
        assert report.first_counterexample is None
        assert report.text().startswith("PASS demo: 1/2 passed, 0 failed, 1 findings (")

    def test_an_outcome_outside_the_three_is_refused(self, suite_demo):
        with pytest.raises(KeyError):
            suite_demo(rows=[((1,), "pass")])

    def test_json_excludes_wall_time(self, suite_demo):
        report = suite_demo()
        assert report.run == 0 and "wall_time" not in report.to_json()

    def test_the_wall_time_is_the_draw_of_the_rows(self, suite_demo):
        def rows():
            sum(range(100_000))
            yield (1,), True

        assert suite_demo(rows=rows()).wall_time > 0

    @pytest.mark.parametrize("name, params", [
        ("von-staudt", {"max_k": 12}),
        ("gbn-theorem", {"max_modulus": 3, "max_weight": 4, "moduli": (5, 7), "moduli_invert2": ()}),
        ("eisenstein", {"conductors": (1, 4, 5), "max_k": 5, "max_classical_weight": 12, "n_max": 50}),
    ])
    def test_the_rows_a_suite_yields_are_what_its_report_counts(self, name, params):
        rows = list(cli.SUITES[name].__wrapped__(**params))
        report = cli.SUITES[name](**params)
        outcomes = Counter(outcome for _, outcome, *_ in rows)
        assert len({case for case, *_ in rows}) == len(rows) > 0
        assert set(outcomes) <= {True, False, "finding"}
        assert (report.run, report.passed, report.failed, report.findings) == \
            (len(rows), outcomes[True], outcomes[False], outcomes["finding"])
        assert report.findings == (4 if name == "eisenstein" else 0) and report.failed == 0

    def test_von_staudt_rows_to_300_are_pinned(self):
        # sha256 of the rows of suite_von_staudt(max_k=300) as JSON, from the code in which the suite
        # repacked the dicts of bernoulli.verify_von_staudt.
        rows = list(cli.suite_von_staudt.__wrapped__(max_k=300))
        assert len(rows) == 300 and all(outcome is True for _, outcome, _ in rows)
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
            "982fc5064160e2ae8e214149f46a852eff74ac5641a1728b2baadf511a48eff6"


class TestEisensteinCmd:
    def test_ok_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "eisenstein", "--modulus", "4", "--index", "1",
            "--weight", "1", "--nmax", "30", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["coefficients"][1] == "4"

    @pytest.mark.parametrize("nmax, show, shown", [("30", "8", 9), ("3", "8", 4), ("30", "0", 1)])
    def test_one_series_per_call(self, capsys, monkeypatch, nmax, show, shown):
        calls = []
        original = eisenstein._sigma_rows
        monkeypatch.setattr(eisenstein, "_sigma_rows", lambda *args: calls.append(args) or original(*args))
        code, out, _ = run_cli(
            capsys, "eisenstein", "--modulus", "4", "--index", "1", "--weight", "1",
            "--nmax", nmax, "--show-coeffs", show, "--json",
        )
        coefficients = json.loads(out)["coefficients"]
        assert code == 0 and len(calls) == 1
        assert len(coefficients) == shown and coefficients[:2] == ["1", "4"][:shown]

    def test_the_cli_and_the_suite_keep_only_the_coefficients_they_print(self, capsys, monkeypatch):
        keeps = []
        original = eisenstein.congruence_check
        monkeypatch.setattr(eisenstein, "congruence_check",
                            lambda chi, k, n_max, keep: keeps.append((n_max, keep)) or original(chi, k, n_max, keep))
        for nmax, show in (("30", "8"), ("3", "8"), ("30", "0")):
            run_cli(capsys, "eisenstein", "--modulus", "4", "--index", "1", "--weight", "1",
                    "--nmax", nmax, "--show-coeffs", show, "--json")
        assert keeps == [(30, 9), (3, 4), (30, 1)]
        keeps.clear()
        rows = list(cli.suite_eisenstein.__wrapped__(conductors=(1, 4), max_k=3, max_classical_weight=4, n_max=20))
        assert len(rows) == len(keeps) == 4 and set(keeps) == {(20, 0)}

    def test_every_coefficient_to_120_is_pinned(self, capsys):
        # sha256 of the --json output and exit code of every primitive chi of conductor 1, 3, 4, 5, 7, 8, 9, 11
        # and 13 at each weight k <= 8 of its parity, every coefficient to q^120 shown, and of 37:1 at
        # weight 1, which exits 1; from the code in which congruence_check held every coefficient.
        calls = [(N, chi.index(), k) for N in (1, 3, 4, 5, 7, 8, 9, 11, 13) for chi in enumerate_characters(N)
                 if is_primitive(chi) for k in range(1, 9) if (-1) ** k == parity(chi)] + [(37, 1, 1)]
        digest = hashlib.sha256()
        codes = Counter()
        for N, index, k in calls:
            code, out, err = run_cli(capsys, "eisenstein", "--modulus", str(N), "--index", str(index),
                                     "--weight", str(k), "--nmax", "120", "--show-coeffs", "120", "--json")
            assert err == "" and len(json.loads(out)["coefficients"]) == 121
            codes[code] += 1
            digest.update(f"{N}:{index} k={k} exit {code}\n{out}".encode())
        assert len(calls) == 149 and codes == {0: 148, 1: 1}
        assert digest.hexdigest() == "e63c5082450b63cd3acf0f6598ac40b4606c0371b00ba43539eff400eac4edfc"


    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit before 3.10.7")
    def test_coefficients_past_the_int_digit_limit(self, capsys):
        # At weight 901 the coefficient of q holds integers of more than 4300 digits, Python's
        # default limit on int <-> str.  main lifts the limit for its call only, after argv is
        # parsed, so an argument of that many digits still exits 2.
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "eisenstein", "--modulus", "5", "--index", "1", "--weight", "901",
                                 "--nmax", "1", "--json")
        assert (code, err) == (0, "")
        assert max(map(len, re.findall(r"\d+", json.loads(out)["coefficients"][1]))) > 4300
        assert sys.get_int_max_str_digits() == limit
        try:
            code = main(["eisenstein", "--modulus", "5", "--index", "1", "--weight", "9" * 4301, "--nmax", "1"])
        except SystemExit as exc:
            code = exc.code
        assert code == 2 and sys.get_int_max_str_digits() == limit


class TestDedekindCmd:
    def test_sqrt5(self, capsys):
        code, out, _ = run_cli(
            capsys, "dedekind", "--modulus", "5", "--subgroup", "4",
            "--weight", "2", "--verify-t", "1", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["zeta(1-k)"] == "1/30"
        assert payload["verify_jk"]["ok"] is True

    # zeta_K(1-k) in the text form of a rational: p/q in lowest terms, or p when q = 1.
    @pytest.mark.parametrize("argv, value", [
        ("--modulus 1 --weight 2", "-1/12"),
        ("--modulus 1 --weight 12", "691/32760"),
        ("--modulus 4 --weight 2", "0"),
        ("--modulus 5 --subgroup 4 --weight 2", "1/30"),
        ("--modulus 7 --subgroup 6 --weight 2", "-1/21"),
        ("--modulus 3 --weight 1", "-1/6"),
    ])
    def test_printed_zeta_value(self, capsys, argv, value):
        code, out, err = run_cli(capsys, "dedekind", *argv.split(), "--json")
        assert (code, err, json.loads(out)["zeta(1-k)"]) == (0, "", value)
        code, out, err = run_cli(capsys, "dedekind", *argv.split())
        weight = argv.split()[-1]
        assert (code, err, out.splitlines()[-1]) == (0, "", f"  zeta_K(1-{weight}) = {value}")

    def test_verify_jk_zeta_value(self, capsys):
        code, out, _ = run_cli(capsys, "dedekind", "--modulus", "5", "--subgroup", "4", "--weight", "2",
                               "--verify-t", "2", "--json")
        row = json.loads(out)["verify_jk"]
        assert (code, row["zeta_value"], row["denominator"], row["ok"]) == (0, "1/60", 60, True)


# sha256 of the text stdout, one call per subcommand (and per homotopy target
# and e2 prime kind that renders differently); the --json stdout of the same
# call is one line carrying the schema.
TEXT_VIEWS = [
    ("chars list --modulus 12", "9c4fd8aeae855a4a3fc64dbb73f2b00809be1c2077c91be558e576fbec6a841f"),
    ("bern --modulus 5 --index 2 --weight 2", "488640b27392593b338e4992a537511e4cc05b2c189c666db046e0d0ba2f7168"),
    ("homotopy j --from -4 --to 9", "e260885e9d9e9e36b3a5c1b83214a6234a86135c910f71ac28e03eb5c36f0b77"),
    ("homotopy jn --level 12 --from -8 --to 24", "4be46a9c8a46c5ae3286ecbd1c29b8f7e3fcc04f2d17a5d880880bd345aca6b8"),
    ("homotopy k1 --prime 5 --from -8 --to 24", "3caa504fe3413e709ead7c39e2c4631175e19e472be18e8b7e0cf53536b41dee"),
    ("homotopy k1pv --prime 3 --level-exp 2 --from -8 --to 24",
     "258cbad9c2b26c4850915ecb55b7d8e11be371ba750bed914e54465162f3e032"),
    ("homotopy exotic --from -8 --to 24", "a936ab6940cbd3cee207a25f7a6878f5ca3b4b5f5a4a4da4b932affb3e415de9"),
    ("homotopy chi --modulus 48 --index 3 --from -8 --to 24",
     "658b17870426d9fc9c5f9715d26198b7f5a807cd10bf369d0df3bd5bd54a4088"),
    ("homotopy jk --modulus 5 --subgroup 4 --from 1 --to 8 --invert-order",
     "ac45f3af7e5144efcf9a0cb8627b77a4a75a05ff38f9cf2f2e43dcea937c254e"),
    ("e2 --prime 5 --level-exp 1 --tame 2 --tmin 0 --tmax 8",
     "6b01e862d6eb6f88489b205f6a63a9b715e70264219fda41ea30cac5e3b7f064"),
    ("e2 --prime 2 --level-exp 3", "1a7a73324f1cc164e3cc1469b27c842df0ef72f53aca55eb3716efa95308d421"),
    ("eisenstein --modulus 4 --index 1 --weight 1 --nmax 30",
     "e3d28c83cda9029d5034425dadcca0d513b0c93c4605f5a049037ec8bd295291"),
    ("dedekind --modulus 5 --subgroup 4 --weight 2 --verify-t 1",
     "f950df822b6664027d09638f6e10e8fcaac7d6e9466aab698aeafd13df091b96"),
]


@pytest.mark.parametrize("argv, digest", TEXT_VIEWS, ids=[argv for argv, _ in TEXT_VIEWS])
def test_text_view_and_json_line(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    code, out, err = run_cli(capsys, *argv.split(), "--json")
    assert (code, err) == (0, "")
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["schema"] == 1


# sha256 of the --help stdout of the root parser, of each subcommand and of two
# homotopy targets at a width of 80 columns (Python 3.11 argparse layout); the
# verify choices come from the suite registry.
HELP_VIEWS = [
    ("", "3400db7cad043d0ad04d1dfae92f89a17894f6ff60878255d27560172e9ceae7"),
    ("chars", "4c1da5f3c7118a55fb049a2dd7aa2b39b98ed8afc4e1ba3d2dff5a23d9425e70"),
    ("chars list", "bc1d2543da8c70d2e71b5d68421bb1f4e619a4d7f7baa012af05b237ca7b861b"),
    ("bern", "64ddf41576eab0f615d973aef715d503199f6d933b1014dbd2fe1110a859001f"),
    ("homotopy", "a082e319910fcd14e9988ece2dd9c52aff0a29f1a63869410852aafe55a7a52a"),
    ("homotopy chi", "775eb7f2520598a581db8a2c5006c2f6e3f0822e039c1daa61dcc67b603912f7"),
    ("homotopy jk", "991d885c7ff2ecd33001e5bbec12099e594f42a2d2cdb5ac753b9b56abed89cd"),
    ("e2", "093b4ec9dbfcb931d20d8f0813be7480c0574ab74617b0faae685ff12f3afa38"),
    ("eisenstein", "6f38074deaba685381aef72872738bd0857c6e4efdfeb936748c6647dc31801b"),
    ("dedekind", "69192dbfaa0ccce9929eea2af2649b386c12214312e070c818f93fc0824f250a"),
    ("verify", "964153427ba22dcc420c2ac6e580fbd0bb3fac1c00ba25caed405b551f6f8980"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse help layout differs across Python versions")
@pytest.mark.parametrize("argv, digest", HELP_VIEWS, ids=[argv or "root" for argv, _ in HELP_VIEWS])
def test_help_view(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), "--help"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


# sha256 of the stderr of each call that argparse rejects (exit 2, empty
# stdout) at a width of 80 columns.  An option left over after a valid
# subcommand is reported by the root parser, with the root usage line.
ERROR_VIEWS = [
    ("", "3f4577fc58acf759e3c2085db72c276b5ef73184347beb023297795065bdc020"),
    ("nosuch", "b79be0fb311dddcf249b80b9616024572afeefa84c09e7d6f02dc535cedebd4e"),
    ("--json bern", "d597e26eb55909df557c45bfe14e41a5af6ab1ed40ddf88e69febfcdddef4f66"),
    ("bern --modulus 5", "8cf634d7c350e131163bfae0f96d6e5efcee8276598bbcb7110a6c79948bb115"),
    ("chars", "5911587273fb88efb661033f4df86c84080ea3183442258b0222744261536a90"),
    ("chars nosuch", "f9f5f34530c5d4152da181bbc3d9fd89585de2f147c812d8d3e83bb06465ded6"),
    ("verify nosuch", "365244200767f808ea9a164d4384be4b84eaa1bbd8d33c5be30c30de85eb0b9d"),
    ("bern --modulus 5 --index 1 --weight 2 --bogus", "8280b816b1eab7441c447c33211ec388ba8738dddeeb6aa26335747409aad3f1"),
    ("e2 --prime x", "ad7ca3289a366c3816e12ae733114f2e50cd27886d25f159246a15405781f6a1"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse messages differ across Python versions")
@pytest.mark.parametrize("argv, digest", ERROR_VIEWS, ids=[argv or "no-arguments" for argv, _ in ERROR_VIEWS])
def test_argparse_error_view(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert hashlib.sha256(captured.err.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, added", [
    # A fully spelled call is read straight off COMMANDS: no parser at all.
    (["bern", "--modulus", "5", "--index", "2", "--weight", "2", "--json"], []),
    (["chars", "list", "--modulus", "4", "--json"], []),
    (["homotopy", "chi", "--modulus", "5", "--index", "1", "--invert", "2", "--json"], []),
])
def test_main_builds_only_the_subparser_it_runs(capsys, monkeypatch, argv, added):
    names = []
    original = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        names.append(name)
        return original(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert run_cli(capsys, *argv)[0] == 0
    assert names == added
    names.clear()
    cli.build_parser()
    assert names == ["chars", "list", "bern", "homotopy", "j", "jn", "k1", "k1pv", "exotic", "chi", "jk", "e2",
                     "eisenstein", "dedekind", "verify"]


def _readme_examples():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#")[0].split()[1:] for line in block.splitlines() if line.startswith("dirichletj ")]


PLAIN_CALLS = list({" ".join(argv): argv for argv in [
    *(argv.split() + json for argv, _ in TEXT_VIEWS for json in ([], ["--json"])), *_readme_examples()
]}.values())


@pytest.mark.parametrize("argv", PLAIN_CALLS, ids=" ".join)
def test_plain_call_builds_no_parser(capsys, monkeypatch, argv):
    built = []
    original = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    # `verify all` is in the README; what it parses to matters here, not its run.
    fakes = {name: lambda name=name, **_: RunReport(name, {}) for name in cli.SUITES}
    monkeypatch.setattr(cli, "SUITES", fakes)
    code, _, err = run_cli(capsys, *argv)
    assert (code, err, built) == (0, "", [])


def test_every_spec_uses_only_keywords_the_plain_parse_reads():
    # A spec beyond these (nargs=, action="append", a short flag, a str default) would make
    # every call that names it fall back to argparse, or, unguarded, disagree with it.
    keywords = {"type", "required", "default", "dest", "choices", "help", "action"}

    def specs(commands):
        for _, run, entries in commands.values():
            yield from entries
            if isinstance(run, dict):
                assert entries == [], "a command with nested commands takes no options of its own"
                yield from specs(run)

    for flags, kwargs in [*specs(cli.COMMANDS), cli._JSON]:
        assert len(flags) == 1 and (flags[0].startswith("--") or not flags[0].startswith("-")), flags
        assert kwargs.keys() <= keywords and kwargs.get("action", "store_true") == "store_true", flags
        assert not isinstance(kwargs.get("default"), str), flags


@pytest.mark.parametrize("argv", [
    "bern --modulus 5 --index 2 --weight 2 -h", "chars list -- --modulus 4", "--json bern --modulus 5",
    "chars --json list --modulus 4", "bern --mod 5 --index 2 --weight 2", "chars list --modulus=4",
    "homotopy --from 1", "bern --modulus 5 --index 2", "e2 --prime", "homotopy j k1", "homotopy jj",
    "e2 --prime x", "e2 --prime -x", "e2 --prime -\u0663", "e2 --prime -1.5", "homotopy jk --subgroup -1,2",
    "homotopy j --invert 2",
])
def test_plain_parse_leaves_other_spellings_to_argparse(argv):
    assert cli._plain_namespace(argv.split(" ")) is None


def _value(kwargs, low=-30, high=30):
    """Text of one value a spec takes: a choice, an int in [low, high] or a comma-separated list of them."""
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    if kwargs.get("type") is cli._int_list:
        return st.lists(st.integers(low, high), max_size=3).map(lambda xs: ",".join(map(str, xs)))
    return st.integers(low, high).map(str)


@st.composite
def _spelled_calls(draw, low=-30, high=30):
    """(argv, spelled): command path, each required option, some optional ones, some repeated.

    ``spelled`` is false when a value starts with "-" but is no negative
    integer ("-1,2"): argparse reads that token as an option.
    """
    argv, run = [], cli.COMMANDS
    while isinstance(run, dict):
        argv.append(draw(st.sampled_from(sorted(run))))
        _, run, specs = run[argv[-1]]
    options, positionals, values = [], [], []
    for (flag,), kwargs in [*specs, cli._JSON]:
        if not flag.startswith("-"):
            positionals.append([draw(_value(kwargs, low, high))])
            values += positionals[-1]
        elif kwargs.get("required") or draw(st.booleans()):
            for _ in range(draw(st.integers(1, 2))):
                options.append([flag] if "action" in kwargs else [flag, draw(_value(kwargs, low, high))])
                values += options[-1][1:]
    groups = draw(st.permutations(options))
    at = 0
    for group in positionals:  # in order, anywhere among the options
        at = draw(st.integers(at, len(groups)))
        groups.insert(at, group)
        at += 1
    spelled = all(not value.startswith("-") or value[1:].isdigit() for value in values)
    return argv + [token for group in groups for token in group], spelled


SWAPS = ["-h", "--", "--mod", "--index=3", "-1.5", "-x", "-\u0663", " 7", ","]


@st.composite
def _calls(draw):
    """(argv, spelled): a drawn call, or one with a token dropped, doubled or swapped, or --json put first."""
    argv, spelled = draw(_spelled_calls())
    kind = draw(st.sampled_from(["none", "drop", "double", "swap", "json-first"]))
    if kind == "none":
        return argv, spelled
    if kind == "json-first":
        return ["--json", *argv], False
    i = draw(st.integers(0, len(argv) - 1))
    if kind == "drop":
        del argv[i]
    elif kind == "double":
        argv.insert(i, argv[i])
    else:
        argv[i] = draw(st.sampled_from(SWAPS))
    return argv, False


@settings(max_examples=500, deadline=None)
@given(_calls())
def test_plain_parse_agrees_with_argparse(call):
    argv, spelled = call
    plain = cli._plain_namespace(argv)
    assert plain is not None or not spelled, "a fully spelled call takes the plain path"
    if plain is None:
        return
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            expected = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse rejects {argv} that the plain path took: {err.getvalue()}")
    assert vars(plain) == vars(expected)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_spelled_calls(-2, 12))
def test_drawn_calls_exit_cleanly(call):
    # Values in [-2, 12] reach negative moduli, the composite conductor 12 and
    # prime-power ones; the exit codes are those the module docstring promises.
    argv, _ = call
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 0 and "--json" in argv:
        line, = out.getvalue().splitlines()
        json.loads(line)


class TestSuiteRegistry:
    def test_suites_in_verify_all_order(self):
        assert list(cli.SUITES) == [
            "von-staudt", "carlitz", "gbn-theorem", "duality-dirichlet", "duality-jn",
            "e2-oracle", "consistency", "eisenstein", "dedekind-jk",
        ]
        assert cli.SUITES["carlitz"] is cli.suite_carlitz

    def test_registered_suite_reports_its_params(self, monkeypatch):
        monkeypatch.setattr(cli, "SUITES", {})
        monkeypatch.setattr(cli, "SUITE_OPTIONS", {})
        seen = []

        @cli.suite("demo")
        def suite_demo(levels=(1, 2), t_max: int = 3):
            seen.append((levels, t_max))
            for level in levels:
                yield (level,), level <= t_max

        report = suite_demo(t_max=1)
        assert seen == [((1, 2), 1)]
        assert (report.suite, report.params) == ("demo", {"levels": (1, 2), "t_max": 1})
        assert (report.run, report.passed, report.failed) == (2, 1, 1)
        assert report.first_counterexample == {"case": [2]} and report.wall_time > 0
        assert json.loads(json.dumps(report.to_json()))["params"] == {"levels": [1, 2], "t_max": 1}
        assert suite_demo().params == {"levels": (1, 2), "t_max": 3}
        assert suite_demo.__name__ == "suite_demo"
        assert cli.SUITES == {"demo": suite_demo} and cli.SUITE_OPTIONS == {}
        with pytest.raises(TypeError):
            suite_demo(t_min=0)

    def test_binding_follows_the_sweep_signature(self, monkeypatch):
        # The keywords are read off the sweep's code object and defaults.
        monkeypatch.setattr(cli, "SUITES", {})
        monkeypatch.setattr(cli, "SUITE_OPTIONS", {})
        ran = []

        @cli.suite("demo")
        def suite_demo(moduli, t_max=3, levels=(1,)):
            case = [moduli]  # a local variable, not a keyword of the suite
            ran.append(case)
            yield from ()

        with pytest.raises(TypeError, match="moduli"):
            suite_demo(t_max=1)
        with pytest.raises(TypeError, match="t_min"):
            suite_demo(moduli=(5,), t_min=0)
        with pytest.raises(TypeError, match="case"):
            suite_demo(moduli=(5,), case=[])
        with pytest.raises(TypeError):
            suite_demo(moduli=(5,), report=None)
        assert ran == []
        report = suite_demo(levels=(2,), moduli=(5,))
        assert list(report.params.items()) == [("moduli", (5,)), ("t_max", 3), ("levels", (2,))]
        assert ran == [[(5,)]]

    def test_registered_suite_reports_params_in_declaration_order(self):
        # The verify all --json digest pins this order.
        report = cli.SUITES["gbn-theorem"](moduli_invert2=(), moduli=(), max_weight=1, max_modulus=2)
        assert list(report.params) == ["max_modulus", "max_weight", "moduli", "moduli_invert2"]
        assert report.run == 4 and report.failed == 0

    def test_options_are_registered_with_the_suite(self, monkeypatch):
        monkeypatch.setattr(cli, "SUITES", {})
        monkeypatch.setattr(cli, "SUITE_OPTIONS", {})
        cli.suite("demo", {"--max": "t_max"})(lambda t_max=3: iter(()))
        assert cli.SUITE_OPTIONS == {"demo": {"--max": "t_max"}}


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv", [
    ["chars", "list", "--modulus", "60", "--json"],
    ["homotopy", "chi", "--modulus", "48", "--index", "3", "--from", "-8", "--to", "24", "--json"],
])
def test_output_is_the_same_under_python_O(argv):
    # -O strips assert statements; no output may depend on them.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = [
        subprocess.run([sys.executable, *flags, "-m", "dirichletj.cli", *argv], env=env, capture_output=True, check=True)
        for flags in ([], ["-O"])
    ]
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout
