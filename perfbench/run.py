"""Cold-start benchmark of dirichletj: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout (the directory holding ``src/dirichletj``):

    python3 perfbench/run.py --workload arith-sweep --seed 0 --seconds 20 --trace 0

Load model: a closed loop with one client.  The next op is sent only after
the previous one returned and was checked.  The run process imports the
package and never calls it, so its caches stay empty; every pass over the
case list runs in a process forked from it (for ``cli-cold``, every call
does), and each such process first asserts that all package caches are
empty.  A run makes ``--seconds // workloads.PASS_SECONDS[workload]``
passes, so the pass count depends on ``--seconds`` only, never on how fast
the code is.  At most two processes run at once.

Times are CPU time of the process doing the work, not wall time, scaled to a
reference speed.  The host is a virtual machine whose cores are shared: a
fixed loop takes 31 ms of wall time in one moment and 97 ms the next, while
its CPU time stays within 31-35 ms, because the time the host takes the core
away (steal time) is not charged to the process.  The program is
single-threaded and does no I/O in the timed phase, so its CPU time is the
time it would take on a core of its own.  CPU time still swings with how
busy the physical core is, so each pass's times are scaled by a calibration
loop timed between its ops (see calib.py).

End-to-end metrics (``--trace 0``):
  setup_s      median over launches of the scaled CPU time of a fresh interpreter,
               from its start until dirichletj.cli is imported and its parser built
  cpu_s        median over passes of the scaled CPU time of the timed phase,
               first op sent to last op checked
  op_p50_ms    median op latency (each op's latency is its median scaled CPU time over passes)
  op_p90_ms    90th-percentile op latency (nearest rank; >= 10 ops lie beyond it)
  peak_rss_mb  median over passes of the pass process's peak RSS (cli-cold: largest child)
The unscaled CPU time and the wall time of the timed phase (medians over
passes) and fail_frac (failed
ops / ops attempted) are printed with them; fail_frac is carried by the
``failed`` and ``attempted`` fields of the result line.

With ``--trace 1`` the run makes one untraced and one traced pass and reports
per-layer call counts and self times (see tracer.py) and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only if every check passed; 2 on bad usage or a
checkout without the package sources.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pickle
import random
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"
SETUP_LAUNCHES = 21
SETUP_SAMPLES = 20  # calibration samples before and after each setup launch
ORACLE_SAMPLE = 12
CLI_SAMPLES = 3  # calibration samples per cli-cold call
SETUP_CODE = "import time, dirichletj.cli as cli; cli.build_parser(); print(time.process_time())"

END_TO_END = {"setup_s": "s", "cpu_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}
# Functions whose call count and self time are reported ("<name>.calls", "<name>.self_s").
TRACED = (
    "bernoulli.series_pipeline", "bernoulli.polysum_pipeline", "exactalg.series_quotient",
    "cyclotomic.CycElement.mul", "cyclotomic.denominator_ideal", "cyclotomic.IdealLattice.init",
    "exactalg.hermite_normal_form", "exactalg.smith_normal_form", "exactalg.poly_inverse_mod",
    "cyclotomic.CycElement.inverse", "padic.quotient_oracle", "padic.e2_page",
    "characters.conductor", "characters.evaluate", "characters.enumerate_characters",
    "homotopy.pi_jn_chi_paths", "homotopy.decompose_p", "homotopy.check_duality_dirichlet",
    "eisenstein.sigma_chi", "eisenstein.eisenstein_coeffs", "eisenstein.congruence_check",
    "dedekind.zeta_special_value", "dedekind.verify_jk",
)
LAYERS = ("exactalg", "cyclotomic", "characters", "bernoulli", "padic", "homotopy", "eisenstein", "dedekind", "cli")
CACHES = (
    "bernoulli._bernoulli_list", "bernoulli._bernoulli_poly_coeffs", "bernoulli._gbn_primitive",
    "characters.get_structure", "characters._dlog_table", "cyclotomic.cyclotomic_poly",
    "cyclotomic.get_field", "padic._TOPGEN_CACHE",
)
GBN_CACHE = "bernoulli._gbn_primitive"


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "bernoulli.gbn.calls": "count", "bernoulli.gbn.cache_hit_ratio": "ratio",
        "cyclotomic.hnf_per_ideal": "ratio", "padic.snf_runs": "count", "padic.snf.self_s": "s",
        "padic.precision_escalations": "count", "homotopy.direct_tables.self_s": "s", "cli.main.self_s": "s",
    })
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
        units[f"layer.{layer}.share"] = "ratio"
    for cache in CACHES:
        units[f"cache.{cache}.currsize"] = "count"
    units.update({"cache.all.currsize": "count", "trace.overhead": "ratio"})
    return units


# ---------------------------------------------------------------------------
# Processes


def in_child(fn, *args):
    """Run fn(*args) in a forked process; return (result, child rusage)."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            payload = {"result": fn(*args)}
        except BaseException:  # the child reports every failure and always exits
            payload = {"error": traceback.format_exc()}
            code = 1
        try:
            with os.fdopen(write_fd, "wb") as out:
                out.write(pickle.dumps(payload))
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as inp:
        data = inp.read()
    _, _, usage = os.wait4(pid, 0)
    payload = pickle.loads(data) if data else {"error": "child exited without a result"}
    if "error" in payload:
        raise RuntimeError(f"child process failed:\n{payload['error']}")
    return payload["result"], usage


def load_package(src: Path):
    sys.path.insert(0, str(src))
    import dirichletj
    from dirichletj import bernoulli, characters, cli, cyclotomic, dedekind, eisenstein, exactalg, homotopy, padic

    if Path(dirichletj.__file__).resolve().parent != (src / "dirichletj").resolve():
        raise RuntimeError(f"imported dirichletj from {dirichletj.__file__}, not from {src}")
    return types.SimpleNamespace(
        package=dirichletj, bernoulli=bernoulli, characters=characters, cli=cli, cyclotomic=cyclotomic,
        dedekind=dedekind, eisenstein=eisenstein, exactalg=exactalg, homotopy=homotopy, padic=padic,
    )


def measure_setup(src: Path) -> float:
    """Median scaled CPU seconds of a fresh interpreter until the CLI is imported and its parser built.

    The calibration samples are taken in this process just before and after
    each launch.  Samples taken in the launched interpreter itself did not
    track the cost of its start-up.  In eight rounds of 21 launches on the
    baseline machine, medians scaled this way lay within 14 % of each other,
    unscaled ones within 59 %.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for launch in range(SETUP_LAUNCHES + 1):
        taken = calib.samples(SETUP_SAMPLES)
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                             capture_output=True, text=True).stdout
        taken += calib.samples(SETUP_SAMPLES)
        if launch:  # the first launch may write bytecode caches
            times.append(float(out) * calib.scale(taken))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# One pass


def _child_summary(dj, caches, tr) -> dict:
    """Cache state of a finished child, and the call counts and self times of its spans."""
    info = caches[GBN_CACHE].cache_info()
    out = {"cache_sizes": tracer.cache_sizes(caches), "gbn_hits": info.hits, "gbn_misses": info.misses}
    if tr is not None:
        out["totals"] = tracer.SpanTotals()
        out["totals"].add(tr.spans())
    return out


def _cold_start(dj, traced: bool):
    caches = tracer.find_caches(dj.package)
    tracer.assert_cold(caches)
    tr = None
    if traced:
        tr = tracer.Tracer()
        tr.install(dj.package)
    return caches, tr


def _pass_child(dj, ops, info, traced: bool) -> dict:
    caches, tr = _cold_start(dj, traced)
    latencies, oks, digests, oracle, errors = [], [], [], [], {}
    cal = calib.Calibrator()
    clock = time.process_time
    wall_start, start = time.perf_counter(), clock()
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            text, ok = workloads.run_op(dj, op.key)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            text, ok = f"error: {type(exc).__name__}: {exc}", False
        latencies.append(clock() - t0)
        cal.after(latencies[-1])
        oks.append(ok)
        digests.append(workloads.op_digest(text))
        if not ok:
            errors[i] = text[:200]
        item = oracle_item(op, text, info)
        if item:
            oracle.append(item)
    cpu, wall = clock() - start - sum(cal.samples), time.perf_counter() - wall_start
    return {"latencies": latencies, "oks": oks, "op_digests": digests, "oracle": oracle, "errors": errors,
            "cpu": cpu, "wall": wall, "calibration": cal.samples, **_child_summary(dj, caches, tr)}


def _cli_child(dj, argv: list[str], traced: bool) -> dict:
    caches, tr = _cold_start(dj, traced)
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    try:
        code = dj.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    cpu = time.process_time()  # since the fork
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code, "cpu": cpu,
            "calibration": calib.samples(CLI_SAMPLES), **_child_summary(dj, caches, tr)}


def run_pass(dj, workload: str, ops, info, traced: bool) -> dict:
    """One pass over the case list: per-op latencies, checks and output digests."""
    if workload != "cli-cold":
        result, usage = in_child(_pass_child, dj, ops, info, traced)
        result["rss_mb"] = usage.ru_maxrss / 1024
        result["children"] = [result]
        return result
    latencies, oks, digests, oracle, errors, children, rss, cal = [], [], [], [], {}, [], 0.0, []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        child, usage = in_child(_cli_child, dj, workloads.cli_argv(op.key), traced)
        latencies.append(child["cpu"])
        cal += child["calibration"]
        oks.append(child["code"] == 0)  # README: 0 on success
        digests.append(workloads.op_digest(child["stdout"]))
        if child["code"] != 0:
            errors[i] = f"exit {child['code']}: {child['stderr'][:200]}"
        item = oracle_item(op, child.pop("stdout"), info)
        if item:
            oracle.append(item)
        if traced:
            children.append(child)
        rss = max(rss, usage.ru_maxrss / 1024)
    wall = time.perf_counter() - start
    return {"latencies": latencies, "oks": oks, "op_digests": digests, "oracle": oracle, "errors": errors,
            "cpu": sum(latencies), "wall": wall, "rss_mb": rss, "children": children, "calibration": cal}


# ---------------------------------------------------------------------------
# Checks


def failed_ops(ops, result: dict, reference: dict) -> list[int]:
    """Indices of ops that raised, failed a verification or differ from the pinned output."""
    bad = {i for i, ok in enumerate(result["oks"]) if not ok}
    pinned = reference["groups"]
    digests = workloads.group_digests(ops, result["op_digests"])
    wrong = {g for g, d in digests.items() if pinned.get(g) != d}
    bad.update(i for i, op in enumerate(ops) if op.group in wrong)
    return sorted(bad)


def oracle_item(op, text: str, info: dict) -> dict | None:
    """An output the sympy oracle can check on its own (quadratic and trivial characters), if any."""
    key = op.key
    if key[0] == "arith":
        conductor, order = info[(key[1], key[2])]
        value, k = text.split("|")[0], abs(key[3])
        if order <= 2 and value != "0":
            return {"kind": "bkchi", "D": 1 if order == 1 else conductor * (-1) ** k, "k": k, "value": value}
    elif key[0] == "paths":
        N, i = key[1], key[3]
        conductor, order = info[(N, key[2])]
        k = (i + 1) // 2
        D = N if N % 4 == 1 else -N
        prime = N > 2 and all(N % p for p in range(2, N))
        if order == 2 and prime and i % 2 and k and (-1) ** k == (1 if D > 0 else -1):
            return {"kind": "pi_odd", "D": D, "k": k, "group": text.split("|")[0]}
    elif key[0] == "cli" and key[2] == "bern" and text:
        payload = json.loads(text)
        chi = payload["character"]
        if chi["order"] <= 2 and payload["B"] != "0":
            D = 1 if chi["order"] == 1 else chi["conductor"] * chi["parity"]
            return {"kind": "bkchi", "D": D, "k": payload["weight"], "value": payload["B"]}
    return None


def run_oracle(items: list[dict], seed: int) -> tuple[bool, str]:
    """Check a seeded sample of the items with sympy, in its own process."""
    if not items:
        return False, "oracle: no checkable outputs in this run"
    sample = random.Random(seed).sample(items, min(ORACLE_SAMPLE, len(items)))
    proc = subprocess.run([sys.executable, str(HERE / "oracle.py")], input=json.dumps(sample),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return False, f"oracle: {proc.stdout.strip()} {proc.stderr.strip()}"
    return True, f"oracle: {json.loads(proc.stdout)['checked']} sampled outputs agree with sympy"


def case_info(dj, workload: str, seed: int | None, costs: dict | None = None):
    """The case list, and (conductor, order) of every character an op names."""
    ops = workloads.build_ops(dj, workload, seed, costs)
    ch = dj.characters
    info = {}
    for op in ops:
        if op.key[0] in ("arith", "paths"):
            chi = ch.character_from_index(op.key[1], op.key[2])
            info[(op.key[1], op.key[2])] = (ch.conductor(chi), chi.order())
    return ops, info


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(passes: list[dict], setup_s: float) -> tuple[dict, dict]:
    n = len(passes[0]["latencies"])
    factors = [calib.scale(p["calibration"]) for p in passes]
    per_op = [statistics.median(p["latencies"][i] * f for p, f in zip(passes, factors)) for i in range(n)]
    values = {
        "setup_s": setup_s,
        "cpu_s": statistics.median(p["cpu"] * f for p, f in zip(passes, factors)),
        "op_p50_ms": 1000 * stats.percentile(per_op, 50),
        "op_p90_ms": 1000 * stats.percentile(per_op, 90),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    notes = {"ops": n, "passes": len(passes), "wall_s": statistics.median(p["wall"] for p in passes),
             "raw_cpu_s": statistics.median(p["cpu"] for p in passes),
             "tail_samples": stats.samples_beyond(90, n),
             "highest_percentile": stats.highest_percentile(n)}
    return values, notes


def per_layer(traced: dict, untraced_cpu: float) -> tuple[dict, int, list[str]]:
    """Per-layer metrics of the traced pass, its span count, and failed self-checks."""
    totals = tracer.SpanTotals()
    cache_max: dict[str, int] = {}
    hits = misses = 0
    for child in traced["children"]:
        totals.merge(child["totals"])
        hits += child["gbn_hits"]
        misses += child["gbn_misses"]
        for name, size in child["cache_sizes"].items():
            cache_max[name] = max(cache_max.get(name, 0), size)
    calls, self_s = totals.calls, totals.self_s
    values = {}
    for name in TRACED:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    inits = calls.get("cyclotomic.IdealLattice.init", 0)
    snf_runs = calls.get("padic.snf", 0)
    values.update({
        "bernoulli.gbn.calls": calls.get("bernoulli.gbn", 0),
        "bernoulli.gbn.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cyclotomic.hnf_per_ideal": calls.get("exactalg.hermite_normal_form", 0) / inits if inits else 0.0,
        "padic.snf_runs": snf_runs,
        "padic.snf.self_s": self_s.get("padic.snf", 0.0),
        "padic.precision_escalations": snf_runs // 2 - calls.get("padic.stable_quotient", 0),
        "homotopy.direct_tables.self_s": self_s.get("homotopy.direct_tables", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    })
    module_self = totals.module_self()
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = module_self.get(layer, 0.0)
        values[f"layer.{layer}.share"] = module_self.get(layer, 0.0) / traced["wall"]
    for cache in CACHES:
        values[f"cache.{cache}.currsize"] = cache_max.get(cache, 0)
    values["cache.all.currsize"] = sum(cache_max.values())
    values["trace.overhead"] = traced["cpu"] * calib.scale(traced["calibration"]) / untraced_cpu
    problems = []
    if calls.get("bernoulli.series_pipeline", 0) != misses:
        problems.append(f"self-check: series_pipeline calls {calls.get('bernoulli.series_pipeline', 0)} "
                        f"!= _gbn_primitive misses {misses}")
    return values, totals.spans, problems


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "dirichletj" / "__init__.py").is_file():
        print(f"error: no package sources at {src / 'dirichletj'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    dj = load_package(src)
    tracer.assert_cold(tracer.find_caches(dj.package))
    reference = json.loads(REFERENCE.read_text())
    ref = reference["workloads"][args.workload]

    setup_s = measure_setup(src)
    (ops, info), _ = in_child(case_info, dj, args.workload, args.seed, ref["cost_ms"])
    problems = []
    if len(ops) != ref["ops"]:
        problems.append(f"op count {len(ops)} != expected {ref['ops']}")

    count = 1 if args.trace else workloads.passes(args.workload, args.seconds)
    passes = [run_pass(dj, args.workload, ops, info, traced=False) for _ in range(count)]
    runs = list(passes)
    traced = None
    if args.trace:
        traced = run_pass(dj, args.workload, ops, info, traced=True)
        runs.append(traced)

    failed = 0
    for result in runs:
        bad = failed_ops(ops, result, ref)
        failed += len(bad)
        for i in bad[:3]:
            problems.append(f"failed op {list(ops[i].key)}: {result['errors'].get(i, 'output differs from reference')}")
    digest = workloads.output_digest(passes[0]["op_digests"])
    if traced and workloads.output_digest(traced["op_digests"]) != digest:
        problems.append("traced run's output digest differs from the untraced run's")
    if args.seed == reference["default_seed"] and digest != ref["default_digest"]:
        problems.append(f"output digest {digest} != pinned {ref['default_digest']} for the default seed")
    ok, message = run_oracle(passes[0]["oracle"], args.seed)
    if not ok:
        problems.append(message)
    attempted = len(ops) * len(runs)

    e2e, notes = end_to_end(passes, setup_s)
    if args.trace:
        values, spans, trace_problems = per_layer(traced, passes[0]["cpu"] * calib.scale(passes[0]["calibration"]))
        problems += trace_problems
        units = per_layer_units()
    else:
        values, units = e2e, END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  cases {workloads.case_digest(ops)}  "
          f"output digest {digest}  passes {notes['passes']}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {e2e[name]:12.4f} {unit}")
    print(f"  {'raw_cpu_s':<12} {notes['raw_cpu_s']:12.4f} s  (unscaled CPU time, not a metric)")
    print(f"  {'wall_s':<12} {notes['wall_s']:12.4f} s  (wall time, not a metric)")
    print(f"  {'fail_frac':<12} {failed / attempted:12.4f} ratio  ({failed} of {attempted} ops)")
    print(f"  op latency samples {notes['ops']}; p90 has {notes['tail_samples']} beyond it; "
          f"highest supported percentile p{notes['highest_percentile']}")
    print(f"  {message}")
    if args.trace:
        for name in sorted(values):
            print(f"  {name:<48} {values[name]:14.6g} {units[name]}")
        print(f"  traced spans {spans}")
    for problem in problems:
        print(f"  FAIL {problem}")
    correct = not problems and failed == 0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
