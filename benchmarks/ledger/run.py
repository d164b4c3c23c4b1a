"""The perf ledger's one command.

    run.py --workload W --seed N --seconds S --trace 0|1
        One run of one workload (what BENCHMARK.json's driver calls).
        Prints every metric by name with its unit, checks every output
        against eager, and ends with one JSON line.  ``--trace 0`` gives the
        end-to-end metrics; ``--trace 1`` runs an untraced and a traced half
        plus the per-layer probes, writes the spans under ``out/`` and gives
        the per-layer metrics.

    run.py [--seed N] [--repeat K] [--trace 1] [--quick] [--out FILE]
        Every workload, each run in its own fresh process, K times on seeds
        N..N+K-1; writes a run-set document with host, git sha, op counts,
        every run, and median and quartiles per (workload, metric).

    run.py --compare A.json B.json
        ok / regressed / unresolved for every (workload, end-to-end metric),
        by the bounds recorded in A; exit status 1 on any ``regressed``.

    run.py --selfcheck
        Damages one reply per workload, and crashes and hangs a cold child,
        and asserts the oracle counts exactly those.

    run.py --emit-spec
        Prints BENCHMARK.json as spec.py defines it.
"""

import time

T_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import bootstrap  # noqa: E402

bootstrap.init()

import spec  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from stats import (percentile, quartiles, spread,  # noqa: E402
                   supported_percentile, verdict)

LAYER_NAMES = [row[0] for row in spec.PER_LAYER]
UNITS = {row[0]: row[1] for row in spec.END_TO_END + spec.PER_LAYER}


# -- one run of one workload


def _peak_rss_mb(of_children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(setup_s: float, samples, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one phase (see ``loadgen.Recorder`` for
    which reading is used where, and why).  A run in which no op answered
    has no latency: the sentinel, beside ``correct: false``."""
    total = samples.total()
    if samples.referenced:     # host-normalised times, every op
        lat = total.latencies_ms
        p50 = statistics.median(lat) if lat else spec.MISSING_VALUE
    else:                      # times as the clock read them, quietest block
        size = samples.blocks[0].attempted     # a short last block is no
        full = [b for b in samples.blocks if b.attempted == size]  # candidate
        p50 = min((statistics.median(b.latencies_ms)
                   for b in full if b.latencies_ms),
                  default=spec.MISSING_VALUE)
    cpu_s = (total.cpu_s - samples.sampler_cpu_s) / samples.cpu_slowdown
    return {
        "setup_s": setup_s,
        "op_p50_ms": p50,
        "ops_per_s": total.good / total.wall_s,
        "cpu_ms_per_op": cpu_s * 1e3 / total.attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def whole_run(samples) -> dict:
    """What is printed beside the metrics and kept in run sets: the tail
    with the sample count that supports it, and the same figures as the
    clock read them (``raw_*``), so that what the host-speed reference
    took out of a run can be seen."""
    total = samples.total()
    lat = total.latencies_ms
    blocks = samples.blocks
    raw = [ms * b.slowdown for b in blocks for ms in b.latencies_ms]
    return {"op_p90_ms": percentile(lat, 90) if lat else None,
            "samples": len(lat), "blocks": len(blocks),
            "supported_percentile": supported_percentile(len(lat)),
            "host_slowdown": statistics.median(b.slowdown for b in blocks)
            if samples.referenced else samples.cpu_slowdown,
            "raw_op_p50_ms": statistics.median(raw) if raw else None,
            "raw_op_p90_ms": percentile(raw, 90) if raw else None,
            "raw_ops_per_s": total.good / sum(b.wall_s * b.slowdown
                                              for b in blocks),
            "raw_cpu_ms_per_op": (sum(b.cpu_s * b.slowdown for b in blocks)
                                  - samples.sampler_cpu_s)
            * 1e3 / total.attempted,
            "block_slowdown": [b.slowdown for b in blocks]}


def merge(phases: list):
    """The phases of one kind, as one."""
    out = phases[0]
    out.cpu_slowdown = statistics.fmean(p.cpu_slowdown for p in phases)
    for phase in phases[1:]:
        out.blocks += phase.blocks
        out.sampler_cpu_s += phase.sampler_cpu_s
        out.extra.setdefault("children", []).extend(
            phase.extra.get("children", []))
    return out


def run_one(args) -> dict:
    """Run ``args.workload`` once in this process; returns the result
    object whose JSON form is the last line of stdout."""
    import probes as probe_suites
    import workloads

    faults = {}
    for item in filter(None, args.faults.split(",")):
        op, kind = item.split(":")
        faults[int(op)] = kind
    ctx = workloads.Ctx(
        seed=args.seed, seconds=args.seconds, quick=args.quick, faults=faults,
        import_s=time.perf_counter() - T_PROCESS_START,
        child_timeout_s=args.child_timeout)
    name = args.workload

    if not args.trace:
        setup_s, (samples,) = workloads.run(name, ctx, [(1.0, NullTracer())])
        values = end_to_end(setup_s, samples, _peak_rss_mb(
            name in workloads.CHILD_WORKLOADS))
        notes = {"whole_run": whole_run(samples),
                 "op_counts": workloads.op_counts(name, ctx)}
        phases = [samples]
    else:
        tracer = Tracer()
        # Untraced and traced quarters alternate, so that drift of the host
        # between them is not read as tracing overhead.
        setup_s, phases = workloads.run(
            name, ctx, [(0.25, NullTracer()), (0.25, tracer)] * 2)
        plain, traced = merge(phases[0::2]), merge(phases[1::2])
        probes = probe_suites.Probes(tracer)
        both = plain.total(), traced.total()
        probes.values["ops.failed_share"] = \
            sum(t.failed for t in both) / sum(t.attempted for t in both)
        if all(t.latencies_ms for t in both):
            probes.values["ops.p90_ms"] = percentile(both[0].latencies_ms, 90)
            probes.values["trace.overhead_share"] = \
                statistics.median(both[1].latencies_ms) / \
                statistics.median(both[0].latencies_ms) - 1.0
        model = workloads.PROBE_MODEL[name]
        suites = [
            ("compile_suite", lambda: probe_suites.compile_suite(
                probes, model, ctx.seed, traced.extra.get("children", []))),
            ("serve_suite", lambda: probe_suites.serve_suite(
                probes, ctx.seed, ctx.seconds)),
            # last: it ends by replacing Tensor.__new__ to count allocations
            ("tier_suite", lambda: probe_suites.tier_suite(
                probes, model, ctx.seed,
                rounds=max(5, round(2 * ctx.seconds)))),
        ]
        for suite, call in suites:
            try:
                call()
            except Exception as exc:  # a missing probe never fails the run
                probes.missing[suite] = f"{type(exc).__name__}: {exc}"
        os.makedirs(bootstrap.OUT_DIR, exist_ok=True)
        stem = os.path.join(bootstrap.OUT_DIR, f"trace-{name}")
        tracer.write(stem)
        values, missing = {}, {}
        for metric in LAYER_NAMES:
            if metric in probes.values:
                values[metric] = probes.values[metric]
            else:
                values[metric] = spec.MISSING_VALUE
                missing[metric] = probes.missing.get(metric) or "; ".join(
                    f"{k}: {v}" for k, v in probes.missing.items()
                    if "." not in k) or "not measured"
        notes = {"missing": missing, "spans": len(tracer.spans),
                 "trace_files": [stem + ".jsonl", stem + ".chrome.json"],
                 "self_times": tracer.self_times(),
                 "traced_whole_run": whole_run(traced)}
        phases = [plain, traced]

    totals = [p.total() for p in phases]
    attempted = sum(t.attempted for t in totals)
    failed = sum(t.failed for t in totals)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in values.items()},
        "notes": notes,
    }


def print_one(name: str, result: dict) -> None:
    print(f"workload {name}: attempted {result['attempted']}, "
          f"failed {result['failed']}, "
          f"outputs {'correct' if result['correct'] else 'WRONG'}")
    notes = result["notes"]
    missing = notes.get("missing", {})
    for metric, cell in result["metrics"].items():
        if cell["value"] == spec.MISSING_VALUE:
            reason = missing.get(metric, "no op answered")
            print(f"  {metric:36s} missing  ({reason})")
        else:
            print(f"  {metric:36s} {cell['value']:14.4f} {cell['unit']}")
    if "whole_run" in notes:
        whole = notes["whole_run"]
        print(f"  latency samples: {whole['samples']} in {whole['blocks']} "
              f"blocks (highest percentile with >= 10 samples beyond it: "
              f"p{whole['supported_percentile']:g}); "
              f"op counts: {notes['op_counts']}")
        print(f"  host slowdown (median over blocks; served: sampled) "
              f"{whole['host_slowdown']:.3f}; as the clock read: " + ", ".join(
                  f"{k[4:]} {whole[k]:.4f}" for k in
                  ("raw_op_p50_ms", "raw_op_p90_ms", "raw_ops_per_s",
                   "raw_cpu_ms_per_op") if whole[k] is not None)
              + ("" if whole["op_p90_ms"] is None else
                 f"; normalised op_p90_ms {whole['op_p90_ms']:.4f}"))
    if "self_times" in notes:
        print(f"  spans: {notes['spans']} -> {notes['trace_files'][0]}")
        print(f"  {'span':28s} {'count':>8s} {'total ms':>12s} "
              f"{'self ms':>12s}")
        for span, row in sorted(notes["self_times"].items(),
                                key=lambda kv: -kv[1]["self_ms"]):
            print(f"  {span:28s} {row['count']:8d} {row['total_ms']:12.2f} "
                  f"{row['self_ms']:12.2f}")
    # The driver reads exactly these keys from the last line.
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


# -- every workload, each in a fresh process


def _run_subprocess(workload: str, seed: int, seconds: float, trace: int,
                    quick: bool, extra=()) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--json-notes", *extra]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def host_info() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass   # an older numpy prints instead of returning
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version")},
            "thread_env": bootstrap.THREAD_ENV,
            "platform": platform.platform()}


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             cwd=bootstrap.REPO_ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.decode().strip() if out.returncode == 0 else "unknown"


def failures(runs: list) -> dict:
    """{workload: attempted / failed / failed_share} over every run of the
    set.  The share is of all ops the set attempted, not a median of runs:
    one wrong output in one run of ten must still show."""
    table: dict = {}
    for run in runs:
        row = table.setdefault(run["workload"], {"attempted": 0, "failed": 0})
        row["attempted"] += run["attempted"]
        row["failed"] += run["failed"]
    for row in table.values():
        row["failed_share"] = row["failed"] / row["attempted"]
    return table


def summarise(runs: list) -> dict:
    """{workload: {metric: median/q1/q3/spread/n}} over untraced runs."""
    table: dict = {}
    for run in runs:
        if run["trace"]:
            continue
        for metric, cell in run["metrics"].items():
            table.setdefault(run["workload"], {}).setdefault(
                metric, []).append(cell["value"])
    return {w: {m: dict(zip(("q1", "median", "q3"), quartiles(v)),
                        spread=spread(v) if len(v) > 1 else None, n=len(v),
                        values=v)
                for m, v in metrics.items()} for w, metrics in table.items()}


def run_all(args) -> int:
    names = spec.workload_names()
    seconds = 1.0 if args.quick else args.seconds
    runs = []
    for r in range(args.repeat):
        for name in names:
            modes = [0] + ([1] if args.trace and r == 0 else [])
            for trace in modes:
                t0 = time.perf_counter()
                result = _run_subprocess(name, args.seed + r, seconds, trace,
                                         args.quick)
                result.update(workload=name, seed=args.seed + r, trace=trace)
                runs.append(result)
                print(f"[{time.perf_counter() - t0:6.1f} s] ", end="")
                print_one(name, result)
    doc = {"schema": "ledger-run-set/1", "seed": args.seed,
           "repeat": args.repeat, "seconds": seconds, "quick": args.quick,
           "git_sha": git_sha(), "host": host_info(),
           "spec": spec.benchmark_json(), "runs": runs,
           "summary": summarise(runs), "failures": failures(runs)}
    out = args.out or os.path.join(bootstrap.OUT_DIR,
                                   f"ledger-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
    print(f"\n{'workload':18s} {'metric':16s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s}")
    for workload, metrics in doc["summary"].items():
        for metric, row in metrics.items():
            shown = "-" if row["spread"] is None else f"{row['spread']:.3f}"
            print(f"{workload:18s} {metric:16s} {row['median']:12.4f} "
                  f"{row['q1']:12.4f} {row['q3']:12.4f} {shown:>8s}")
        row = doc["failures"][workload]
        print(f"{workload:18s} {'failed_share':16s} "
              f"{row['failed_share']:12.6f}   ({row['failed']} of "
              f"{row['attempted']} ops)")
    print(f"run set written to {out}")
    return 0 if all(run["correct"] for run in runs) else 1


# -- compare


def compare_docs(a: dict, b: dict) -> list:
    """[(workload, metric, verdict, reference, candidate)] for every
    (workload, end-to-end metric) of run set *a*: medians judged by the
    bounds recorded in *a*, then ``failed_share``, where any increase is a
    regression."""
    rows = []
    for metric in a["spec"]["end_to_end"]:
        for workload, table in a["summary"].items():
            ref = table.get(metric["name"])
            new = b["summary"].get(workload, {}).get(metric["name"])
            if ref is None or new is None:
                continue
            rows.append((workload, metric["name"],
                         verdict(ref["values"], new["values"],
                                 metric["better"], metric["bound"]),
                         ref["median"], new["median"]))
    for workload, ref in a["failures"].items():
        new = b["failures"].get(workload)
        if new is None:
            continue
        worse = new["failed_share"] > ref["failed_share"]
        rows.append((workload, spec.FAILED_SHARE[0],
                     "regressed" if worse else "ok",
                     ref["failed_share"], new["failed_share"]))
    return rows


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        rows = compare_docs(json.load(fa), json.load(fb))
    print(f"{'workload':18s} {'metric':16s} {'verdict':11s} "
          f"{'reference':>12s} {'candidate':>12s}")
    for workload, metric, outcome, ref, new in rows:
        print(f"{workload:18s} {metric:16s} {outcome:11s} {ref:12.6g} "
              f"{new:12.6g}")
    return 1 if any(row[2] == "regressed" for row in rows) else 0


# -- self-check

#: (workload, faults injected at quick scale, --seconds); the oracle must
#: count exactly these and nothing else.  3 s of cold_many_ops is three
#: children, 1 s is one: the last row is a run whose every op fails, which
#: must still end in a result line, not in a harness crash.
SELFCHECK = [
    ("cold_resnet50", "0:corrupt", 1.0),
    ("warm_resnet50", "0:corrupt", 1.0),
    ("cold_many_ops", "0:corrupt,1:crash,2:hang", 3.0),
    ("steady_resnet50", "3:corrupt", 1.0),
    ("steady_many_ops", "17:corrupt", 1.0),
    ("served_burst", "5:corrupt", 1.0),
    ("served_open", "11:corrupt", 1.0),
    ("cold_many_ops", "0:crash", 1.0),
]


def selfcheck() -> int:
    bad = 0
    for name, faults, seconds in SELFCHECK:
        injected = len(faults.split(","))
        result = _run_subprocess(
            name, 0, seconds, 0, True,
            extra=["--faults", faults, "--child-timeout", "8"])
        ok = result["failed"] == injected and not result["correct"]
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: injected {injected} "
              f"({faults}), oracle counted {result['failed']} of "
              f"{result['attempted']}")
    return 1 if bad else 0


# -- command line


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=spec.workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale: --seconds 1, no sample floors")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--emit-spec", action="store_true")
    # plumbing between this file's own processes
    parser.add_argument("--faults", default="", help=argparse.SUPPRESS)
    parser.add_argument("--child-timeout", type=float, default=60.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--json-notes", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.emit_spec:
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    if args.compare:
        return compare(*args.compare)
    if args.selfcheck:
        return selfcheck()
    if not args.workload:
        return run_all(args)
    result = run_one(args)
    if args.json_notes:     # a parent ledger process wants the notes too
        print(json.dumps(result))
    else:
        print_one(args.workload, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
