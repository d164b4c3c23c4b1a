"""Which ``src/`` function bodies each kind of entry point reaches.

    python ci/reachability.py      # runs every entry point (≈ 8 min), writes ci/reachability.txt

Every entry point runs on a copy of the checkout, with a ``sitecustomize``
that profiles each process (``sys.setprofile`` / ``threading.setprofile``)
and dumps the code objects it entered, at exit and in ``os._exit``.  An
AST walk then charges each top-level function body of ``src/repro`` to the
first class that reached it: product, CI-only, test-only, or unreached.
A subprocess that sets its own ``PYTHONPATH`` is not profiled.
"""

import ast, collections, glob, json, os, shutil, subprocess, sys, tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOOK = """import atexit, json, os, sys, threading
_seen = set()
def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
def _dump():
    sys.setprofile(None)
    hits = sorted({(c.co_filename.split("/src/", 1)[1], c.co_firstlineno)
                   for c in list(_seen) if "/src/repro/" in c.co_filename})
    with open(os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.json"), "w") as f:
        json.dump(hits, f)
_exit = os._exit
os._exit = lambda code: (_dump(), _exit(code))
atexit.register(_dump)
sys.setprofile(_hook)
threading.setprofile(_hook)
"""
PY, BENCH = [sys.executable], [sys.executable, "-m", "pytest", "-q", "--benchmark-disable"]
FIGURES = ["bench_ir_complexity.py", "bench_quantization.py", "bench_fusion.py",
           "bench_trt_lowering.py", "bench_trt_ablation.py", "bench_scheduling.py",
           "bench_analysis.py"]       # Fig. 5, 6, 7, 8 (two), §6.2.3, §6.3
ENTRY_POINTS = {
    "product": [PY + [p] for p in sorted(glob.glob("examples/*.py", root_dir=ROOT))] + [
        PY + ["benchmarks/ledger/run.py", "--quick", "--trace", "1"],
        PY + ["-m", "repro.serve.smoke", "--requests", "100", "--concurrency", "16"],
        PY + ["-m", "repro.serve.smoke", "--batch-sizes"],
        BENCH + [f"benchmarks/{f}" for f in FIGURES]],
    "CI-only": [PY + ["-m", "repro.fx.testing.fuzz", "--iters", "200", "--out", "fuzz"],
                PY + ["-m", "repro.fx.testing.fuzz", "--iters", "200", "--out", "fuzz",
                      "--checks", "vm,vm_compiled,recompile,key_soundness"],
                PY + ["-m", "repro.fx.opinfo", "selftest"]],
    "test-only": [PY + ["-m", "pytest", "-q", "tests"]],
}
#: Modules no product entry point reaches, and the ROADMAP item (or role) that keeps each.
ATTENTION = "the op table covers attention"
KEPT = {"repro/fx/analysis/breaks.py": "the mending front door",
        "repro/models/transformer.py": ATTENTION, "repro/nn/attention.py": ATTENTION,
        "repro/nn/sparse.py": ATTENTION + " (TransformerEncoder's embedding)",
        "repro/fx/backends/eager.py": "the oracle's backend_split reference backend",
        **dict.fromkeys(["repro/fx/testing/fuzz.py", "repro/fx/testing/minimize.py",
                         "repro/fx/testing/oracle.py"], "the fuzz harness CI and tier-1 run")}


def reached(work: str, kind: str) -> set:
    out = tempfile.mkdtemp(dir=work)
    env = dict(os.environ, REACH_OUT=out, PYTHONPATH=f"{work}/hook:{work}/tree/src")
    for cmd in ENTRY_POINTS[kind]:
        print(kind, " ".join(cmd[1:]), flush=True)
        subprocess.run(cmd, cwd=f"{work}/tree", env=env, stdout=subprocess.DEVNULL)
    return {tuple(hit) for path in glob.glob(f"{out}/*.json") for hit in json.load(open(path))}


def bodies(path: str):
    """``(first lines a code object may report, body length)`` per top-level function."""
    todo = list(ast.parse(open(path).read()).body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.ClassDef):
            todo += node.body
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield {first, node.lineno}, node.end_lineno - node.lineno + 1


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        files = subprocess.run(["git", "ls-files", "-co", "--exclude-standard"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout.split()
        for name in files:
            if os.path.isfile(f"{ROOT}/{name}"):
                os.makedirs(os.path.dirname(f"{work}/tree/{name}"), exist_ok=True)
                shutil.copy(f"{ROOT}/{name}", f"{work}/tree/{name}")
        os.makedirs(f"{work}/hook")
        open(f"{work}/hook/sitecustomize.py", "w").write(HOOK)
        hits = {kind: reached(work, kind) for kind in ENTRY_POINTS}
    kinds = [*ENTRY_POINTS, "unreached"]
    table = collections.defaultdict(collections.Counter)
    for path in sorted(glob.glob("src/repro/**/*.py", root_dir=ROOT, recursive=True)):
        module = path[len("src/"):]
        for firsts, size in bodies(f"{ROOT}/{path}"):
            kind = next((k for k in ENTRY_POINTS
                         if any((module, line) in hits[k] for line in firsts)), "unreached")
            table[module][kind] += size
    lines = [f"{'module':44s}" + "".join(f"{k:>11s}" for k in kinds)]
    for module, row in [*table.items(), ("total", sum(table.values(), collections.Counter()))]:
        lines.append(f"{module:44s}" + "".join(f"{row[k]:11d}" for k in kinds))
    lines += ["", "modules no product entry point reaches, and why each stays:"]
    lines += [f"  {m}: {KEPT.get(m, 'NONE')}" for m, row in table.items() if not row["product"]]
    open(f"{ROOT}/ci/reachability.txt", "w").write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
