"""Which executable ``src/`` lines each kind of entry point runs.

    python ci/reachability.py   # runs every entry point (6-8 min on 2 cores),
                                # writes ci/reachability.txt

Every entry point runs on a copy of the checkout, with a ``sitecustomize``
that traces each process (``sys.settrace`` / ``threading.settrace``), only
in frames whose file is under ``src/repro/``, and dumps the lines it ran,
at exit and in ``os._exit``.  The executable lines of a module are those
that ``co_lines()`` lists for its compiled code objects (line 0 aside).
Those that run when the module is imported (its top-level code, the bodies
of the classes it defines there, and the comprehensions in either) are
counted in the ``import`` column, since importing a module is not using
it.  Each other line, one inside a function body, is charged to the first
class that ran it: product, CI-only, test-only, or unreached.  A module no
product entry point reaches is one whose function bodies product never
runs (or, with no function bodies, one product never imports).  Lines are
read from the copy that ran, so the checkout may change while the tool
runs.  A subprocess that sets its own ``PYTHONPATH`` is not traced.
"""

import collections, glob, json, os, shutil, subprocess, sys, tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOOK = """import atexit, json, os, sys, threading
_seen = set()
_add = _seen.add
def _line(frame, event, arg):
    if event == "line":
        _add((frame.f_code.co_filename, frame.f_lineno))
    return _line
def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if "/src/repro/" in name:
        _add((name, frame.f_lineno))
        return _line
def _dump():
    sys.settrace(None)
    hits = sorted({(name.split("/src/", 1)[1], line) for name, line in list(_seen)})
    with open(os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.json"), "w") as f:
        json.dump(hits, f)
_exit = os._exit
os._exit = lambda code: (_dump(), _exit(code))
atexit.register(_dump)
sys.settrace(_call)
threading.settrace(_call)
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
#: Modules no product entry point reaches, and the open ROADMAP item (quoted
#: as it is headed there) that keeps each.
ATTENTION = '"The table covers what the zoo compiles: attention"'
FUZZ = ('the fuzz harness CI and tier-1 run, which "A served reply is checked by the '
        'fuzz oracle" and "Cache keys are checked, not trusted" extend')
KEPT = {"repro/fx/analysis/breaks.py":
        '"Graph breaks: the front door mends them, or the repair code goes"',
        "repro/models/transformer.py": ATTENTION, "repro/nn/attention.py": ATTENTION,
        "repro/nn/sparse.py": ATTENTION + " (TransformerEncoder's embedding)",
        "repro/fx/backends/eager.py": "the oracle's backend_split reference; " + FUZZ,
        **dict.fromkeys(["repro/fx/testing/fuzz.py", "repro/fx/testing/minimize.py",
                         "repro/fx/testing/oracle.py"], FUZZ)}


def reached(work: str, kind: str) -> set:
    out = tempfile.mkdtemp(dir=work)
    env = dict(os.environ, REACH_OUT=out, PYTHONPATH=f"{work}/hook:{work}/tree/src")
    for cmd in ENTRY_POINTS[kind]:
        print(kind, " ".join(cmd[1:]), flush=True)
        subprocess.run(cmd, cwd=f"{work}/tree", env=env, stdout=subprocess.DEVNULL)
    return {tuple(hit) for path in glob.glob(f"{out}/*.json") for hit in json.load(open(path))}


#: Code that runs where it is defined: a class body, a comprehension.
INLINE = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def executable(path: str) -> tuple:
    """The lines ``co_lines()`` lists for the code objects compiled from
    ``path``: ``(import-time lines, function-body lines)``, disjoint."""
    todo, lines = [(compile(open(path).read(), path, "exec"), True)], (set(), set())
    while todo:
        code, at_import = todo.pop()
        lines[not at_import].update(line for _, _, line in code.co_lines() if line)
        todo += [(c, at_import and (c.co_name in INLINE or not c.co_flags & 2))
                 for c in code.co_consts if hasattr(c, "co_lines")]   # 2: CO_NEWLOCALS
    return lines[0], lines[1] - lines[0]


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
        table, unused = collections.defaultdict(collections.Counter), []
        for path in sorted(glob.glob("repro/**/*.py", root_dir=f"{work}/tree/src",
                                     recursive=True)):
            row = table[path]
            at_import, body = executable(f"{work}/tree/src/{path}")
            row["import"] = len(at_import)
            for line in body:
                kind = next((k for k in ENTRY_POINTS if (path, line) in hits[k]), "unreached")
                row[kind] += 1
            if not row["product"] and (body or not any(
                    (path, line) in hits["product"] for line in at_import)):
                unused.append(path)
    kinds = ["import", *ENTRY_POINTS, "unreached"]
    lines = [f"{'module':44s}" + "".join(f"{k:>11s}" for k in kinds)]
    for module, row in [*table.items(), ("total", sum(table.values(), collections.Counter()))]:
        lines.append(f"{module:44s}" + "".join(f"{row[k]:11d}" for k in kinds))
    lines += ["", "modules no product entry point reaches, and why each stays:"]
    lines += [f"  {m}: {KEPT.get(m, 'NONE')}" for m in unused]
    open(f"{ROOT}/ci/reachability.txt", "w").write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
