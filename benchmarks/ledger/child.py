"""The fresh process of the cold journey.  Cold isolation is this process
boundary: nothing here (or anywhere in the ledger) clears a cache.

``--mode op``     one cold operation: ``symbolic_trace`` -> ``fx.compile``
                  -> first forward, with the output sent back for the
                  parent to check against its own eager reference.
``--mode probe``  the per-layer view of the same journey: every stage's
                  public function called directly, outside ``PassManager``,
                  each timed on its own.

Either way the last line of stdout is one JSON object.  Times are
``time.perf_counter()`` readings; on Linux that clock is system-wide, so
the parent places these spans on its own timeline unchanged.
"""

import argparse
import base64
import json
import os
import pickle
import resource
import sys
import time

T_START = time.perf_counter()

import bootstrap  # noqa: E402

bootstrap.init()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load(model: str, seed: int):
    """Import the program, build the subject; returns stage marks too."""
    t0 = time.perf_counter()
    import repro  # noqa: F401
    import models
    t1 = time.perf_counter()
    module = models.build(model, seed)
    x = models.make_inputs(model, seed, 1)[0]
    t2 = time.perf_counter()
    marks = [("child.start", T_START, t0), ("import.repro", t0, t1),
             ("models.build", t1, t2)]
    return module, x, marks


def run_op(model: str, seed: int, verify: bool, fault: str) -> dict:
    module, x, marks = _load(model, seed)
    from repro import fx

    if fault == "crash":
        os._exit(3)
    if fault == "hang":
        time.sleep(3600)
    t0 = time.perf_counter()
    gm = fx.symbolic_trace(module)
    t1 = time.perf_counter()
    compiled = fx.compile(gm, (x,), verify=verify)
    t2 = time.perf_counter()
    y = compiled(x)
    t3 = time.perf_counter()
    marks += [("op", t0, t3), ("tracer.trace", t0, t1),
              ("compile", t1, t2), ("first_forward", t2, t3)]
    out = y.data
    if fault == "corrupt":
        out = out.copy()
        out.flat[0] += 1.0
    report = compiled.compile_report
    return {
        "spans": marks,
        "op_ms": (t3 - t0) * 1e3,
        "compile_total_ms": report.total_time * 1e3,
        "first_forward_ms": (t3 - t2) * 1e3,
        "rss_mb": _rss_mb(),
        "shape": list(out.shape),
        "dtype": str(out.dtype),
        "output": base64.b64encode(out.tobytes()).decode("ascii"),
    }


def run_probe(model: str, seed: int) -> dict:
    """Direct calls, in pipeline order, on one fresh process.  A stage
    that cannot be imported or raises is recorded under ``missing`` with
    the reason; later stages still run on whatever graph they are left."""
    module, x, marks = _load(model, seed)
    values: dict = {}
    missing: dict = {}
    values["import.repro_ms"] = (marks[1][2] - marks[1][1]) * 1e3
    values["models.build_ms"] = (marks[2][2] - marks[2][1]) * 1e3
    state = {"gm": None, "traced": None}

    def stage(names, fn):
        """Run *fn* timed; it returns the values of *names* after the first
        (the first name is always the stage's own wall time in ms)."""
        t0 = time.perf_counter()
        try:
            extra = fn()
        except Exception as exc:  # a missing probe never fails the run
            for name in names:
                missing[name] = f"{type(exc).__name__}: {exc}"
            return
        t1 = time.perf_counter()
        marks.append((names[0].rsplit("_ms", 1)[0], t0, t1))
        values[names[0]] = (t1 - t0) * 1e3
        for name, value in zip(names[1:], extra or ()):
            values[name] = value

    def trace():
        from repro.fx import symbolic_trace
        state["gm"] = symbolic_trace(module)
        return (len(state["gm"].graph.nodes),)

    def graph_hash():
        gm = state["gm"]
        gm.graph.structural_hash(include_attrs=True,
                                 canonicalize_targets=True)
        nbytes = sum(t.data.nbytes for t in gm.parameters()) + \
            sum(t.data.nbytes for t in gm.buffers())
        return (nbytes / 2 ** 20,)

    def pickle_dump():
        state["blob"] = pickle.dumps(state["gm"])
        return (len(state["blob"]) / 2 ** 20,)

    def pickle_load():
        # Only bytes this process just wrote are unpickled.
        pickle.loads(state.pop("blob"))

    def recompile():
        gm = state["gm"]
        gm.recompile()
        return (len(gm.code.splitlines()),)

    def guards():
        from repro.fx.analysis.guards import derive_guards
        derive_guards(state["gm"], (x,))

    def shape_prop():
        from repro.fx.passes.shape_prop import ShapeProp
        ShapeProp(state["gm"]).propagate(x)

    def dce():
        from repro.fx.passes import eliminate_dead_code
        eliminate_dead_code(state["gm"])

    def cse():
        from repro.fx.passes import eliminate_common_subexpressions
        eliminate_common_subexpressions(state["gm"])

    def const_fold():
        from repro.fx.passes import fold_constants
        fold_constants(state["gm"])

    def rules_first_use():
        from repro.fx.rules import default_ruleset
        state["rules"] = default_ruleset()

    def rules_apply():
        report = state["rules"].apply(state["gm"], verify=True)
        return (report.total_firings, len(state["gm"].graph.nodes))

    def fuse_conv_bn():
        from repro.fx.passes import fuse_conv_bn
        state["gm"] = fuse_conv_bn(state["gm"])

    def pointwise_fuse():
        from repro.fx.passes import FusedKernel, fuse_pointwise
        regions = fuse_pointwise(state["gm"])
        ops = sum(n.target.n_ops for n in state["gm"].graph.nodes
                  if n.op == "call_function"
                  and isinstance(n.target, FusedKernel))
        return (regions, ops)

    def memory_plan():
        from repro.fx.passes import plan_memory
        plan = plan_memory(state["gm"])
        return (plan.slots, plan.arena_nbytes)

    def vm_compile():
        from repro.fx import compile_to_vm
        program = compile_to_vm(state["gm"])
        return (len(program.instructions), program.n_regs)

    stage(["tracer.trace_ms", "tracer.nodes"], trace)
    stage(["graph.hash_ms", "graph.state_mb"], graph_hash)
    stage(["graph_module.pickle_ms", "graph_module.pickle_mb"], pickle_dump)
    stage(["graph_module.unpickle_ms"], pickle_load)
    stage(["graph_module.recompile_ms", "graph_module.code_lines"], recompile)
    stage(["analysis.guards_ms"], guards)
    stage(["shape_prop.run_ms"], shape_prop)
    stage(["passes.dce_ms"], dce)
    stage(["passes.cse_ms"], cse)
    stage(["passes.const_fold_ms"], const_fold)
    stage(["rules.first_use_ms"], rules_first_use)
    stage(["rules.apply_ms", "rules.firings", "passes.nodes_after_cleanup"],
          rules_apply)
    stage(["passes.fuse_conv_bn_ms"], fuse_conv_bn)
    stage(["shape_prop.refresh_ms"], shape_prop)
    stage(["passes.pointwise_fuse_ms", "passes.fused_regions",
           "passes.fused_ops"], pointwise_fuse)
    stage(["passes.memory_plan_ms", "passes.arena_slots",
           "passes.arena_bytes"], memory_plan)
    stage(["vm.compile_ms", "vm.instructions", "vm.registers"], vm_compile)
    return {"spans": marks, "values": values, "missing": missing,
            "rss_mb": _rss_mb()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("op", "probe"), required=True)
    parser.add_argument("--model", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--verify", type=int, default=1)
    parser.add_argument("--fault", default="",
                        choices=("", "corrupt", "crash", "hang"))
    args = parser.parse_args()
    if args.mode == "op":
        result = run_op(args.model, args.seed, bool(args.verify), args.fault)
    else:
        result = run_probe(args.model, args.seed)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
