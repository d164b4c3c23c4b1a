"""Seedable, shape-aware random program generation for fuzzing the fx stack.

Programs come in two families:

* ``"graph"`` — a raw :class:`~repro.fx.Graph` built node-by-node against a
  synthesized module root.  Covers all six opcodes (``placeholder``,
  ``call_function``, ``call_method``, ``call_module``, ``get_attr``,
  ``output``), kwargs-carrying and kwargs-only calls, list aggregates
  (``cat``), multi-output nodes (``chunk`` + ``getitem``), shared
  subexpressions (operand reuse), multi-use placeholders, multi-step
  pointwise chains over shared operands (fusion stress),
  50+-op sequential deep chains with multi-use intermediates (flat-VM
  and register-reuse stress), and tuple/dict output aggregates.
* ``"module"`` — a random ``nn.Module`` tree (MLP or Conv/BatchNorm stack)
  that is symbolically traced; the untraced module provides an independent
  *eager* reference for the differential oracle, and the conv family gives
  the fusion and quantization pipelines real work.
* ``"control_flow"`` — a module with Python control flow the plain tracer
  cannot capture (data-dependent ``if``, shape-dependent branch, bounded
  loop), captured through :func:`repro.fx.analysis.mend` — the where-repair
  / polyvariant pipeline.  The untraced module is the eager reference and
  ``alt_inputs`` holds extra input batches that drive the *other* branch
  outcome, so the oracle's ``repaired`` check exercises both sides.

Determinism contract (relied on by :mod:`.minimize` and the replay tests):

* every random decision for op index ``i`` is drawn from its own
  ``random.Random(f"{seed}:{i}")`` stream, so suppressing one op (via
  ``ProgramSpec.skip``) does not perturb the choices of the others —
  that is what makes delta-debugging over generator decisions stable;
* the same :class:`ProgramSpec` always produces byte-identical generated
  source and identical example inputs (the global RNG is re-seeded from
  ``spec.seed`` before any parameter/input materialization).
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

import numpy as np

from ... import functional as F
from ...nn import BatchNorm2d, Conv2d, Flatten, LayerNorm, Linear, Module, Parameter, \
    Sequential
from ...tensor import Tensor, float32, float64, manual_seed, randn
from .. import opinfo
from ..graph import Graph
from ..graph_module import GraphModule
from ..node import Node
from ..tracer import symbolic_trace

__all__ = ["ProgramSpec", "GeneratedProgram", "generate_program", "spec_for_iteration"]

BATCH = 2
FEATURES = (2, 3, 4, 5)


def _draw() -> tuple:
    """(unary functions, binary functions, unary methods, activation modules):
    the spellings of every elementwise entry of one or two operands that
    writes nothing at its defaults, in declaration order, that map a float32
    probe holding 0 and ±3 to a finite float32 result (``log`` does not)."""
    probe = np.array([-3.0, -0.5, 0.0, 0.5, 3.0], np.float32)
    drawn: tuple = ([], [], [], [])

    def finite(call: Callable, arity: int) -> bool:
        try:
            with np.errstate(all="ignore"):
                out = call(*[Tensor(probe.copy()) for _ in range(arity)])
        except Exception:
            return False
        return isinstance(out, Tensor) and out.dtype is float32 \
            and bool(np.isfinite(out.data).all())

    for entry in map(opinfo.TABLE.get, opinfo.DECLARED):
        elementwise = entry.shape is opinfo.pointwise_shape
        arity = getattr(entry.kernel, "arity", 2 if elementwise else 1)
        if not (elementwise or entry.shape is opinfo.unchanged_shape) or arity > 2 \
                or entry.writes and entry.writes(*[Tensor(probe)] * arity):
            continue
        drawn[arity - 1].extend(f for f in entry.functions if finite(f, arity))
        if arity == 1:
            drawn[2].extend(m for m in entry.methods
                            if finite(lambda x, m=m: getattr(x, m)(), 1))
            drawn[3].extend(c for c in entry.module_types
                            if finite(lambda x, c=c: c()(x), 1))
    return tuple(map(tuple, drawn))


_UNARY, _BINARY, _METHODS, _ACTIVATIONS = _draw()


@dataclass(frozen=True)
class ProgramSpec:
    """Complete, replayable description of one generated program.

    Attributes:
        seed: master seed; drives every decision and all tensor values.
        family: ``"graph"``, ``"module"``, or ``"control_flow"``.
        n_ops: number of op *slots*; each slot emits zero, one, or two nodes.
        skip: op slots suppressed by the minimizer (empty for fresh runs).
    """

    seed: int
    family: str = "graph"
    n_ops: int = 10
    skip: frozenset = field(default_factory=frozenset)

    def dropping(self, index: int) -> "ProgramSpec":
        return replace(self, skip=frozenset(self.skip | {index}))


@dataclass
class GeneratedProgram:
    """A generated program plus everything the oracle needs to judge it."""

    spec: ProgramSpec
    gm: Any                    # GraphModule, or PolyvariantModule (control_flow)
    inputs: tuple
    eager: Optional[Callable]  # independent reference, or None (graph family)
    source: str                # generated forward source (byte-stable per spec)
    ops_emitted: int
    #: extra input batches driving the *other* branch outcomes
    #: (control_flow family; empty elsewhere)
    alt_inputs: tuple = ()
    #: the same program's inputs under a second *signature* — another batch
    #: size where the program is batch-agnostic (module family), another
    #: dtype otherwise (graph family: its buffers pin the batch size) — for
    #: the oracle's ``recompile`` check; empty for control_flow
    other_inputs: tuple = ()


def spec_for_iteration(seed: int, i: int) -> ProgramSpec:
    """The spec the fuzz loop uses for iteration *i* of a run seeded *seed*.

    Kept here (not in the CLI) so a failure report's ``(seed, i)`` pair and
    a :class:`ProgramSpec` are interchangeable.
    """
    if i % 8 == 5:
        family = "control_flow"
    else:
        family = "module" if i % 4 == 3 else "graph"
    return ProgramSpec(seed=seed * 1_000_003 + i, family=family, n_ops=4 + (i % 9))


def generate_program(spec: ProgramSpec) -> GeneratedProgram:
    """Materialize *spec* into a runnable program."""
    # Re-seed the global RNG so parameters, buffers and example inputs are
    # a pure function of the spec.
    manual_seed(spec.seed & 0x7FFFFFFF)
    if spec.family == "graph":
        return _generate_graph_program(spec)
    if spec.family == "module":
        return _generate_module_program(spec)
    if spec.family == "control_flow":
        return _generate_control_flow_program(spec)
    raise ValueError(f"unknown program family {spec.family!r}")


# -- graph family --------------------------------------------------------------


def _rng_for(spec: ProgramSpec, label: Any) -> random.Random:
    # str seeds hash via sha512 inside Random — stable across processes,
    # unlike builtin hash() under PYTHONHASHSEED randomization.
    return random.Random(f"{spec.seed}:{label}")


def _pick(values: list, rng: random.Random):
    """Sample an operand, biased toward recent values but able to reach any
    earlier one — this is what creates shared subexpressions."""
    if rng.random() < 0.5 and len(values) > 3:
        return values[rng.randrange(len(values) - 3, len(values))]
    return values[rng.randrange(len(values))]


def _generate_graph_program(spec: ProgramSpec) -> GeneratedProgram:
    root = Module()
    g = Graph()
    rng0 = _rng_for(spec, "init")

    # (node, shape) pool; every emitted value is a candidate operand later.
    values: list[tuple[Node, tuple[int, ...]]] = []
    input_shapes: list[tuple[int, ...]] = []
    for i in range(rng0.randint(1, 3)):
        feat = rng0.choice(FEATURES)
        node = g.placeholder(f"x{i}")
        values.append((node, (BATCH, feat)))
        input_shapes.append((BATCH, feat))

    kinds = ("unary_fn", "binary_fn", "kwargs_fn", "method", "module",
             "get_attr", "cat", "chunk", "pointwise_chain", "deep_chain")
    weights = (5, 4, 2, 3, 4, 2, 2, 2, 3, 1)

    emitted = 0
    for i in range(spec.n_ops):
        if i in spec.skip:
            continue
        rng = _rng_for(spec, i)
        kind = rng.choices(kinds, weights)[0]
        emitted += _emit_op(kind, i, rng, g, root, values)

    # Output aggregate: single value, tuple, or dict.
    rng_out = _rng_for(spec, "out")
    k = min(rng_out.randint(1, 4), len(values))
    picks = [values[j][0] for j in sorted(rng_out.sample(range(len(values)), k))]
    style = rng_out.choice(("single", "tuple", "dict"))
    if style == "single" or len(picks) == 1:
        g.output(picks[0])
    elif style == "tuple":
        g.output(tuple(picks))
    else:
        g.output({f"out{j}": n for j, n in enumerate(picks)})

    gm = GraphModule(root, g, class_name="FuzzProgram")
    inputs = tuple(randn(*shape) for shape in input_shapes)
    other = tuple(x.to(float64) for x in inputs)
    return GeneratedProgram(spec, gm, inputs, None, gm.code, emitted,
                            other_inputs=other)


def _emit_op(kind: str, i: int, rng: random.Random, g: Graph, root: Module,
             values: list[tuple[Node, tuple[int, ...]]]) -> int:
    """Emit the nodes for one op slot; returns how many nodes were added."""
    v, shape = _pick(values, rng)

    if kind == "unary_fn":
        values.append((g.call_function(rng.choice(_UNARY), (v,)), shape))
        return 1

    if kind == "binary_fn":
        mates = [n for n, s in values if s == shape]
        w = mates[rng.randrange(len(mates))]    # v is one of them
        values.append((g.call_function(rng.choice(_BINARY), (v, w)), shape))
        return 1

    if kind == "kwargs_fn":
        # Discrete bound sets and a bias toward early operands make
        # same-target/same-operand/different-kwargs collisions likely —
        # the shape of bug a kwargs-blind CSE or matcher would introduce.
        if rng.random() < 0.5:
            v, shape = values[rng.randrange(min(2, len(values)))]
        spelling = rng.choice(("function", "method", "alpha"))
        if spelling == "alpha":
            node = g.call_function(F.add, (v, v), {"alpha": rng.choice((1, 2))})
        else:
            bounds = {"min": rng.choice((-1.0, -0.5, -0.25)),
                      "max": rng.choice((0.25, 0.5, 1.0))}
            node = g.call_function(F.clamp, (v,), bounds) if spelling == "function" \
                else g.call_method("clamp", (v,), bounds)
        values.append((node, shape))
        return 1

    if kind == "method":
        values.append((g.call_method(rng.choice(_METHODS), (v,)), shape))
        return 1

    if kind == "module":
        feat = shape[-1]
        which = rng.choice(("linear", "layernorm", "act"))
        if which == "linear":
            out_feat = rng.choice(FEATURES)
            mod: Module = Linear(feat, out_feat)
            new_shape = (shape[0], out_feat)
        elif which == "layernorm":
            mod = LayerNorm(feat)
            new_shape = shape
        else:
            mod = rng.choice(_ACTIVATIONS)()
            new_shape = shape
        name = f"mod{i}"
        setattr(root, name, mod)
        values.append((g.call_module(name, (v,)), new_shape))
        return 1

    if kind == "get_attr":
        feat = rng.choice(FEATURES)
        name = f"_buf{i}"
        data = np.array(
            [[rng.gauss(0.0, 1.0) for _ in range(feat)] for _ in range(BATCH)],
            dtype=np.float32,
        )
        root.register_buffer(name, Tensor(data))
        values.append((g.get_attr(name), (BATCH, feat)))
        return 1

    if kind == "cat":
        w, wshape = _pick(values, rng)
        node = g.call_function(F.cat, ([v, w],), {"dim": 1})
        values.append((node, (shape[0], shape[-1] + wshape[-1])))
        return 1

    if kind == "pointwise_chain":
        # Two fusible regions sharing a multi-use intermediate: x is a
        # 2-step pointwise region with a non-fusible first user (cat),
        # whose *last* user is a second multi-step region that reads x
        # either at its tail step (after that kernel's result buffer was
        # already written) or at its head: a kernel's result buffer must
        # never share storage with an operand a later step still reads.
        x = g.call_function(rng.choice(_UNARY), (v,))
        x = g.call_function(rng.choice(_UNARY), (x,))
        # Non-fusible earlier user keeps x out of the consuming region
        # (and out of the output alias set: cat copies).
        u = g.call_function(F.cat, ([x, x],), {"dim": 1})
        values.append((u, (shape[0], shape[-1] * 2)))
        mates = [n for n, s in values if s == shape]
        m = mates[rng.randrange(len(mates))] if mates else v
        mix = rng.choice(_BINARY)
        if rng.random() < 0.5:
            # tail read: chain over m, then fold x in at the last step.
            w = g.call_function(rng.choice(_UNARY), (m,))
            w = g.call_function(rng.choice(_UNARY), (w,))
            w = g.call_function(mix, (w, x))
        else:
            # head read: x consumed at step 0, chain continues over it.
            w = g.call_function(mix, (x, m))
            w = g.call_function(rng.choice(_UNARY), (w,))
            w = g.call_function(rng.choice(_UNARY), (w,))
        # Downstream consumer so w itself usually stays non-escaping.
        r = g.call_function(F.cat, ([w, w],), {"dim": 1})
        values.append((w, shape))
        values.append((r, (shape[0], shape[-1] * 2)))
        return 7

    if kind == "deep_chain":
        # 50+ *sequential* same-shape pointwise ops with periodically
        # saved intermediates folded back in downstream — the depth the
        # VM's flat replay loop is built for, and a register-reuse
        # stress: many short-lived values of one (shape, dtype) class plus
        # multi-use intermediates that must survive until their distant
        # last reader.
        length = 50 + rng.randrange(14)
        cur = v
        saved = [cur]
        for j in range(length):
            if j % 7 == 3 and len(saved) > 1 and rng.random() < 0.8:
                mate = saved[rng.randrange(len(saved))]
                cur = g.call_function(rng.choice(_BINARY), (cur, mate))
            else:
                cur = g.call_function(rng.choice(_UNARY), (cur,))
            if j % 5 == 1:
                saved.append(cur)
        values.append((cur, shape))
        return length

    if kind == "chunk":
        evens = [(n, s) for n, s in values if s[-1] % 2 == 0]
        if not evens:
            values.append((g.call_function(F.tanh, (v,)), shape))
            return 1
        w, wshape = evens[rng.randrange(len(evens))]
        chunk = g.call_method("chunk", (w, 2), {"dim": 1})
        piece = g.call_function(operator.getitem, (chunk, rng.randrange(2)))
        values.append((piece, (wshape[0], wshape[-1] // 2)))
        return 2

    raise AssertionError(f"unknown op kind {kind!r}")


# -- module family -------------------------------------------------------------


def _generate_module_program(spec: ProgramSpec) -> GeneratedProgram:
    rng = _rng_for(spec, "module")
    if rng.random() < 0.5:
        dims = [rng.choice((3, 4, 6, 8))]
        layers: list[Module] = []
        for j in range(rng.randint(1, max(1, min(3, spec.n_ops)))):
            out = rng.choice((3, 4, 6, 8))
            layers.append(Linear(dims[-1], out))
            layers.append(rng.choice(_ACTIVATIONS)())
            dims.append(out)
        model = Sequential(*layers)
        inputs = (randn(BATCH, dims[0]),)
    else:
        chans = [rng.choice((2, 3))]
        layers = []
        for j in range(rng.randint(1, 2)):
            out = rng.choice((2, 3, 4))
            layers.append(Conv2d(chans[-1], out, 3, padding=1))
            layers.append(BatchNorm2d(out))
            layers.append(rng.choice(_ACTIVATIONS)())
            chans.append(out)
        if rng.random() < 0.5:
            layers.append(Flatten())
            layers.append(Linear(chans[-1] * 8 * 8, rng.choice((2, 4))))
        model = Sequential(*layers)
        inputs = (randn(BATCH, chans[0], 8, 8),)
    model.eval()  # deterministic re-execution (frozen BN statistics)
    gm = symbolic_trace(model)
    other = (randn(BATCH + 1, *inputs[0].shape[1:]),)
    return GeneratedProgram(spec, gm, inputs, model, gm.code, len(layers),
                            other_inputs=other)


# -- control-flow family -------------------------------------------------------
#
# These classes live at module level (not inside the generator function) so
# their ``forward`` source is on disk — the break classifier reads the AST
# to decide between where-repair and polyvariant capture, and source-less
# closures would degrade every event to "unclassified".


class _DataIfNet(Module):
    """Data-dependent ``if`` in the where-repairable shape: both branches
    assign the same name once.  The gate reads the *input* sum, so negating
    the input drives the other branch."""

    def __init__(self, feat: int, scale: float, shift: float, act: Callable):
        super().__init__()
        self.lin = Linear(feat, feat)
        self.scale = scale
        self.shift = shift
        self.act = act

    def forward(self, x):
        gate = x.sum()
        h = self.lin(x)
        if gate > 0:
            y = h * self.scale
        else:
            y = h - self.shift
        return self.act(y)


class _ShapeIfNet(Module):
    """Shape-dependent branch with multi-statement arms — not expressible
    as a single ``where``, so capture must go polyvariant.  Parameters are
    shape ``(1,)`` and broadcast, so both widths run eagerly."""

    def __init__(self, first: Callable, second: Callable):
        super().__init__()
        self.a = Parameter(randn(1))
        self.b = Parameter(randn(1))
        self.first, self.second = first, second

    def forward(self, x):
        if x.shape[-1] >= 4:
            h = x * self.a
            h = self.first(h)
        else:
            h = x + self.b
            h = self.second(h)
        return h * 2.0


class _BoundedLoopNet(Module):
    """Fixed-trip-count loop — traces clean by unrolling; exercises
    :func:`~repro.fx.analysis.mend`'s no-break fast path.  The loop body
    is pointwise-only: reusing ``self.lin`` per step would unroll into N
    ``call_module`` sites on one submodule, which quantization's boundary
    insertion does not support."""

    def __init__(self, feat: int, steps: int, decay: float, act: Callable):
        super().__init__()
        self.lin = Linear(feat, feat)
        self.steps = steps
        self.decay = decay
        self.act = act

    def forward(self, x):
        h = self.lin(x)
        for _ in range(self.steps):
            h = self.act(h) * self.decay + h
        return h


def _generate_control_flow_program(spec: ProgramSpec) -> GeneratedProgram:
    from ..analysis.breaks import PolyvariantModule, mend

    rng = _rng_for(spec, "control_flow")
    kind = rng.choice(("data_if", "shape_if", "bounded_loop"))
    first, second = rng.choice(_UNARY), rng.choice(_UNARY)
    if kind == "data_if":
        feat = rng.choice(FEATURES)
        model = _DataIfNet(feat,
                           scale=round(rng.uniform(0.5, 1.5), 3),
                           shift=round(rng.uniform(0.1, 1.0), 3), act=first)
        x = randn(BATCH, feat)
        inputs = (x,)
        # Negating the input flips the sign of gate = x.sum(), driving the
        # branch the example trace did not take.
        alt_inputs = ((x * -1.0,),)
        ops = 5
    elif kind == "shape_if":
        model = _ShapeIfNet(first, second)
        wide = rng.choice((4, 5))
        narrow = rng.choice((2, 3))
        inputs = (randn(BATCH, wide),)
        alt_inputs = ((randn(BATCH, narrow),),)
        ops = 3
    else:
        feat = rng.choice(FEATURES)
        steps = rng.randint(2, 4)
        model = _BoundedLoopNet(feat, steps,
                                decay=round(rng.uniform(0.2, 0.8), 3), act=first)
        inputs = (randn(BATCH, feat),)
        alt_inputs = ()
        ops = 2 * steps
    model.eval()
    gm = mend(model, example_inputs=[inputs, *alt_inputs])
    if isinstance(gm, PolyvariantModule):
        source = "\n".join(
            gm.variant(i).code for i in range(gm.num_variants)
            if gm.variant(i) is not None)
    else:
        source = gm.code
    return GeneratedProgram(spec, gm, inputs, model, source, ops,
                            alt_inputs=alt_inputs)
