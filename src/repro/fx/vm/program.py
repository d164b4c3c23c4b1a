"""The flat bytecode program and its replay loop.

A :class:`VMProgram` is the executable form of a
:class:`~repro.fx.Graph`: an immutable tuple of :class:`Instruction`
records over a flat register file.  All name resolution happened at
compile time (:func:`~repro.fx.vm.compile_to_vm`) — ``get_attr`` targets
are constant registers, ``call_module`` targets are the resolved
submodule objects, fused kernels are ordinary call targets — so ``run``
is a tight loop over precompiled step closures with **zero** per-node
dict lookups, ``getattr`` calls, or Node objects.

Register discipline mirrors the generated code: every instruction writes
one register, and registers whose last reader has run are dropped
(``regs[i] = None``), so peak liveness matches codegen's ``x = None``
garbage collection.

``run`` is **reentrant**: the register file is per call and the step
closures are pure over it, so two threads may replay one shared program.

The program is picklable: only the declarative state (instructions,
register count, constants) is serialized; step closures are rebuilt on
load, exactly like
:class:`~repro.fx.passes.pointwise_fuser.FusedKernel` regenerating its
source from its spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Reg", "Instruction", "VMProgram"]


class Reg:
    """A register reference inside an instruction's argument template."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __repr__(self) -> str:
        return f"%r{self.index}"

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Reg) and other.index == self.index

    def __hash__(self) -> int:
        return hash((Reg, self.index))

    def __reduce__(self):
        return (Reg, (self.index,))


@dataclass(frozen=True)
class Instruction:
    """One step of a flat program.

    Attributes:
        kind: ``"call"`` (target is a callable: function, fused kernel, or
            resolved module) or ``"method"`` (target is a method name
            looked up on the first positional value).
        target: the callable or method name.
        args / kwargs: argument templates — :class:`Reg` markers stand in
            for runtime values; everything else (including nested
            tuple/list/dict/slice structure) is an inline constant.
        out: destination register.
        frees: registers whose last read is this instruction; cleared
            after it executes.
        name: source node name, for disassembly and error reports.
    """

    kind: str
    target: Any
    args: tuple
    kwargs: dict = field(default_factory=dict)
    out: int = 0
    frees: tuple = ()
    name: str = ""

    def format(self) -> str:
        if self.kind == "method":
            shown = f".{self.target}"
        else:
            shown = getattr(self.target, "__name__", None) or repr(self.target)
        parts = [repr(a) for a in self.args]
        parts += [f"{k}={v!r}" for k, v in self.kwargs.items()]
        line = f"%r{self.out} = {shown}({', '.join(parts)})"
        if self.frees:
            line += "  ; free " + ", ".join(f"%r{i}" for i in self.frees)
        return line


# -- template machinery ---------------------------------------------------------


def _subst(template: Any, regs: list) -> Any:
    """Instantiate an argument template against the register file."""
    t = type(template)
    if t is Reg:
        return regs[template.index]
    if t is tuple:
        return tuple(_subst(x, regs) for x in template)
    if t is list:
        return [_subst(x, regs) for x in template]
    if t is dict:
        return {k: _subst(v, regs) for k, v in template.items()}
    if t is slice:
        return slice(_subst(template.start, regs), _subst(template.stop, regs),
                     _subst(template.step, regs))
    return template


def _contains_reg(template: Any) -> bool:
    t = type(template)
    if t is Reg:
        return True
    if t is tuple or t is list:
        return any(_contains_reg(x) for x in template)
    if t is dict:
        return any(_contains_reg(v) for v in template.values())
    if t is slice:
        return (_contains_reg(template.start) or _contains_reg(template.stop)
                or _contains_reg(template.step))
    return False


def _flat_operands(args: tuple) -> Optional[list]:
    """``[(is_reg, index_or_const), ...]`` when every positional is a bare
    Reg or a reg-free constant; ``None`` when structure substitution is
    needed (a Reg nested inside an aggregate)."""
    out = []
    for a in args:
        if type(a) is Reg:
            out.append((True, a.index))
        elif _contains_reg(a):
            return None
        else:
            out.append((False, a))
    return out


def _make_step(ins: Instruction):
    """Compile one instruction into a ``step(regs)`` closure.

    Common shapes (all-register operands at small arity, constant-only
    kwargs) get dedicated closures with no per-call branching; anything
    with Regs nested in aggregates falls back to template substitution.
    """
    out = ins.out

    if ins.kind == "method":
        name = ins.target
        flat = _flat_operands(ins.args)
        if flat is not None and not any(_contains_reg(v)
                                        for v in ins.kwargs.values()):
            kw = dict(ins.kwargs)
            if not kw and all(r for r, _ in flat):
                idx = tuple(p for _, p in flat)
                if len(idx) == 1:
                    a, = idx

                    def step(regs, name=name, a=a, out=out):
                        regs[out] = getattr(regs[a], name)()
                    return step
            pos = tuple(flat)

            def step(regs, name=name, pos=pos, kw=kw, out=out):
                vals = [regs[p] if r else p for r, p in pos]
                regs[out] = getattr(vals[0], name)(*vals[1:], **kw)
            return step
        args_t, kw_t = ins.args, ins.kwargs

        def step(regs, name=name, args_t=args_t, kw_t=kw_t, out=out):
            vals = _subst(args_t, regs)
            regs[out] = getattr(vals[0], name)(*vals[1:], **_subst(kw_t, regs))
        return step

    fn = ins.target
    flat = _flat_operands(ins.args)
    if flat is not None and not any(_contains_reg(v)
                                    for v in ins.kwargs.values()):
        kw = dict(ins.kwargs)
        if all(r for r, _ in flat):
            idx = tuple(p for _, p in flat)
            if not kw:
                if len(idx) == 1:
                    a, = idx

                    def step(regs, fn=fn, a=a, out=out):
                        regs[out] = fn(regs[a])
                    return step
                if len(idx) == 2:
                    a, b = idx

                    def step(regs, fn=fn, a=a, b=b, out=out):
                        regs[out] = fn(regs[a], regs[b])
                    return step
                if len(idx) == 3:
                    a, b, c = idx

                    def step(regs, fn=fn, a=a, b=b, c=c, out=out):
                        regs[out] = fn(regs[a], regs[b], regs[c])
                    return step

                def step(regs, fn=fn, idx=idx, out=out):
                    regs[out] = fn(*[regs[i] for i in idx])
                return step
            # Constant kwargs (clamp bounds, ...).
            if len(idx) == 1:
                a, = idx

                def step(regs, fn=fn, a=a, kw=kw, out=out):
                    regs[out] = fn(regs[a], **kw)
                return step
            if len(idx) == 2:
                a, b = idx

                def step(regs, fn=fn, a=a, b=b, kw=kw, out=out):
                    regs[out] = fn(regs[a], regs[b], **kw)
                return step
        pos = tuple(flat)

        def step(regs, fn=fn, pos=pos, kw=kw, out=out):
            regs[out] = fn(*[regs[p] if r else p for r, p in pos], **kw)
        return step

    args_t, kw_t = ins.args, ins.kwargs

    def step(regs, fn=fn, args_t=args_t, kw_t=kw_t, out=out):
        regs[out] = fn(*_subst(args_t, regs), **_subst(kw_t, regs))
    return step


# -- the program ----------------------------------------------------------------


class VMProgram:
    """An immutable flat program over a preallocated register file.

    Args:
        instructions: the :class:`Instruction` stream, in execution order.
        n_regs: register-file size.
        inputs: one ``(register, name, has_default, default)`` record per
            placeholder, in placeholder order.
        output: template (Regs + constants, arbitrarily nested) for the
            return value.
        consts: ``register -> value`` for compile-time-resolved constants
            (``get_attr`` results, backend engine weights).
        name: display name.
    """

    def __init__(self, instructions, n_regs: int, inputs, output, consts,
                 name: str = "VMProgram"):
        self.instructions = tuple(instructions)
        self.n_regs = int(n_regs)
        self.inputs = tuple(tuple(spec) for spec in inputs)
        self.output = output
        self.consts = dict(consts)
        self.name = name
        self._bind()

    def _bind(self) -> None:
        """(Re)build the runtime state the pickle drops: the register-file
        template and the step closures."""
        template = [None] * self.n_regs
        for reg, value in self.consts.items():
            template[reg] = value
        self._template = template
        out = self.output
        self._out_reg = out.index if type(out) is Reg else None
        self._steps = tuple((_make_step(ins), ins.frees)
                            for ins in self.instructions)

    def _bind_args(self, args: tuple) -> list:
        inputs = self.inputs
        if len(args) > len(inputs):
            raise TypeError(
                f"{self.name} expects at most {len(inputs)} inputs, "
                f"got {len(args)}")
        regs = self._template.copy()
        for spec, value in zip(inputs, args):
            regs[spec[0]] = value
        for reg, pname, has_default, default in inputs[len(args):]:
            if not has_default:
                raise RuntimeError(
                    f"missing argument for placeholder {pname!r}")
            regs[reg] = default
        return regs

    def run(self, *args: Any) -> Any:
        """Execute the program with *args* bound to the placeholders
        (safe to call concurrently from several threads).  An instruction's
        exception propagates as raised, with a note naming the program and
        the instruction where Python keeps notes (3.11+)."""
        regs = self._bind_args(args)
        step_i = 0
        try:
            for step, frees in self._steps:
                step(regs)
                if frees:
                    for i in frees:
                        regs[i] = None
                step_i += 1
        except Exception as exc:
            if hasattr(exc, "add_note"):
                exc.add_note(f"{self.name}: instruction {step_i} "
                             f"({self.instructions[step_i].format()})")
            raise
        if self._out_reg is not None:
            return regs[self._out_reg]
        return _subst(self.output, regs)

    __call__ = run

    # -- introspection ----------------------------------------------------------

    def op_names(self) -> list[str]:
        return [ins.name for ins in self.instructions]

    def disassemble(self) -> str:
        """Human-readable instruction listing."""
        header = (f"{self.name}: {len(self.instructions)} instructions, "
                  f"{self.n_regs} registers, {len(self.consts)} constants")
        body = [f"  {i:3d}  {ins.format()}"
                for i, ins in enumerate(self.instructions)]
        return "\n".join([header] + body)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return (f"VMProgram({self.name!r}, {len(self.instructions)} "
                f"instructions, {self.n_regs} registers)")

    # -- pickling ---------------------------------------------------------------

    def __getstate__(self):
        # Declarative state only: the closures are rebuilt on load.
        return {
            "instructions": self.instructions,
            "n_regs": self.n_regs,
            "inputs": self.inputs,
            "output": self.output,
            "consts": self.consts,
            "name": self.name,
        }

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind()
