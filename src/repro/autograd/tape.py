"""Tape compiler: trace-once/replay execution for the autograd engine.

The interpreted engine (:mod:`repro.autograd.tensor`) rebuilds an
identical Python graph — one ``Tensor`` node and one backward closure
per op — on every training step.  For the full-batch ADAPT-pNC
objective the op *sequence* is a pure function of the input signature
(shapes, dtype, precision policy, backend switches), so this module
captures it once and replays it as a flat loop:

* :class:`TapeCapture` is a tracer hook (installed via
  :func:`tracing`) that records every ``Tensor._from_op`` call — op
  id, parent/output tensors, non-tensor attrs — plus the *dynamic
  leaves*: arrays that must be recomputed per replay (Monte-Carlo
  variation draws, sign masks of updated parameters), registered with
  :func:`mark_dynamic` / :func:`dynamic` together with a provider
  callable that re-derives them.
* :class:`CompiledTape` lowers a capture to slot-indexed forward and
  backward closure lists over preallocated arena buffers — no Tensor
  allocation, no graph walk, in-place ``out=`` writes for elementwise
  ops — with peephole fusion for the hot chains (affine
  ``matmul→add``, loss ``sub→square→mean`` reductions; the printed
  crossbar and ptanh arrive as single ``Function`` nodes) and
  dead-gradient elimination that
  drops VJP entries whose inputs do not require grad.
* :class:`TapeCache` keys compiled tapes by caller-built signature
  tuples; an unsupported op or a failed bit-equality self-check marks
  the signature ``FAILED`` so callers permanently fall back to the
  interpreted oracle for it.

Bit-equality contract: replaying a compiled tape produces the same
forward bits as the interpreted engine (elementwise ufuncs with
``out=`` and commutative reorders only; ops with value-dependent fast
paths, e.g. ``**``, keep their original spelling).  Every compile ends
with a self-check replay against the recorded arrays; any mismatch
raises :class:`TapeError` and the signature falls back.  Backward
replays mirror each op's interpreted VJP and are tolerance-equal (the
loss value, not the gradients, is the bit-equal oracle surface, as
with ``scan_backend``/``mc_backend``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..telemetry.gauges import Gauge, gauges
from . import tensor as _tensor
from .function import FunctionContext
from .tensor import Tensor, _unbroadcast

__all__ = [
    "TapeError",
    "TapeCapture",
    "CompiledTape",
    "TapeCache",
    "TapeCounters",
    "tape_counters",
    "tracing",
    "active_capture",
    "mark_dynamic",
    "dynamic",
]


class TapeError(RuntimeError):
    """A capture cannot be compiled or replayed faithfully.

    Raised on unsupported ops, stale detached constants, tag/provider
    mismatches and self-check failures.  Callers treat it as "fall
    back to the interpreted engine", never as a training error.
    """


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------


class TapeCounters:
    """Aggregate counters for tape capture/replay (``tape.*`` gauges).

    Mirrors :class:`repro.utils.timing.MCCounters`: each dimension is a
    :class:`repro.telemetry.Gauge` and the process-wide instance
    (:data:`tape_counters`) registers its :meth:`snapshot` in the shared
    gauge registry under ``"tape"`` so runs, ``runs show`` and the
    benches all read one sink.
    """

    def __init__(self) -> None:
        self._build = Gauge()  # "build" key; quantity = traced ops
        self._cache = Gauge()  # hit / miss / fallback keys
        self._replay = Gauge()  # forward / backward keys
        self._opt = Gauge()  # fused_ops / dead_grad_skips; quantity = count

    # -- recording ------------------------------------------------------

    def record_build(self, seconds: float, ops: int) -> None:
        """Record one trace+compile covering ``ops`` recorded ops."""
        self._build.add("build", seconds, quantity=int(ops))

    def record_cache(self, event: str) -> None:
        """Record a cache lookup outcome (``hit``/``miss``/``fallback``)."""
        self._cache.add(event, 0.0)

    def record_replay(self, phase: str, seconds: float) -> None:
        """Record one replay pass (``phase`` is forward or backward)."""
        self._replay.add(phase, seconds)

    def record_optimization(self, fused_ops: int, dead_grad_skips: int) -> None:
        """Record per-compile peephole-fusion / dead-grad statistics."""
        self._opt.add("fused_ops", 0.0, quantity=int(fused_ops))
        self._opt.add("dead_grad_skips", 0.0, quantity=int(dead_grad_skips))

    # -- aggregate views ------------------------------------------------

    @property
    def traces(self) -> int:
        """Number of captures compiled."""
        return self._build.calls("build")

    @property
    def traced_ops(self) -> int:
        """Total ops across all compiled captures."""
        return self._build.quantity("build")

    @property
    def build_seconds(self) -> float:
        """Total wall-clock spent tracing+compiling."""
        return self._build.seconds("build")

    @property
    def cache_hits(self) -> int:
        """Signature lookups served by a compiled tape."""
        return self._cache.calls("hit")

    @property
    def cache_misses(self) -> int:
        """Signature lookups that triggered a fresh trace."""
        return self._cache.calls("miss")

    @property
    def fallbacks(self) -> int:
        """Lookups (or replays) that fell back to the interpreter."""
        return self._cache.calls("fallback")

    @property
    def replays(self) -> int:
        """Forward replay passes executed."""
        return self._replay.calls("forward")

    @property
    def replay_seconds(self) -> float:
        """Total forward replay wall-clock."""
        return self._replay.seconds("forward")

    @property
    def replay_backward_seconds(self) -> float:
        """Total backward replay wall-clock."""
        return self._replay.seconds("backward")

    @property
    def fused_ops(self) -> int:
        """Peephole-fused op groups across all compiles."""
        return self._opt.quantity("fused_ops")

    @property
    def dead_grad_skips(self) -> int:
        """VJP entries eliminated because inputs need no grad."""
        return self._opt.quantity("dead_grad_skips")

    def reset(self) -> None:
        """Zero every counter (start of an experiment/benchmark)."""
        self._build.reset()
        self._cache.reset()
        self._replay.reset()
        self._opt.reset()

    def snapshot(self) -> Dict[str, object]:
        """JSON-serialisable view (flushed into run manifests/events)."""
        return {
            "traces": float(self.traces),
            "traced_ops": float(self.traced_ops),
            "build_seconds": self.build_seconds,
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "fallbacks": float(self.fallbacks),
            "replays": float(self.replays),
            "replay_seconds": self.replay_seconds,
            "replay_backward_seconds": self.replay_backward_seconds,
            "fused_ops": float(self.fused_ops),
            "dead_grad_skips": float(self.dead_grad_skips),
        }


#: Process-wide tape counters; registered as the ``"tape"`` gauge.
tape_counters = TapeCounters()
gauges.register("tape", tape_counters.snapshot)


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------


class _Record:
    """One traced ``_from_op`` call (strong refs keep arrays alive)."""

    __slots__ = ("op", "attrs", "out", "parents")

    def __init__(self, op: str, attrs: Optional[dict], out: Tensor, parents: Tuple[Tensor, ...]) -> None:
        self.op = op
        self.attrs = attrs
        self.out = out
        self.parents = parents


class TapeCapture:
    """Records one objective evaluation's op stream and dynamic leaves.

    Install with :func:`tracing`; the instance doubles as the tracer
    callable invoked by ``Tensor._from_op``.  ``input_tags`` name arrays
    that callers rebind at replay (e.g. the training batch);
    ``value_tags`` name intermediate tensors whose replayed values the
    caller wants to read back (e.g. logits for per-draw losses).
    """

    def __init__(self) -> None:
        self.records: List[_Record] = []
        self.providers: List[Tuple[Callable[[], np.ndarray], np.ndarray]] = []
        self.provider_index: Dict[int, int] = {}
        self.input_tags: Dict[str, np.ndarray] = {}
        self.value_tags: Dict[str, Tensor] = {}

    def __call__(self, out: Tensor, parents: Tuple[Tensor, ...], op: str, attrs: Optional[dict]) -> None:
        """Tracer hook: record one op."""
        self.records.append(_Record(op, attrs, out, parents))

    def add_provider(self, array: np.ndarray, provider: Callable[[], np.ndarray]) -> None:
        """Register ``array`` as dynamic, re-derived by ``provider``."""
        self.provider_index[id(array)] = len(self.providers)
        self.providers.append((provider, array))

    def tag_input(self, name: str, array: np.ndarray) -> None:
        """Name an array the caller will rebind on every replay."""
        self.input_tags[name] = np.asarray(array)

    def tag_value(self, name: str, tensor: Tensor) -> None:
        """Name a traced tensor whose replayed value is read back."""
        self.value_tags[name] = tensor


#: Capture currently recording (mirrors the installed tracer).
_active_capture: Optional[TapeCapture] = None


def active_capture() -> Optional[TapeCapture]:
    """Return the capture currently recording, if any."""
    return _active_capture


def mark_dynamic(array: np.ndarray, provider: Callable[[], np.ndarray]) -> np.ndarray:
    """Mark ``array`` as a per-replay dynamic leaf; returns it unchanged.

    No-op unless a capture is recording, so producers (variation
    samplers, crossbar sign masks) can call it unconditionally.
    ``provider`` must re-derive the array — including consuming RNG
    streams in the same order — when the tape replays.
    """
    if _active_capture is not None:
        _active_capture.add_provider(array, provider)
    return array


def dynamic(provider: Callable[[], np.ndarray]) -> np.ndarray:
    """Evaluate ``provider()`` now and mark its result dynamic."""
    return mark_dynamic(provider(), provider)


@contextmanager
def tracing(capture: TapeCapture):
    """Install ``capture`` as the engine tracer for the with-block."""
    global _active_capture
    if _tensor.get_tracer() is not None:
        raise TapeError("tape captures cannot nest")
    _tensor.set_tracer(capture)
    _active_capture = capture
    try:
        yield capture
    finally:
        _tensor.set_tracer(None)
        _active_capture = None


# ----------------------------------------------------------------------
# Compiled tape
# ----------------------------------------------------------------------

#: Ops the compiler can lower (everything else falls back).
_SUPPORTED_OPS = frozenset(
    {
        "add", "sub", "mul", "div", "neg", "pow", "matmul",
        "exp", "log", "sqrt", "tanh", "sigmoid", "relu", "abs", "clip",
        "sum", "mean", "max", "reshape", "swapaxes", "transpose",
        "getitem", "stack", "concat", "detach_max",
    }
)

_BINARY_UFUNCS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
}

_UNARY_UFUNCS = {
    "neg": np.negative,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "abs": np.abs,
}


class _Node:
    """One compiled step: a single op or a peephole-fused group."""

    __slots__ = (
        "op", "attrs", "out", "ins", "out_shape", "out_dtype",
        "in_shapes", "in_dtypes", "needs", "run_backward", "ctx",
        "extra", "check_slots", "scan_saved", "scan_backward",
    )

    def __init__(self, op: str, attrs: Optional[dict], out: int, ins: Tuple[int, ...],
                 out_shape: Tuple[int, ...], out_dtype, in_shapes, in_dtypes) -> None:
        self.op = op
        self.attrs = attrs
        self.out = out
        self.ins = ins
        self.out_shape = out_shape
        self.out_dtype = out_dtype
        self.in_shapes = in_shapes
        self.in_dtypes = in_dtypes
        self.needs: Tuple[bool, ...] = ()
        self.run_backward = False
        self.ctx: Optional[FunctionContext] = None
        self.extra: Optional[dict] = None
        self.check_slots: Tuple[int, ...] = (out,)
        #: Saved forward values / specialized adjoint of the dedicated
        #: FilterScan replay kernel (None for every other op).
        self.scan_saved = None
        self.scan_backward: Optional[Callable[[], None]] = None


class CompiledTape:
    """A capture lowered to flat forward/backward closure lists.

    Slots are SSA: every traced tensor maps to one index in the value
    table ``_vals``; each is written exactly once per replay, so the
    peephole scheduler may sink fused producers to their consumer's
    position without hazards.  Elementwise outputs write into arena
    buffers allocated once at compile; view ops and reductions allocate
    fresh (matching the interpreted engine's arithmetic exactly).
    """

    def __init__(self, capture: TapeCapture, output: Tensor) -> None:
        start = time.perf_counter()
        self._capture = capture
        self._build(capture, output)
        self._self_check()
        tape_counters.record_build(time.perf_counter() - start, len(capture.records))

    # -- compilation ----------------------------------------------------

    def _build(self, capture: TapeCapture, output: Tensor) -> None:
        if not capture.records:
            raise TapeError("empty capture: no ops were traced")

        slot_of: Dict[int, int] = {}
        recorded: List[np.ndarray] = []
        req: List[bool] = []
        # (slot, kind, payload, leaf_tensor); kind in static/provider/input
        leaves: List[Tuple[int, str, object, Tensor]] = []
        produced_data: Dict[int, int] = {}
        nodes: List[_Node] = []
        input_tag_ids = {id(arr): name for name, arr in capture.input_tags.items()}

        def new_slot(tensor: Tensor) -> int:
            slot = len(recorded)
            slot_of[id(tensor)] = slot
            recorded.append(tensor.data)
            req.append(tensor.requires_grad)
            return slot

        for rec in capture.records:
            for p in rec.parents:
                if id(p) in slot_of:
                    continue
                slot = new_slot(p)
                did = id(p.data)
                if did in capture.provider_index:
                    leaves.append((slot, "provider", capture.provider_index[did], p))
                elif did in input_tag_ids:
                    leaves.append((slot, "input", input_tag_ids[did], p))
                elif did in produced_data:
                    raise TapeError(
                        f"leaf aliases the output of traced op "
                        f"#{produced_data[did]} (stale detached constant)"
                    )
                else:
                    leaves.append((slot, "static", None, p))
            if id(rec.out) in slot_of:
                raise TapeError(f"tensor produced twice (op {rec.op!r})")
            if rec.attrs is not None and "function" in rec.attrs:
                pass  # generic Function op, always lowerable
            elif rec.op not in _SUPPORTED_OPS:
                raise TapeError(f"unsupported op {rec.op!r}")
            out_slot = new_slot(rec.out)
            produced_data[id(rec.out.data)] = out_slot
            nodes.append(
                _Node(
                    rec.op,
                    rec.attrs,
                    out_slot,
                    tuple(slot_of[id(p)] for p in rec.parents),
                    rec.out.data.shape,
                    rec.out.data.dtype,
                    tuple(p.data.shape for p in rec.parents),
                    tuple(p.data.dtype for p in rec.parents),
                )
            )

        if id(output) not in slot_of:
            raise TapeError("output tensor was not produced under this capture")
        self._out_slot = slot_of[id(output)]
        self._recorded = recorded
        self._req = req
        self._leaves = leaves
        self._providers = capture.providers
        self._value_slots: Dict[str, int] = {}
        for name, tensor in capture.value_tags.items():
            if id(tensor) not in slot_of:
                raise TapeError(f"value tag {name!r} was not traced")
            self._value_slots[name] = slot_of[id(tensor)]

        protected = {self._out_slot} | set(self._value_slots.values())
        bw_rank = self._interpreted_backward_order(nodes, req)
        nodes, fused = self._fuse(nodes, protected)
        self._nodes = nodes

        dead_skips = self._mark_backward(nodes)
        tape_counters.record_optimization(fused, dead_skips)

        self._vals: List[np.ndarray] = list(recorded)
        self._static_leaves = [(s, t) for s, kind, _p, t in leaves if kind == "static"]
        self._provider_slots = [(s, p) for s, kind, p, _t in leaves if kind == "provider"]
        self._input_slots = [(s, p) for s, kind, p, _t in leaves if kind == "input"]
        self.grad_leaves = [
            (s, t) for s, _kind, _p, t in leaves if t.requires_grad
        ]

        # Grad arenas for every slot a backward step may touch.
        self._gbuf: Dict[int, np.ndarray] = {}
        grad_slots = {self._out_slot}
        for node in nodes:
            if node.run_backward:
                grad_slots.add(node.out)
                for s, need in zip(node.ins, node.needs):
                    if need:
                        grad_slots.add(s)
        for s in grad_slots:
            self._gbuf[s] = np.empty(recorded[s].shape, dtype=recorded[s].dtype)
        self._gset = bytearray(len(recorded))

        self._forward_steps = [self._compile_forward(n) for n in nodes]
        # Backward steps fire in the interpreted engine's reverse-topo
        # processing order (not reverse forward order): when a slot has
        # many consumers — the scan coefficient feeding every timestep —
        # float accumulation order decides the last ulp, and the oracle
        # contract demands bit-equality under float64.
        bw_nodes = sorted(
            (n for n in nodes if n.run_backward),
            key=lambda n: bw_rank.get(n.out, len(bw_rank)),
        )
        self._backward_steps = [self._compile_backward(n) for n in bw_nodes]

    def _fuse(self, nodes: List[_Node], protected: set) -> Tuple[List[_Node], int]:
        """Peephole pass: collapse hot chains into single fused steps.

        Patterns (producers sink to the consumer's position — safe
        because slots are SSA and interior outputs are single-consumer):

        * ``matmul → add``  (an affine layer's weight product + bias add)
        * ``sub → square → mean``  (MSE-style loss reduction; square is
          ``mul(d, d)`` or ``pow 2``)
        """
        producer: Dict[int, int] = {n.out: i for i, n in enumerate(nodes)}
        uses: Dict[int, int] = {}
        consumers: Dict[int, List[int]] = {}
        for i, n in enumerate(nodes):
            for s in n.ins:
                uses[s] = uses.get(s, 0) + 1
                consumers.setdefault(s, []).append(i)
        removed = [False] * len(nodes)
        fused = 0

        def interior(slot: int, expected_uses: int = 1) -> bool:
            return uses.get(slot, 0) == expected_uses and slot not in protected

        def live(idx: Optional[int], op: str) -> bool:
            return idx is not None and not removed[idx] and nodes[idx].op == op

        # --- crossbar product: matmul -> add --------------------------
        for j, addn in enumerate(nodes):
            if addn.op != "add" or removed[j]:
                continue
            for side in (0, 1):
                s_m = addn.ins[side]
                i_mm = producer.get(s_m)
                if not live(i_mm, "matmul") or not interior(s_m):
                    continue
                mm = nodes[i_mm]
                if len(mm.in_shapes[0]) < 2 or len(mm.in_shapes[1]) < 2:
                    continue  # 1-D matmul VJPs special-case; keep unfused
                c = addn.ins[1 - side]
                fnode = _Node(
                    "fused_matmul_add", None, addn.out,
                    (mm.ins[0], mm.ins[1], c),
                    addn.out_shape, addn.out_dtype,
                    (mm.in_shapes[0], mm.in_shapes[1], self._shape_of(addn, c)),
                    (mm.in_dtypes[0], mm.in_dtypes[1], self._dtype_of(addn, c)),
                )
                fnode.extra = {"mm": mm, "add": addn, "m_slot": s_m, "m_side": side}
                fnode.check_slots = (s_m, addn.out)
                removed[i_mm] = True
                nodes[j] = fnode
                fused += 1
                break

        # --- loss reduction: sub -> square -> mean --------------------
        for j, mn in enumerate(nodes):
            if mn.op != "mean" or removed[j]:
                continue
            sq = mn.ins[0]
            i_sq = producer.get(sq)
            if i_sq is None or removed[i_sq] or not interior(sq):
                continue
            sqn = nodes[i_sq]
            if sqn.op == "mul" and sqn.ins[0] == sqn.ins[1]:
                kind, d_uses = "mul", 2
            elif sqn.op == "pow" and sqn.attrs and sqn.attrs.get("exponent") == 2.0:
                kind, d_uses = "pow", 1
            else:
                continue
            d = sqn.ins[0]
            i_sub = producer.get(d)
            if not live(i_sub, "sub") or not interior(d, expected_uses=d_uses):
                continue
            sub = nodes[i_sub]
            fnode = _Node(
                "fused_mse", mn.attrs, mn.out, sub.ins,
                mn.out_shape, mn.out_dtype, sub.in_shapes, sub.in_dtypes,
            )
            fnode.extra = {"sub": sub, "sq": sqn, "mean": mn, "kind": kind,
                           "d": d, "sq_slot": sq}
            fnode.check_slots = (d, sq, mn.out)
            removed[i_sub] = True
            removed[i_sq] = True
            nodes[j] = fnode
            fused += 1

        return [n for i, n in enumerate(nodes) if not removed[i]], fused

    @staticmethod
    def _shape_of(node: _Node, slot: int) -> Tuple[int, ...]:
        return node.in_shapes[node.ins.index(slot)]

    @staticmethod
    def _dtype_of(node: _Node, slot: int):
        return node.in_dtypes[node.ins.index(slot)]

    def _interpreted_backward_order(
        self, nodes: List[_Node], req: List[bool]
    ) -> Dict[int, int]:
        """Processing rank per out-slot matching ``Tensor.backward``.

        Simulates the interpreted engine's iterative DFS over the
        pre-fusion graph — same stack discipline, same grad-bearing
        parent pruning — so a tape replay accumulates multi-consumer
        gradients in the identical order and stays bit-equal even where
        float addition is non-associative.
        """
        producer: Dict[int, _Node] = {n.out: n for n in nodes}
        topo: List[int] = []
        visited: set = set()
        stack: List[Tuple[int, bool]] = [(self._out_slot, False)]
        while stack:
            slot, processed = stack.pop()
            if processed:
                topo.append(slot)
                continue
            if slot in visited:
                continue
            visited.add(slot)
            stack.append((slot, True))
            node = producer.get(slot)
            if node is not None:
                for s in node.ins:
                    if req[s] and s not in visited:
                        stack.append((s, False))
        return {slot: i for i, slot in enumerate(reversed(topo))}

    def _mark_backward(self, nodes: List[_Node]) -> int:
        """Dead-gradient elimination: keep only loss-relevant VJPs.

        A node's backward runs iff its output both requires grad (the
        interpreted engine's differentiability) and is reachable from
        the tape output along grad-bearing edges.  Returns the number
        of per-input VJP computations eliminated.
        """
        req = self._req
        relevant = {self._out_slot}
        skips = 0
        for node in reversed(nodes):
            node.needs = tuple(req[s] for s in node.ins)
            node.run_backward = node.out in relevant and req[node.out]
            if node.run_backward:
                for s, need in zip(node.ins, node.needs):
                    if need:
                        relevant.add(s)
                    else:
                        skips += 1
            elif req[node.out]:
                skips += len(node.ins)
        return skips

    # -- forward kernels ------------------------------------------------

    def _arena(self, node: _Node) -> np.ndarray:
        return np.empty(node.out_shape, dtype=node.out_dtype)

    def _compile_forward(self, node: _Node) -> Callable[[], None]:
        """Lower one node to a closure over the value table.

        Elementwise ops write into a preallocated arena via ``out=``
        (bit-equal to fresh allocation); ops with value-dependent numpy
        fast paths (``**``) or shape-changing outputs keep the
        interpreted spelling and allocate fresh.
        """
        vals = self._vals
        op, o, ins, attrs = node.op, node.out, node.ins, node.attrs

        if attrs is not None and "function" in attrs:
            cls, kwargs, needs = attrs["function"], attrs["kwargs"], node.needs
            if cls.__name__ == "FilterScan" and not kwargs:
                kernel = self._compile_filter_scan(node)
                if kernel is not None:
                    return kernel

            def run_function(node=node, cls=cls, kwargs=kwargs, needs=needs, ins=ins, o=o):
                ctx = FunctionContext()
                ctx.needs_input_grad = needs
                vals[o] = np.asarray(cls.forward(ctx, *(vals[s] for s in ins), **kwargs))
                node.ctx = ctx

            return run_function

        if op in _BINARY_UFUNCS:
            ufunc, buf, (a, b) = _BINARY_UFUNCS[op], self._arena(node), ins

            def run_binary(ufunc=ufunc, a=a, b=b, o=o, buf=buf):
                ufunc(vals[a], vals[b], out=buf)
                vals[o] = buf

            return run_binary

        if op in _UNARY_UFUNCS:
            ufunc, buf, a = _UNARY_UFUNCS[op], self._arena(node), ins[0]

            def run_unary(ufunc=ufunc, a=a, o=o, buf=buf):
                ufunc(vals[a], out=buf)
                vals[o] = buf

            return run_unary

        if op == "sigmoid":
            buf, a = self._arena(node), ins[0]

            def run_sigmoid(a=a, o=o, buf=buf):
                # 1 / (1 + exp(-x)), all in one arena (elementwise
                # same-index reads make in-place chaining safe).
                np.negative(vals[a], out=buf)
                np.exp(buf, out=buf)
                np.add(buf, 1.0, out=buf)
                np.divide(1.0, buf, out=buf)
                vals[o] = buf

            return run_sigmoid

        if op == "relu":
            buf, a = self._arena(node), ins[0]

            def run_relu(a=a, o=o, buf=buf):
                v = vals[a]
                np.multiply(v, v > 0, out=buf)
                vals[o] = buf

            return run_relu

        if op == "clip":
            buf, a = self._arena(node), ins[0]
            low, high = attrs["low"], attrs["high"]

            def run_clip(a=a, o=o, buf=buf, low=low, high=high):
                np.clip(vals[a], low, high, out=buf)
                vals[o] = buf

            return run_clip

        if op == "pow":
            a, exponent = ins[0], attrs["exponent"]

            def run_pow(a=a, o=o, exponent=exponent):
                # Keep the operator form: numpy routes small scalar
                # exponents through square/sqrt fast paths that
                # np.power(..., out=) would not reproduce bit-exactly.
                vals[o] = vals[a] ** exponent

            return run_pow

        if op == "matmul":
            a, b = ins

            def run_matmul(a=a, b=b, o=o):
                vals[o] = vals[a] @ vals[b]

            return run_matmul

        if op in ("sum", "mean", "max"):
            a = ins[0]
            axis, keepdims = attrs["axis"], attrs["keepdims"]
            method = {"sum": "sum", "mean": "mean", "max": "max"}[op]

            def run_reduce(a=a, o=o, axis=axis, keepdims=keepdims, method=method):
                vals[o] = np.asarray(getattr(vals[a], method)(axis=axis, keepdims=keepdims))

            return run_reduce

        if op == "detach_max":
            a, axis = ins[0], attrs["axis"]

            def run_detach_max(a=a, o=o, axis=axis):
                vals[o] = np.asarray(vals[a].max(axis=axis, keepdims=True))

            return run_detach_max

        if op == "reshape":
            a, shape = ins[0], attrs["shape"]

            def run_reshape(a=a, o=o, shape=shape):
                vals[o] = vals[a].reshape(shape)

            return run_reshape

        if op == "swapaxes":
            a, ax1, ax2 = ins[0], attrs["axis1"], attrs["axis2"]

            def run_swapaxes(a=a, o=o, ax1=ax1, ax2=ax2):
                vals[o] = np.swapaxes(vals[a], ax1, ax2)

            return run_swapaxes

        if op == "transpose":
            a, axes = ins[0], attrs["axes"]

            def run_transpose(a=a, o=o, axes=axes):
                vals[o] = vals[a].transpose(axes)

            return run_transpose

        if op == "getitem":
            a, index = ins[0], attrs["index"]

            def run_getitem(a=a, o=o, index=index):
                vals[o] = np.asarray(vals[a][index])

            return run_getitem

        if op == "stack":
            buf, axis = self._arena(node), attrs["axis"]

            def run_stack(ins=ins, o=o, axis=axis, buf=buf):
                np.stack([vals[s] for s in ins], axis=axis, out=buf)
                vals[o] = buf

            return run_stack

        if op == "concat":
            buf, axis = self._arena(node), attrs["axis"]

            def run_concat(ins=ins, o=o, axis=axis, buf=buf):
                np.concatenate([vals[s] for s in ins], axis=axis, out=buf)
                vals[o] = buf

            return run_concat

        if op == "fused_matmul_add":
            x = node.extra
            mm, m_side = x["mm"], x["m_side"]
            mbuf = np.empty(mm.out_shape, dtype=mm.out_dtype)
            obuf = self._arena(node)
            a, b, c = ins
            m_slot = x["m_slot"]

            def run_matmul_add(a=a, b=b, c=c, o=o, m_slot=m_slot, m_side=m_side, mbuf=mbuf, obuf=obuf):
                np.matmul(vals[a], vals[b], out=mbuf)
                vals[m_slot] = mbuf
                if m_side == 0:
                    np.add(mbuf, vals[c], out=obuf)
                else:
                    np.add(vals[c], mbuf, out=obuf)
                vals[o] = obuf

            return run_matmul_add

        if op == "fused_mse":
            x = node.extra
            sub, sqn, mn, kind = x["sub"], x["sq"], x["mean"], x["kind"]
            d, sq_slot = x["d"], x["sq_slot"]
            dbuf = np.empty(sub.out_shape, dtype=sub.out_dtype)
            axis, keepdims = mn.attrs["axis"], mn.attrs["keepdims"]

            def run_mse(sub=sub, d=d, sq_slot=sq_slot, o=o, kind=kind,
                        dbuf=dbuf, axis=axis, keepdims=keepdims):
                np.subtract(vals[sub.ins[0]], vals[sub.ins[1]], out=dbuf)
                vals[d] = dbuf
                if kind == "mul":
                    vals[sq_slot] = dbuf * dbuf
                else:
                    vals[sq_slot] = dbuf ** 2.0
                vals[o] = np.asarray(vals[sq_slot].mean(axis=axis, keepdims=keepdims))

            return run_mse

        raise TapeError(f"no forward kernel for op {op!r}")

    def _compile_filter_scan(self, node: _Node) -> Optional[Callable[[], None]]:
        """Specialized FilterScan replay pair (forward + adjoint).

        Re-implements :class:`~repro.autograd.function.FilterScan` with
        every shape-derived decision (time-major permutation, broadcast
        shapes, densification, the caller-facing moveaxis view) resolved
        at compile time and every buffer (state table, densified
        coefficient, scratch) preallocated as a tape arena.  The numpy
        call sequence is identical to the generic kernel, so replays
        stay bit-equal — and the compile-time self-check enforces that
        before the tape is trusted.  Returns ``None`` when the call
        doesn't match the layout this kernel assumes (mixed dtypes,
        unexpected coefficient rank); the generic ``run_function`` path
        then handles it.
        """
        vals, gbuf, gset, acc = self._vals, self._gbuf, self._gset, self._acc
        o, ins = node.out, node.ins
        x_shape, a_shape, b_shape, v0_shape = node.in_shapes
        dtype = node.out_dtype
        if any(dt != dtype for dt in node.in_dtypes):
            return None
        if len(a_shape) == 2:
            if len(b_shape) != 2:
                return None
            a_e_shape = (a_shape[0], 1, a_shape[1])
            b_e_shape = (b_shape[0], 1, b_shape[1])
        else:
            a_e_shape, b_e_shape = a_shape, b_shape
        steps = x_shape[-2]
        step_shape = np.broadcast_shapes(
            a_e_shape, b_e_shape, v0_shape, x_shape[:-2] + x_shape[-1:]
        )
        x_nd = len(x_shape)
        # moveaxis(x, -2, 0) as a precomputed transpose permutation.
        perm = (x_nd - 2,) + tuple(i for i in range(x_nd) if i != x_nd - 2)
        x_tm_shape = (x_shape[-2],) + x_shape[:-2] + x_shape[-1:]
        pad = 1 + len(step_shape) - len(x_tm_shape)
        x_tm_e_shape = (
            x_tm_shape[:1] + (1,) * pad + x_tm_shape[1:] if pad > 0 else x_tm_shape
        )
        densify_a = a_e_shape != step_shape
        out_shape = node.out_shape
        out_nd = len(out_shape)
        gperm = (out_nd - 2,) + tuple(i for i in range(out_nd) if i != out_nd - 2)

        buf = np.empty((steps,) + step_shape, dtype=dtype)
        out_view = np.moveaxis(buf, 0, -2)
        tmp = np.empty(step_shape, dtype=dtype)
        a_d_buf = np.empty(step_shape, dtype=dtype) if densify_a else None
        x_cbuf = np.empty(x_tm_shape, dtype=dtype)
        xi, ai, bi, vi = ins
        b_lead_shape = (1,) + b_e_shape

        def run_filter_scan():
            xv = vals[xi]
            x_tm = xv.transpose(perm)
            if not x_tm.flags.c_contiguous:
                np.copyto(x_cbuf, x_tm)
                x_tm = x_cbuf
            x_tm_e = x_tm.reshape(x_tm_e_shape)
            av, bv, v0v = vals[ai], vals[bi], vals[vi]
            a_e = av.reshape(a_e_shape)
            np.multiply(bv.reshape(b_lead_shape), x_tm_e, out=buf)
            if densify_a:
                np.copyto(a_d_buf, a_e)
                a_d = a_d_buf
            else:
                a_d = a_e
            v = v0v
            for k in range(steps):
                vk = buf[k]
                np.multiply(a_d, v, out=tmp)
                vk += tmp
                v = vk
            node.scan_saved = (x_tm_e, av, v0v)
            vals[o] = out_view

        need_x, need_a, need_b, need_v0 = node.needs
        G = np.empty((steps,) + step_shape, dtype=dtype)
        gtm_buf = np.empty((steps,) + step_shape, dtype=dtype)
        gx_buf = np.empty((steps,) + step_shape, dtype=dtype) if need_x else None
        gx_view = np.moveaxis(gx_buf, 0, -2) if need_x else None
        x_bcast = x_tm_e_shape[1:] != x_shape[:-2] + x_shape[-1:] or pad > 0

        def back_filter_scan():
            if not gset[o]:
                return
            x_tm_e, av, v0v = node.scan_saved
            a_e = av.reshape(a_e_shape)
            bv = vals[bi]
            gt = gbuf[o].transpose(gperm)
            if gt.flags.c_contiguous:
                grad_tm = gt
            else:
                np.copyto(gtm_buf, gt)
                grad_tm = gtm_buf
            a_d = a_d_buf if densify_a else a_e
            g = np.zeros(step_shape, dtype=dtype)
            for k in range(steps - 1, -1, -1):
                np.multiply(a_d, g, out=tmp)
                g = G[k]
                np.add(grad_tm[k], tmp, out=g)
            if need_x:
                np.multiply(bv.reshape(b_lead_shape), G, out=gx_buf)
                gx = gx_view if not x_bcast else _unbroadcast(gx_view, x_shape)
                acc(xi, gx)
            if need_a:
                ga = np.einsum("k...,k...->...", G[1:], buf[:-1]) + G[0] * v0v
                acc(ai, _unbroadcast(ga, a_e_shape).reshape(a_shape))
            if need_b:
                gb = np.einsum("k...,k...->...", G, x_tm_e)
                acc(bi, _unbroadcast(gb, b_e_shape).reshape(b_shape))
            if need_v0:
                acc(vi, _unbroadcast(a_e * G[0], v0_shape))

        node.scan_backward = back_filter_scan
        return run_filter_scan

    # -- backward kernels -----------------------------------------------

    def _acc(self, slot: int, g: np.ndarray) -> None:
        """Accumulate ``g`` into the slot's grad arena.

        Copy-on-first-write: VJPs may return views of (or aliases into)
        other gradients — e.g. ``_unbroadcast`` returns its argument
        unchanged when shapes match — so the first accumulation copies
        into the arena exactly like the interpreted
        ``_accumulate_grad``.
        """
        if self._gset[slot]:
            self._gbuf[slot] += g
        else:
            np.copyto(self._gbuf[slot], g)
            self._gset[slot] = 1

    def _compile_backward(self, node: _Node) -> Callable[[], None]:
        """Lower one node's VJP, mirroring the interpreted closures."""
        vals, gbuf, gset, acc = self._vals, self._gbuf, self._gset, self._acc
        op, o, ins, needs, attrs = node.op, node.out, node.ins, node.needs, node.attrs

        if attrs is not None and "function" in attrs:
            if node.scan_backward is not None:
                return node.scan_backward
            cls = attrs["function"]

            def back_function(node=node, cls=cls, ins=ins, needs=needs, o=o,
                              shapes=node.in_shapes, dtypes=node.in_dtypes):
                if not gset[o]:
                    return
                grads = cls.backward(node.ctx, gbuf[o])
                for s, need, g, shape, dtype in zip(ins, needs, grads, shapes, dtypes):
                    if need and g is not None:
                        acc(s, _unbroadcast(np.asarray(g, dtype=dtype), shape))

            return back_function

        a = ins[0]
        sa = node.in_shapes[0]
        # Shapes and dtypes are static per tape, so broadcast reductions
        # and safe in-place destinations are decided here, not per
        # replay.  A first-touch slot of matching shape/dtype receives
        # the VJP product straight from the ufunc (``out=`` writes the
        # identical bits the temp-then-copy interpreted path produces,
        # given equal dtypes) — one allocation and one memory pass saved
        # on almost every step, since SSA slots have a single consumer.
        out_shape, out_dtype = node.out_shape, node.out_dtype

        def _same(i: int) -> bool:
            return (
                node.in_shapes[i] == out_shape
                and node.in_dtypes[i] == out_dtype
            )

        if op in ("add", "sub"):
            b, sb = ins[1], node.in_shapes[1]
            negate = op == "sub"
            same_a, same_b = sa == out_shape, sb == out_shape

            def back_addsub(a=a, b=b, o=o, sa=sa, sb=sb, needs=needs,
                            negate=negate, same_a=same_a, same_b=same_b):
                if not gset[o]:
                    return
                g = gbuf[o]
                if needs[0]:
                    acc(a, g if same_a else _unbroadcast(g, sa))
                if needs[1]:
                    if not negate:
                        acc(b, g if same_b else _unbroadcast(g, sb))
                    elif same_b and not gset[b]:
                        np.negative(g, out=gbuf[b])
                        gset[b] = 1
                    else:
                        acc(b, _unbroadcast(-g, sb))

            return back_addsub

        if op == "mul":
            b, sb = ins[1], node.in_shapes[1]
            uniform = _same(0) and node.in_dtypes[1] == out_dtype
            same_a, same_b = sa == out_shape, sb == out_shape

            def back_mul(a=a, b=b, o=o, sa=sa, sb=sb, needs=needs,
                         uniform=uniform, same_a=same_a, same_b=same_b):
                if not gset[o]:
                    return
                g = gbuf[o]
                if needs[0]:
                    if uniform and same_a and not gset[a]:
                        np.multiply(g, vals[b], out=gbuf[a])
                        gset[a] = 1
                    else:
                        acc(a, _unbroadcast(g * vals[b], sa))
                if needs[1]:
                    if uniform and same_b and not gset[b]:
                        np.multiply(g, vals[a], out=gbuf[b])
                        gset[b] = 1
                    else:
                        acc(b, _unbroadcast(g * vals[a], sb))

            return back_mul

        if op == "div":
            b, sb = ins[1], node.in_shapes[1]
            uniform = _same(0) and node.in_dtypes[1] == out_dtype
            same_a = sa == out_shape

            def back_div(a=a, b=b, o=o, sa=sa, sb=sb, needs=needs,
                         uniform=uniform, same_a=same_a):
                if not gset[o]:
                    return
                g = gbuf[o]
                if needs[0]:
                    if uniform and same_a and not gset[a]:
                        np.divide(g, vals[b], out=gbuf[a])
                        gset[a] = 1
                    else:
                        acc(a, _unbroadcast(g / vals[b], sa))
                if needs[1]:
                    acc(b, _unbroadcast(-g * vals[a] / vals[b] ** 2, sb))

            return back_div

        if op == "neg":

            def back_neg(a=a, o=o):
                if gset[o]:
                    acc(a, -gbuf[o])

            return back_neg

        if op == "pow":
            exponent = attrs["exponent"]

            def back_pow(a=a, o=o, exponent=exponent):
                if gset[o]:
                    acc(a, gbuf[o] * exponent * vals[a] ** (exponent - 1.0))

            return back_pow

        if op == "matmul":
            b, sb = ins[1], node.in_shapes[1]
            a_nd, b_nd = len(sa), len(sb)

            def back_matmul(a=a, b=b, o=o, sa=sa, sb=sb, needs=needs, a_nd=a_nd, b_nd=b_nd):
                if not gset[o]:
                    return
                g = gbuf[o]
                va, vb = vals[a], vals[b]
                if needs[0]:
                    if b_nd == 1:
                        ga = np.multiply.outer(g, vb) if g.ndim else g * vb
                        acc(a, _unbroadcast(np.asarray(ga), sa))
                    else:
                        acc(a, _unbroadcast(g @ np.swapaxes(vb, -1, -2), sa))
                if needs[1]:
                    if a_nd == 1:
                        gb = np.multiply.outer(va, g) if g.ndim else va * g
                        acc(b, _unbroadcast(np.asarray(gb), sb))
                    elif b_nd == 1:
                        gb = np.swapaxes(va, -1, -2) @ g[..., None]
                        acc(b, _unbroadcast(gb[..., 0], sb))
                    else:
                        acc(b, _unbroadcast(np.swapaxes(va, -1, -2) @ g, sb))

            return back_matmul

        if op == "exp":

            def back_exp(a=a, o=o):
                if gset[o]:
                    acc(a, gbuf[o] * vals[o])

            return back_exp

        if op == "log":

            def back_log(a=a, o=o):
                if gset[o]:
                    acc(a, gbuf[o] / vals[a])

            return back_log

        if op == "sqrt":

            def back_sqrt(a=a, o=o):
                if gset[o]:
                    acc(a, gbuf[o] * 0.5 / vals[o])

            return back_sqrt

        if op == "tanh":

            def back_tanh(a=a, o=o):
                if gset[o]:
                    acc(a, gbuf[o] * (1.0 - vals[o] ** 2))

            return back_tanh

        if op == "sigmoid":

            def back_sigmoid(a=a, o=o):
                if gset[o]:
                    acc(a, gbuf[o] * vals[o] * (1.0 - vals[o]))

            return back_sigmoid

        if op == "relu":

            def back_relu(a=a, o=o):
                if gset[o]:
                    acc(a, gbuf[o] * (vals[a] > 0))

            return back_relu

        if op == "abs":

            def back_abs(a=a, o=o):
                if gset[o]:
                    acc(a, gbuf[o] * np.sign(vals[a]))

            return back_abs

        if op == "clip":
            low, high = attrs["low"], attrs["high"]

            def back_clip(a=a, o=o, low=low, high=high):
                if gset[o]:
                    v = vals[a]
                    acc(a, gbuf[o] * ((v >= low) & (v <= high)))

            return back_clip

        if op == "sum":
            axis, keepdims = attrs["axis"], attrs["keepdims"]
            dtype = node.in_dtypes[0]

            def back_sum(a=a, o=o, sa=sa, axis=axis, keepdims=keepdims, dtype=dtype):
                if not gset[o]:
                    return
                g = gbuf[o]
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                acc(a, np.broadcast_to(g, sa).astype(dtype))

            return back_sum

        if op == "mean":
            axis, keepdims = attrs["axis"], attrs["keepdims"]
            dtype = node.in_dtypes[0]
            if axis is None:
                count = int(np.prod(sa)) if sa else 1
            elif isinstance(axis, tuple):
                count = int(np.prod([sa[ax] for ax in axis]))
            else:
                count = sa[axis]

            def back_mean(a=a, o=o, sa=sa, axis=axis, keepdims=keepdims, dtype=dtype, count=count):
                if not gset[o]:
                    return
                g = gbuf[o] / count
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                acc(a, np.broadcast_to(np.asarray(g, dtype=dtype), sa))

            return back_mean

        if op == "max":
            axis, keepdims = attrs["axis"], attrs["keepdims"]
            dtype = node.in_dtypes[0]

            def back_max(a=a, o=o, axis=axis, keepdims=keepdims, dtype=dtype):
                if not gset[o]:
                    return
                g, d = gbuf[o], vals[o]
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                    d = np.expand_dims(d, axis=axis)
                mask = (vals[a] == d).astype(dtype)
                mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
                acc(a, mask * g)

            return back_max

        if op == "reshape":

            def back_reshape(a=a, o=o, sa=sa):
                if gset[o]:
                    acc(a, gbuf[o].reshape(sa))

            return back_reshape

        if op == "swapaxes":
            ax1, ax2 = attrs["axis1"], attrs["axis2"]

            def back_swapaxes(a=a, o=o, ax1=ax1, ax2=ax2):
                if gset[o]:
                    acc(a, np.swapaxes(gbuf[o], ax1, ax2))

            return back_swapaxes

        if op == "transpose":
            axes = attrs["axes"]
            inverse = None if axes is None else np.argsort(axes)

            def back_transpose(a=a, o=o, inverse=inverse):
                if gset[o]:
                    g = gbuf[o]
                    acc(a, g.transpose() if inverse is None else g.transpose(inverse))

            return back_transpose

        if op == "getitem":
            index, basic = attrs["index"], attrs["basic"]

            def back_getitem(a=a, o=o, index=index, basic=basic):
                if not gset[o]:
                    return
                full = np.zeros_like(vals[a])
                if basic:
                    full[index] += gbuf[o]
                else:
                    np.add.at(full, index, gbuf[o])
                acc(a, full)

            return back_getitem

        if op == "stack":
            axis = attrs["axis"]

            def back_stack(ins=ins, o=o, axis=axis, needs=needs):
                if not gset[o]:
                    return
                pieces = np.split(gbuf[o], len(ins), axis=axis)
                for s, need, piece in zip(ins, needs, pieces):
                    if need:
                        acc(s, np.squeeze(piece, axis=axis))

            return back_stack

        if op == "concat":
            axis = attrs["axis"]
            sizes = [shape[axis] for shape in node.in_shapes]
            offsets = np.cumsum([0] + sizes)

            def back_concat(ins=ins, o=o, axis=axis, needs=needs, offsets=offsets):
                if not gset[o]:
                    return
                g = gbuf[o]
                for s, need, start, stop in zip(ins, needs, offsets[:-1], offsets[1:]):
                    if need:
                        index = [slice(None)] * g.ndim
                        index[axis] = slice(start, stop)
                        acc(s, g[tuple(index)])

            return back_concat

        if op == "fused_matmul_add":
            x = node.extra
            b, c = ins[1], ins[2]
            sb, sc = node.in_shapes[1], node.in_shapes[2]
            m_shape = x["mm"].out_shape

            def back_matmul_add(a=a, b=b, c=c, o=o, sa=sa, sb=sb, sc=sc,
                                m_shape=m_shape, needs=needs):
                if not gset[o]:
                    return
                g = gbuf[o]
                if needs[2]:
                    acc(c, _unbroadcast(g, sc))
                gm = _unbroadcast(g, m_shape)
                if needs[0]:
                    acc(a, _unbroadcast(gm @ np.swapaxes(vals[b], -1, -2), sa))
                if needs[1]:
                    acc(b, _unbroadcast(np.swapaxes(vals[a], -1, -2) @ gm, sb))

            return back_matmul_add

        if op == "fused_mse":
            x = node.extra
            b, sb = ins[1], node.in_shapes[1]
            kind, d = x["kind"], x["d"]
            sq_shape = x["sq"].out_shape
            dtype = x["sq"].out_dtype
            axis, keepdims = x["mean"].attrs["axis"], x["mean"].attrs["keepdims"]
            exponent = None if kind == "mul" else x["sq"].attrs["exponent"]
            if axis is None:
                count = int(np.prod(sq_shape)) if sq_shape else 1
            elif isinstance(axis, tuple):
                count = int(np.prod([sq_shape[ax] for ax in axis]))
            else:
                count = sq_shape[axis]

            def back_mse(a=a, b=b, o=o, sa=sa, sb=sb, d=d, kind=kind,
                         sq_shape=sq_shape, dtype=dtype, axis=axis,
                         keepdims=keepdims, count=count, exponent=exponent,
                         needs=needs):
                if not gset[o]:
                    return
                g = gbuf[o] / count
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                gsq = np.broadcast_to(np.asarray(g, dtype=dtype), sq_shape)
                dv = vals[d]
                if kind == "mul":
                    gd = gsq * dv
                    gd = gd + gd  # two interpreted accumulations of g*d
                else:
                    gd = gsq * exponent * dv ** (exponent - 1.0)
                if needs[0]:
                    acc(a, _unbroadcast(gd, sa))
                if needs[1]:
                    acc(b, _unbroadcast(-gd, sb))

            return back_mse

        raise TapeError(f"no backward kernel for op {op!r}")

    # -- replay ---------------------------------------------------------

    def replay_forward(
        self, bindings: Optional[Dict[str, np.ndarray]] = None, _stub_providers: bool = False
    ) -> np.ndarray:
        """Run the compiled forward and return the output slot's value.

        ``bindings`` supplies one array per input tag.  Dynamic-leaf
        providers are invoked in their recorded order, so RNG-stream
        consumption matches the interpreted evaluation bit-for-bit;
        ``_stub_providers`` replays the recorded draws instead (the
        compile-time self-check, which must not consume RNG).
        """
        start = time.perf_counter()
        vals = self._vals
        for slot, tensor in self._static_leaves:
            vals[slot] = tensor.data
        if self._providers:
            if _stub_providers:
                for slot, idx in self._provider_slots:
                    vals[slot] = self._providers[idx][1]
            else:
                outs = []
                for provider, rec in self._providers:
                    arr = provider()
                    if arr.shape != rec.shape or arr.dtype != rec.dtype:
                        raise TapeError(
                            f"provider returned {arr.dtype}{arr.shape}, "
                            f"recorded {rec.dtype}{rec.shape}"
                        )
                    outs.append(arr)
                for slot, idx in self._provider_slots:
                    vals[slot] = outs[idx]
        for slot, name in self._input_slots:
            if bindings is None or name not in bindings:
                raise TapeError(f"replay missing binding for input tag {name!r}")
            arr = bindings[name]
            rec = self._recorded[slot]
            if arr.shape != rec.shape or arr.dtype != rec.dtype:
                raise TapeError(
                    f"binding {name!r} is {arr.dtype}{arr.shape}, "
                    f"recorded {rec.dtype}{rec.shape}"
                )
            vals[slot] = arr
        for step in self._forward_steps:
            step()
        tape_counters.record_replay("forward", time.perf_counter() - start)
        return vals[self._out_slot]

    def value(self, name: str) -> np.ndarray:
        """Current replayed value of a tagged intermediate tensor."""
        return self._vals[self._value_slots[name]]

    def replay_backward(
        self,
        seed: Optional[np.ndarray] = None,
        into: Optional[Dict[int, np.ndarray]] = None,
    ) -> None:
        """Run the compiled backward for the latest forward replay.

        With ``into=None`` the leaf gradients are accumulated straight
        into the captured parameter tensors' ``.grad`` (the training hot
        path).  With a dict, per-slot copies are summed into it instead
        — the sequential-MC path accumulates across draws and applies
        them later via :meth:`apply_accumulated`.
        """
        start = time.perf_counter()
        self._gset[:] = bytes(len(self._gset))
        out_rec = self._recorded[self._out_slot]
        if seed is None:
            g = np.ones_like(out_rec)
        else:
            g = np.broadcast_to(np.asarray(seed, dtype=out_rec.dtype), out_rec.shape).astype(
                out_rec.dtype
            )
        self._acc(self._out_slot, g)
        for step in self._backward_steps:
            step()
        gset, gbuf = self._gset, self._gbuf
        for slot, tensor in self.grad_leaves:
            if not gset[slot]:
                continue
            if into is None:
                # _accumulate_grad copies on first touch, so handing it
                # the reused arena is safe.
                tensor._accumulate_grad(gbuf[slot])
            elif slot in into:
                into[slot] += gbuf[slot]
            else:
                into[slot] = gbuf[slot].copy()
        tape_counters.record_replay("backward", time.perf_counter() - start)

    def apply_accumulated(self, into: Dict[int, np.ndarray], scale: np.ndarray) -> None:
        """Flush ``into`` (from :meth:`replay_backward`) scaled by ``scale``."""
        for slot, tensor in self.grad_leaves:
            acc = into.get(slot)
            if acc is not None:
                tensor._accumulate_grad(acc * scale)

    # -- validation -----------------------------------------------------

    def _self_check(self) -> None:
        """Replay against the recorded arrays and demand bit-equality.

        Providers are stubbed with the recorded draws and input tags
        bound to their recorded arrays, so a correct compile must
        reproduce every traced intermediate exactly.  Any deviation
        (missed fast path, aliasing bug, unsupported broadcast) fails
        the compile here — before the tape is ever trusted.
        """
        bindings = dict(self._capture.input_tags)
        self.replay_forward(bindings=bindings, _stub_providers=True)
        for node in self._nodes:
            for slot in node.check_slots:
                got, want = self._vals[slot], self._recorded[slot]
                if (
                    got.shape != want.shape
                    or got.dtype != want.dtype
                    or not np.array_equal(got, want, equal_nan=True)
                ):
                    raise TapeError(
                        f"self-check mismatch at op {node.op!r} (slot {slot})"
                    )


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------

#: Sentinel marking a signature that failed to compile (permanent
#: interpreted fallback — never retraced).
_FAILED = object()


class TapeCache:
    """Compiled tapes keyed by caller-built signature tuples.

    The signature must cover everything the compiled closures baked in:
    input shapes/dtypes, label content, precision policy, backend
    switches, draw counts and parameter ``requires_grad`` masks — any
    change produces a new key, forcing a clean retrace instead of a
    stale replay.
    """

    def __init__(self) -> None:
        self._entries: Dict[tuple, object] = {}

    def lookup(self, key: tuple) -> object:
        """Return a :class:`CompiledTape`, ``"failed"``, or ``None``."""
        entry = self._entries.get(key)
        if entry is _FAILED:
            return "failed"
        return entry

    def store(self, key: tuple, tape: CompiledTape) -> None:
        """Cache a freshly compiled tape under ``key``."""
        self._entries[key] = tape

    def mark_failed(self, key: tuple) -> None:
        """Permanently route ``key`` to the interpreted fallback."""
        self._entries[key] = _FAILED

    def clear(self) -> None:
        """Drop every entry (tests and explicit invalidation)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
