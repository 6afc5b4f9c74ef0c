"""Outside-in layer tracing of the casimir_sense call chain.

The tracer replaces, for the duration of a ``with tracer.installed():``
block, the module-level names through which one layer calls the next:

* ``greens`` and ``interaction`` bindings of ``integrate_refined``
  (quadrature) and ``_sigma_ec`` (graphene), and the ``interaction``
  bindings of ``_trace_imag_scaled`` and ``trace_green_real_parts`` (greens);
* the public entry points of ``interaction``, ``measurement`` and
  ``dynamics``, including the copies ``measurement`` and ``dynamics`` import;
* ``dynamics.build_step``, counted but not spanned: it runs tens of thousands
  of times per op inside the dynamics layer, so a span would add memory and
  overhead without moving time between layers.

Each integrand handed to ``integrate_refined`` is wrapped as well.  Its calls
count the quadrature nodes, the last call before a successful return is the
accepted refinement level, and each call is a span of the layer whose module
defined the integrand, so quadrature self time excludes the kernel maths.

Spans are kept in memory as (name, start, end, parent, op id) columns until
the traced phase ends; a layer's self time is the sum over its spans of the
span duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

import numpy as np

from casimir_sense import dynamics, greens, interaction, measurement

LAYERS = ("graphene", "quadrature", "greens", "interaction", "measurement",
          "dynamics")

_INTERACTION_ENTRIES = ("ground_shift", "excited_shift", "decay_rates",
                        "transition_shift", "transition_gradient",
                        "scattering_rate_map")

# (module, bound name, layer of the callee)
_SPANNED = (
    [(greens, "_sigma_ec", "graphene"),
     (interaction, "_sigma_ec", "graphene"),
     (interaction, "_trace_imag_scaled", "greens"),
     (interaction, "trace_green_real_parts", "greens")]
    + [(interaction, name, "interaction") for name in _INTERACTION_ENTRIES]
    + [(measurement, "decay_rates", "interaction"),
       (measurement, "transition_gradient", "interaction"),
       (measurement, "evaluate_coupling", "measurement"),
       (measurement, "kappa", "measurement"),
       (dynamics, "evaluate_coupling", "measurement"),
       (dynamics, "simulate", "dynamics")])
_QUADRATURE = ((greens, "integrate_refined"), (interaction, "integrate_refined"))
_COUNTED = ((dynamics, "build_step"),)


class Tracer:
    """Span recorder plus the counters that spans alone do not give."""

    def __init__(self):
        self._name_ids: dict[str, int] = {}
        self.span_names: list[str] = []
        self.span_layers: list[int] = []
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.nodes = 0
        self.useful_nodes = 0
        self.steps = 0
        self._escaped = {layer: [] for layer in LAYERS}

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
            self.span_layers.append(LAYERS.index(layer))
        return nid

    def _note_error(self, exc: BaseException, layer: str) -> None:
        """Count each exception object once per layer it leaves."""
        seen = self._escaped[layer]
        if not any(e is exc for e in seen):
            seen.append(exc)

    def span(self, fn, layer: str, name: str | None = None):
        """Wrap fn so that each call records one span of ``layer``."""
        nid = self._name_id(name or f"{layer}.{fn.__name__}", layer)
        stack = self._stack

        def spanned(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._note_error(exc, layer)
                raise
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return spanned

    def _quadrature(self, fn):
        spanned_quad = self.span(fn, "quadrature")

        def traced(f, edges, *args, **kwargs):
            layer = f.__module__.rpartition(".")[2]
            spanned_f = self.span(f, layer, f"{layer}.integrand")
            levels = []

            def counted(x):
                levels.append(np.size(x))
                return spanned_f(x)

            try:
                result = spanned_quad(counted, edges, *args, **kwargs)
            finally:
                self.nodes += sum(levels)
            self.useful_nodes += levels[-1]
            return result

        return traced

    def _counter(self, fn):
        def counted(*args, **kwargs):
            self.steps += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch the bindings listed above; restore them on exit."""
        patches = [(m, n, self.span(getattr(m, n), layer))
                   for m, n, layer in _SPANNED]
        patches += [(m, n, self._quadrature(getattr(m, n)))
                    for m, n in _QUADRATURE]
        patches += [(m, n, self._counter(getattr(m, n))) for m, n in _COUNTED]
        originals = [(m, n, getattr(m, n)) for m, n, _ in patches]
        try:
            for m, n, wrapped in patches:
                setattr(m, n, wrapped)
            yield self
        finally:
            for m, n, fn in originals:
                setattr(m, n, fn)

    # -- aggregation ------------------------------------------------------

    def calls(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            return 0
        return int(np.count_nonzero(np.frombuffer(self.name, dtype=np.intc)
                                    == nid))

    def errors(self, layer: str) -> int:
        return len(self._escaped[layer])

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer over every recorded span."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        layer = np.asarray(self.span_layers, dtype=np.intp)[
            np.frombuffer(self.name, dtype=np.intc)]
        per_layer = np.bincount(layer, weights=dur - child,
                                minlength=len(LAYERS))
        return dict(zip(LAYERS, (float(v) for v in per_layer)))


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced phase of ``n_ops`` ops."""
    self_s = tracer.self_seconds()
    steps = tracer.steps
    return {
        "quadrature.calls": tracer.calls("quadrature.integrate_refined"),
        "quadrature.nodes": tracer.nodes,
        "quadrature.useful_node_frac":
            tracer.useful_nodes / tracer.nodes if tracer.nodes else 0.0,
        "quadrature.self_s": self_s["quadrature"],
        "quadrature.errors": tracer.errors("quadrature"),
        "greens.kernel_calls": tracer.calls("greens._trace_imag_scaled"),
        "greens.real_calls": tracer.calls("greens.trace_green_real_parts"),
        "greens.self_s": self_s["greens"],
        "graphene.calls": tracer.calls("graphene._sigma_ec"),
        "graphene.self_s": self_s["graphene"],
        "interaction.ground_shift_per_op":
            tracer.calls("interaction.ground_shift") / n_ops,
        "interaction.transition_shift_per_op":
            tracer.calls("interaction.transition_shift") / n_ops,
        "interaction.self_s": self_s["interaction"],
        "interaction.errors": tracer.errors("interaction"),
        "measurement.calls": sum(tracer.calls(n) for n in tracer.span_names
                                 if n.startswith("measurement.")),
        "measurement.self_s": self_s["measurement"],
        "dynamics.steps": steps,
        "dynamics.step_us": 1e6 * self_s["dynamics"] / steps if steps else 0.0,
        "dynamics.self_s": self_s["dynamics"],
    }
