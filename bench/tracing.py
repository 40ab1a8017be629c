"""Spans and counters recorded from the benchmark's side of kswave's module boundaries.

Nothing under ``src/`` is edited.  While a tracer is installed, every public
function that one kswave module imports from another is replaced, in the
importing module's namespace, by a wrapper that records a span: for example
the name ``integrate`` as bound in ``kswave.shooting``.  A few same-module
calls are wrapped too (``_INTRA``) because the per-layer metrics need them,
such as ``classify_trajectory`` as called by ``find_w0_star``.

Two kinds of call are not spanned:

* ``kswave.flux`` functions are scalar leaves evaluated inside inner loops;
  their cost is measured by replay (``replay_us``) and otherwise counts as
  the caller's self time.
* Private helpers (``_dp54_step``, ``_locate_event``) are never wrapped;
  their cost is ``integrate`` self time.

``make_rhs`` as bound in ``kswave.integrate`` is wrapped so that the vector
field closure it returns counts its calls (``phase.rhs_evals``).

A span's self time is its duration minus the durations of its direct child
spans; spans of one thread nest, so children never overlap.
"""

from __future__ import annotations

import statistics
import sys
import time
import types

_MODULES = ("kswave.integrate", "kswave.shooting", "kswave.profiles", "kswave.cli")
_LEAF_MODULES = ("kswave.flux",)
_INTRA = {
    "kswave.shooting": ("find_w0_star", "classify_trajectory", "trace_stable_manifold"),
    "kswave.profiles": (
        "wave_trajectory",
        "reconstruct",
        "classify_profile",
        "endpoint_slopes",
        "saturated_front",
    ),
    "kswave.cli": ("main",),
}
# States kept per integrate call for the closure replay.
_STATES_PER_CALL = 16

# span record fields
NAME, T0, T1, PARENT, RHS0, RHS1, INFO = range(7)


def _integrate_info(args, kwargs, out):
    n = len(out.s)
    stride = max(1, n // _STATES_PER_CALL)
    states = list(zip(out.w[::stride].tolist(), out.v[::stride].tolist()))
    return (n - 1, args[0], states)


_OBSERVERS = {
    "integrate.integrate": _integrate_info,
    "integrate.reconstruct_s_from_v": lambda args, kwargs, out: len(out.s) - 1,
    "shooting.find_w0_star": lambda args, kwargs, out: out.method,
    "profiles.reconstruct": lambda args, kwargs, out: len(out.s),
    "cli.main": lambda args, kwargs, out: args[0][0],
}


def span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    """In-memory span list plus the vector-field call counter."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.rhs = [0]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.rhs[0], 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[T0] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[T1] = time.perf_counter()
            rec[RHS1] = self.rhs[0]
            self._stack.pop()
        observe = _OBSERVERS.get(name)
        if observe is not None:
            rec[INFO] = observe(args, kwargs, out)
        return out

    def _wrap(self, fn):
        name = span_name(fn)
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    def _counting(self, make_rhs):
        box = self.rhs

        def counting_make_rhs(p):
            f = make_rhs(p)

            def counted(w, v):
                box[0] += 1
                return f(w, v)

            return counted

        return counting_make_rhs

    def install(self) -> None:
        for modname in _MODULES:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if not isinstance(fn, types.FunctionType):
                    continue
                home = fn.__module__
                if not home.startswith("kswave.") or home in _LEAF_MODULES:
                    continue
                if fn.__name__.startswith("_"):
                    continue
                if home == modname and attr not in _INTRA.get(modname, ()):
                    continue
                if span_name(fn) == "phase.make_rhs":
                    wrapper = self._counting(fn)
                else:
                    wrapper = self._wrap(fn)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def _children(spans):
    kids: list[list[int]] = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            kids[rec[PARENT]].append(i)
    return kids


def _ancestor_named(spans, name):
    """For each span, the index of its nearest ancestor-or-self called name (-1: none)."""
    out = []
    for i, rec in enumerate(spans):
        if rec[NAME] == name:
            out.append(i)
        elif rec[PARENT] >= 0:
            out.append(out[rec[PARENT]])
        else:
            out.append(-1)
    return out


def self_times(spans) -> list[float]:
    kids = _children(spans)
    return [
        (rec[T1] - rec[T0]) - sum(spans[k][T1] - spans[k][T0] for k in kids[i])
        for i, rec in enumerate(spans)
    ]


def replay_us(states_by_params, budget: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Microseconds per call of the make_g and make_rhs closures on recorded states.

    ``states_by_params`` maps ModelParams to (w, v) states taken from the
    workload's own trajectories.  At most ``budget`` states are replayed;
    each loop is repeated and the median per-call time is kept.
    """
    from kswave.flux import make_g
    from kswave.phase import make_rhs

    total = sum(len(s) for s in states_by_params.values())
    stride = max(1, total // budget)
    jobs = []
    for p, states in states_by_params.items():
        picked = states[::stride]
        if picked:
            ys = [p.a * v - p.sigma for _, v in picked]
            jobs.append((make_g(p.limiter), make_rhs(p), picked, ys))
    n = sum(len(j[2]) for j in jobs)
    if n == 0:
        return float("nan"), float("nan")
    g_runs, f_runs = [], []
    for _ in range(repeats):
        t = time.perf_counter()
        for g, _f, _s, ys in jobs:
            for y in ys:
                g(y)
        g_runs.append(time.perf_counter() - t)
        t = time.perf_counter()
        for _g, f, states, _y in jobs:
            for w, v in states:
                f(w, v)
        f_runs.append(time.perf_counter() - t)
    return statistics.median(g_runs) / n * 1e6, statistics.median(f_runs) / n * 1e6


def layer_report(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer metrics from the spans of one traced run.

    Op-scoped metrics count spans under the ``bench.op`` roots and divide by
    ``n_ops``.  Shooting metrics are per threshold solve: they count spans
    under every ``shooting.find_w0_star`` span, including set-up solves.
    Returns {"metrics": {name: (value, unit)}, "absent": {name: reason},
    "self_ms": {span name: ms per op}, "states": {params: states}}.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    root = _ancestor_named(spans, "bench.op")
    solve = _ancestor_named(spans, "shooting.find_w0_star")
    in_op = [r >= 0 for r in root]

    def dur(i):
        return (spans[i][T1] - spans[i][T0]) * 1e3

    def op_spans(name):
        return [i for i, rec in enumerate(spans) if in_op[i] and rec[NAME] == name]

    m: dict[str, tuple[float, str]] = {}
    absent: dict[str, str] = {}
    per_op = max(n_ops, 1)

    roots = [i for i, rec in enumerate(spans) if rec[NAME] == "bench.op"]
    rhs_evals = sum(spans[i][RHS1] - spans[i][RHS0] for i in roots)
    integ = op_spans("integrate.integrate")
    steps = sum(spans[i][INFO][0] for i in integ)
    m["integrate.calls"] = (len(integ) / per_op, "count/op")
    m["integrate.accepted_steps"] = (steps / per_op, "count/op")
    m["phase.rhs_evals"] = (rhs_evals / per_op, "count/op")
    if steps:
        m["integrate.rhs_per_step"] = (rhs_evals / steps, "1")
        m["integrate.us_per_step"] = (sum(selfs[i] for i in integ) / steps * 1e6, "us/step")
    else:
        for k in ("integrate.rhs_per_step", "integrate.us_per_step"):
            absent[k] = "no integrate call in the traced ops"

    eqs = op_spans("phase.equilibria")
    m["phase.equilibria_calls"] = (len(eqs) / per_op, "count/op")
    m["phase.equilibria_ms"] = (sum(dur(i) for i in eqs) / per_op, "ms/op")

    solves = [i for i, rec in enumerate(spans) if rec[NAME] == "shooting.find_w0_star"]
    if solves:
        ns = len(solves)
        cls = [i for i, rec in enumerate(spans)
               if rec[NAME] == "shooting.classify_trajectory" and solve[i] >= 0]
        man = [i for i, rec in enumerate(spans)
               if rec[NAME] == "shooting.trace_stable_manifold" and solve[i] >= 0]
        man_set = set(man)
        man_int = [i for i, rec in enumerate(spans)
                   if rec[NAME] == "integrate.integrate" and rec[PARENT] in man_set]
        m["shooting.classify_calls"] = (len(cls) / ns, "count/solve")
        m["shooting.classify_ms"] = (sum(dur(i) for i in cls) / ns, "ms/solve")
        m["shooting.manifold_ms"] = (sum(dur(i) for i in man) / ns, "ms/solve")
        m["shooting.manifold_integrations"] = (len(man_int) / ns, "count/solve")
        m["shooting.self_ms"] = (sum(selfs[i] for i in solves) * 1e3 / ns, "ms/solve")
        both = sum(1 for i in solves if spans[i][INFO] == "Both")
        m["shooting.cross_checked_ratio"] = (both / ns, "1")
    else:
        for k in ("classify_calls", "classify_ms", "manifold_ms", "manifold_integrations",
                  "self_ms", "cross_checked_ratio"):
            absent[f"shooting.{k}"] = "no threshold solve in this workload"

    legs = op_spans("integrate.integrate_graph_W")
    quads = op_spans("integrate.reconstruct_s_from_v")
    if legs:
        m["integrate.graph_legs"] = (len(legs) / per_op, "count/op")
        m["integrate.graph_leg_ms"] = (sum(dur(i) for i in legs) / per_op, "ms/op")
        m["integrate.quad_intervals"] = (sum(spans[i][INFO] for i in quads) / per_op, "count/op")
        m["integrate.quad_ms"] = (sum(dur(i) for i in quads) / per_op, "ms/op")
    else:
        for k in ("graph_legs", "graph_leg_ms", "quad_intervals", "quad_ms"):
            absent[f"integrate.{k}"] = "no graph-form leg in the traced ops"

    prof_names = {
        "profiles.wave_trajectory_ms": "profiles.wave_trajectory",
        "profiles.reconstruct_ms": "profiles.reconstruct",
        "profiles.classify_ms": "profiles.classify_profile",
        "profiles.slopes_ms": "profiles.endpoint_slopes",
    }
    recs = op_spans("profiles.reconstruct")
    if recs:
        for metric, name in prof_names.items():
            m[metric] = (sum(dur(i) for i in op_spans(name)) / per_op, "ms/op")
        m["profiles.samples"] = (sum(spans[i][INFO] for i in recs) / per_op, "count/op")
    else:
        for metric in (*prof_names, "profiles.samples"):
            absent[metric] = "no profile built in the traced ops"
    fronts = op_spans("profiles.saturated_front")
    if fronts:
        m["profiles.front_self_ms"] = (sum(selfs[i] for i in fronts) * 1e3 / per_op, "ms/op")
    else:
        absent["profiles.front_self_ms"] = "no saturated front in the traced ops"

    mains = op_spans("cli.main")
    if mains:
        # Sweep points run in pool workers, which are not traced, so the
        # sweep's main span has no library children to subtract.
        local = [i for i in mains if spans[i][INFO] != "sweep"]
        m["cli.main_ms"] = (sum(dur(i) for i in mains) / len(mains), "ms/command")
        m["cli.self_ms"] = (sum(selfs[i] for i in local) * 1e3 / len(local), "ms/command")
    else:
        for k in ("cli.main_ms", "cli.self_ms"):
            absent[k] = "no in-process CLI command in this workload"

    states: dict = {}
    for i in integ:
        _, p, st = spans[i][INFO]
        states.setdefault(p, []).extend(st)

    by_name: dict[str, float] = {}
    for i, rec in enumerate(spans):
        if in_op[i]:
            # The sweep's main self time is mostly waiting on its untraced pool.
            name = "pool.sweep" if rec[NAME] == "cli.main" and rec[INFO] == "sweep" else rec[NAME]
            by_name[name] = by_name.get(name, 0.0) + selfs[i] * 1e3
    self_ms = {k: v / per_op for k, v in sorted(by_name.items(), key=lambda kv: -kv[1])}
    return {"metrics": m, "absent": absent, "self_ms": self_ms, "states": states}
