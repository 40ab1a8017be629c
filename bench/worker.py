"""One benchmark interpreter: set-up, timed ops, verification, optional tracing.

run.py starts this file as a fresh process for every set-up measurement and
for every run:

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE SPAWNED_AT [--setup-only]

with PYTHONPATH holding the checkout's absolute ``src/``, which the commands
it starts inherit.  SPAWNED_AT is the ``time.monotonic()`` reading taken
just before the process was started, so the set-up time includes
interpreter start-up, imports and input generation.  The last line of
standard output is one JSON record.

Each workload is a closed loop with one caller.  Inputs come in rounds: a
round holds every stratum of the workload once, in seeded order, so runs
with different seeds do the same mix of work.  A run times a fixed number
of whole rounds, each op once, sized from SECONDS and the workload's
nominal round time.  The workload's host-speed kernel (``hostspeed.py``)
is timed before the first op and after every op, and each op's latency is
reported scaled by the two samples around it.  Answers are verified after the
timed phase.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
# op_tail_ms needs at least ten ops beyond its percentile.
MIN_OPS = 20
# A command run by the cli workload may take this long before it counts as hung.
COMMAND_TIMEOUT_S = 120
# Offsets at which the threshold dichotomy is checked, relative to w0_star.
DICHOTOMY_REL = 1e-6


def _num(x):
    """A float as JSON can hold it: non-finite values become strings."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


class Threshold:
    """One ``find_w0_star(p, v0)`` per op, default method and Controls.

    A round is 16 ops: the four sigma factors of the sweep times four bins
    of the sensitivity ``a``, log-uniform within each bin.  In each round,
    one cell per sigma factor outside case A uses a relativistic limiter,
    and two of the four case-A cells (a < 1, sigma < sigma_star) launch
    backward.
    """

    name = "threshold"
    kernel = "compute"
    # nominal wall seconds per round, kernel samples included (2-vCPU Xeon VM,
    # Python 3.11); sizes the run
    round_s = 4.0
    F_VALUES = (0.4, 0.7, 1.4, 2.0)
    # a in [0.3, 3] without (0.8, 1.25): there sigma_star = |1 - a| * v_star
    # is so small that orbits can use up the span without a deciding event.
    A_BINS = ((0.3, 0.5), (0.5, 0.8), (1.25, 2.0), (2.0, 3.0))

    def __init__(self, seed: int) -> None:
        from kswave import flux, phase, shooting

        self.flux, self.phase, self.shooting = flux, phase, shooting
        self.seed = seed

    def prepare(self) -> None:
        pass

    def _point(self, rng, f, a_bin, relativistic, backward):
        ModelParams, flux = self.phase.ModelParams, self.flux
        a = _log_uniform(rng, *a_bin)
        # sigma_star vanishes at a = 1; the sweep falls back to v_star there.
        probe = ModelParams(a=a, sigma=1.0)
        ref = probe.sigma_star if probe.sigma_star > 0.0 else probe.v_star
        sigma = f * ref
        v0 = rng.uniform(1.5, 3.0) * probe.v_star * (-1.0 if backward else 1.0)
        lim = flux.FluxLimiter(flux.LINEAR)
        if relativistic:
            # slope domain ((sigma - c)/a, (sigma + c)/a) must hold -v_star and v0
            need = max(sigma + a * probe.v_star, a * v0 - sigma, sigma - a * v0)
            lim = flux.FluxLimiter(flux.RELATIVISTIC, c=need * rng.uniform(1.5, 3.0))
        return {"p": ModelParams(a=a, sigma=sigma, limiter=lim), "v0": v0}

    def round(self, k: int) -> list[dict]:
        rng = random.Random(self.seed * 1_000_003 + k)
        cells = [(f, b) for f in self.F_VALUES for b in self.A_BINS]
        case_a = [(f, b) for f, b in cells if f < 1.0 and b[1] < 1.0]
        # Relativistic limiters can remove the interior saddle that case-A
        # shooting needs, so they go to the other cells only.
        relativistic = {(f, rng.choice([b for b in self.A_BINS if (f, b) not in case_a]))
                        for f in self.F_VALUES}
        backward = set(rng.sample(case_a, 2))
        ops = [self._point(rng, f, b, (f, b) in relativistic, (f, b) in backward)
               for f, b in cells]
        rng.shuffle(ops)
        return ops

    def run(self, op):
        return self.shooting.find_w0_star(op["p"], op["v0"])

    run_traceable = run

    def summary(self, op, out) -> dict:
        return {"w0_star": out.w0_star, "method": out.method}

    def check(self, op, summ) -> str | None:
        sh = self.shooting
        sub = (sh.ENTERS_PARABOLA, sh.CONVERGES_TO)
        w = summ["w0_star"]
        below = sh.classify_trajectory(op["p"], w * (1 - DICHOTOMY_REL), op["v0"]).cls
        above = sh.classify_trajectory(op["p"], w * (1 + DICHOTOMY_REL), op["v0"]).cls
        if below in sub and above not in sub:
            return None
        return f"dichotomy broken at w0_star={w!r}: below {below}, above {above}"

    def describe(self, op) -> dict:
        p = op["p"]
        return {"a": p.a, "sigma": p.sigma, "limiter": p.limiter.kind,
                "c": p.limiter.c, "v0": op["v0"]}


class Profiles:
    """Both README profile kinds per op: a linear-limiter wave and a saturated front.

    The linear wave launches at ``m * w0_star`` from one of four fixed base
    points, whose ``w0_star`` is solved in set-up.  A round is 8 ops: each
    base once with ``m`` in [1/4, 1) and once with ``m`` in (1, 4], both
    log-uniform and at least 1e-3 away from 1; four fronts use the
    relativistic limiter and four the Larson limiter.
    """

    name = "profiles"
    kernel = "compute"
    round_s = 1.8
    # (a, sigma, v0) with gamma = lam = 1: cases C, A forward, A backward, E.
    BASES = ((1.0, 0.5, 2.0), (0.5, 0.2, 1.8), (0.5, 0.2, -2.0), (2.0, 1.5, 2.5))
    M_GAP = 1e-3

    def __init__(self, seed: int) -> None:
        from kswave import flux, phase, profiles, shooting

        self.flux, self.phase, self.profiles, self.shooting = flux, phase, profiles, shooting
        self.seed = seed
        self.bases: list = []

    def prepare(self) -> None:
        for a, sigma, v0 in self.BASES:
            p = self.phase.ModelParams(a=a, sigma=sigma)
            self.bases.append((p, v0, self.shooting.find_w0_star(p, v0).w0_star))

    def _front(self, rng, kind):
        flux = self.flux
        if kind == flux.RELATIVISTIC:
            lim = flux.FluxLimiter(kind, c=rng.uniform(0.5, 2.0))
        else:
            lim = flux.FluxLimiter(kind, c=rng.uniform(0.5, 2.0), p=rng.uniform(1.5, 4.0))
        p = self.phase.ModelParams(a=_log_uniform(rng, 0.5, 2.0), sigma=rng.uniform(0.2, 0.8),
                                   limiter=lim)
        lo, hi = p.slope_domain
        # Anchors under about 6 * lam sometimes have no above-branch front
        # (RegimeViolation) or stall the graph solver (Inconclusive).
        return p, lo + (hi - lo) * rng.uniform(0.25, 0.75), p.lam * rng.uniform(8.0, 20.0)

    def round(self, k: int) -> list[dict]:
        rng = random.Random(self.seed * 1_000_003 + k)
        kinds = [self.flux.RELATIVISTIC, self.flux.LARSON] * len(self.BASES)
        rng.shuffle(kinds)
        ops = []
        for b in range(len(self.BASES)):
            for lo, hi in ((0.25, 1.0 / (1.0 + self.M_GAP)), (1.0 + self.M_GAP, 4.0)):
                pf, v0f, w0f = self._front(rng, kinds[len(ops)])
                ops.append({"base": b, "m": _log_uniform(rng, lo, hi),
                            "front": (pf, v0f, w0f)})
        rng.shuffle(ops)
        return ops

    def run(self, op):
        pr = self.profiles
        p, v0, w_star = self.bases[op["base"]]
        traj = pr.wave_trajectory(p, op["m"] * w_star, v0)
        prof = pr.reconstruct(p, traj)
        labels = pr.classify_profile(prof, p, w_star)
        slopes = None
        if _finite_edges(prof):
            slopes = pr.endpoint_slopes(prof, p)
        pf, v0f, w0f = op["front"]
        front = pr.saturated_front(pf, v0f, w0f, branch="above")
        return prof, labels, slopes, front

    run_traceable = run

    def summary(self, op, out) -> dict:
        prof, labels, slopes, front = out
        return {
            "labels": list(labels),
            "samples": len(prof.s),
            "edges": [_num(prof.s_minus), _num(prof.s_plus)],
            "u_max": float(prof.u.max()),
            "slopes": None if slopes is None
            else [slopes["u_prime_at_s_minus"], slopes["u_prime_at_s_plus"]],
            "front_labels": [front.u_type, front.S_type],
            "front_samples": len(front.s),
            "front_edges": [_num(front.s_minus), _num(front.s_plus)],
            "front_u_max": float(front.u.max()),
        }

    def check(self, op, summ) -> str | None:
        p, v0, w_star = self.bases[op["base"]]
        want = list(self.profiles.predicted_types(p, v0, op["m"] * w_star, w_star))
        if summ["labels"] != want:
            return f"labels {summ['labels']} != predicted {want}"
        if summ["slopes"] is None and all(isinstance(e, float) for e in summ["edges"]):
            return "finite edges but no endpoint slopes"
        concave = self.profiles.SATURATED_FRONT_CONCAVE
        if summ["front_labels"] != [concave, concave]:
            return f"front labels {summ['front_labels']}"
        lo, hi = summ["front_edges"]
        if not (isinstance(lo, float) and isinstance(hi, float) and lo < hi):
            return f"front edges not finite and ordered: {summ['front_edges']}"
        return None

    def describe(self, op) -> dict:
        pf, v0f, w0f = op["front"]
        return {"base": op["base"], "m": op["m"], "front_limiter": pf.limiter.kind,
                "front_a": pf.a, "front_sigma": pf.sigma, "front_c": pf.limiter.c,
                "front_p": pf.limiter.p, "front_v0": v0f, "front_w0": w0f}


def _finite_edges(prof) -> bool:
    return all(e is not None and math.isfinite(e) for e in (prof.s_minus, prof.s_plus))


class Cli:
    """One README command per op, run verbatim as a fresh ``python -m kswave.cli``.

    A round is the six README commands in seeded order; the seed is also
    the sweep's ``--seed``.  Each command writes into ``out/`` under its own
    working directory.  The traced variant calls ``kswave.cli.main`` in
    process instead, so spans can be recorded.
    """

    name = "cli"
    kernel = "spawn"
    round_s = 9.0
    COMMANDS = (
        ("equilibria", "equilibria --a 2 --sigma 0.5 --out out/"),
        ("portrait", "portrait --a 0.5 --sigma 0.75 --w-grid 1.5,2.5 --v-grid=-0.5,1.5 --out out/"),
        ("shoot", "shoot --a 1 --sigma 0.5 --v0 2 --out out/"),
        ("profile", "profile --a 1 --sigma 0.5 --w0 6 --v0 2 --out out/"),
        ("front", "profile --a 1 --sigma 0.5 --limiter relativistic --c 1 "
                  "--w0 5 --v0 0.5 --branch above --out out/"),
        ("sweep", "sweep --a-values 0.5,1,2 --sigma-factors 0.5,1.5 "
                  "--check-samples 5 --workers 2 --out out/"),
    )
    # commands whose standard output is the JSON document they write
    JSON_STDOUT = ("equilibria", "shoot")

    def __init__(self, seed: int) -> None:
        import kswave.cli

        self.cli = kswave.cli
        self.seed = seed
        self.work = WORK / f"{os.getpid()}"
        self.first: dict[str, str] = {}
        self._n = 0

    def prepare(self) -> None:
        pass

    def round(self, k: int) -> list[dict]:
        rng = random.Random(self.seed * 1_000_003 + k)
        ops = []
        for label, text in self.COMMANDS:
            argv = text.split()
            if label == "sweep":
                argv += ["--seed", str(self.seed)]
            ops.append({"label": label, "argv": argv})
        rng.shuffle(ops)
        return ops

    def _fresh_dir(self) -> Path:
        self._n += 1
        d = self.work / f"op{self._n}"
        d.mkdir(parents=True)
        return d

    def run(self, op):
        d = self._fresh_dir()
        with open(d / "stdout", "wb") as out, open(d / "stderr", "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "kswave.cli", *op["argv"]],
                                    cwd=d, stdout=out, stderr=err)
            # Popen.wait(timeout) polls in steps of up to 50 ms, which would
            # quantize the latency; a blocking wait plus a watchdog does not.
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                rc = proc.wait()
            finally:
                watchdog.cancel()
        return rc, d

    def run_traceable(self, op):
        d = self._fresh_dir()
        buf = StringIO()
        here = os.getcwd()
        os.chdir(d)
        try:
            with redirect_stdout(buf):
                rc = self.cli.main(op["argv"])
        finally:
            os.chdir(here)
        (d / "stdout").write_text(buf.getvalue())
        return rc, d

    def summary(self, op, out) -> dict:
        rc, d = out
        return {"rc": rc, "dir": str(d)}

    def check(self, op, summ) -> str | None:
        d = Path(summ.pop("dir"))
        stdout = (d / "stdout").read_bytes()
        files = sorted(q for q in (d / "out").rglob("*") if q.is_file())
        h = hashlib.sha256(stdout)
        total = len(stdout)
        bad_json = []
        for q in files:
            data = q.read_bytes()
            total += len(data)
            rel = q.relative_to(d).as_posix()
            h.update(rel.encode() + b"\0" + data)
            if q.suffix == ".json" and not _parses(data):
                bad_json.append(rel)
        if op["label"] in self.JSON_STDOUT and not _parses(stdout):
            bad_json.append("stdout")
        summ.update(sha256=h.hexdigest(), bytes=total, files=len(files))
        stderr = (d / "stderr").read_text(errors="replace") if (d / "stderr").exists() else ""
        shutil.rmtree(d, ignore_errors=True)
        if summ["rc"] != 0:
            return f"exit code {summ['rc']}: {stderr.strip()[-300:]}"
        if not files:
            return "no output files"
        if bad_json:
            return f"unparsable JSON: {bad_json}"
        first = self.first.setdefault(op["label"], summ["sha256"])
        if first != summ["sha256"]:
            return "output bytes differ from this command's first pass"
        return None

    def describe(self, op) -> dict:
        return {"label": op["label"], "argv": op["argv"]}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _parses(data: bytes) -> bool:
    try:
        json.loads(data)
    except ValueError:
        return False
    return True


WORKLOADS = {w.name: w for w in (Threshold, Profiles, Cli)}


def plan(wl, seconds: float) -> list:
    """The ops of one timed phase: whole rounds, a fixed number for given seconds.

    The count depends on ``seconds`` and the workload's nominal round time,
    never on how fast this host runs, so one seed always gives one op list
    and ``op_tail_ms`` is always the same percentile.
    """
    size = len(wl.round(0))
    rounds = max(math.ceil(MIN_OPS / size), round(seconds / wl.round_s))
    return [op for k in range(rounds) for op in wl.round(k)]


def timed_phase(wl, ops: list) -> list:
    """Time each op once, bracketed by host-speed kernel samples.

    ``ms`` is an op's latency scaled to the reference speed, ``raw_ms`` its
    wall time.
    """
    kernel = hostspeed.KERNELS[wl.kernel]
    kernel.sample()  # the first call pays lazy set-up
    done = []
    before = kernel.sample()
    for op in ops:
        t = time.perf_counter()
        try:
            out, err = wl.run(op), None
        except Exception as exc:  # a failed op is counted, never fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        raw_ms = (time.perf_counter() - t) * 1e3
        after = kernel.sample()
        done.append({"op": op, "raw_ms": raw_ms, "kernel_ms": [before, after],
                     "ms": raw_ms * kernel.scale(before, after), "error": err,
                     "summary": None if out is None else wl.summary(op, out)})
        before = after
    return done


def traced_phase(wl, tracer, seconds: float) -> list:
    """Each op untraced, then the same op traced, until ``seconds``/2 of untraced time."""
    done = []
    untraced = 0.0
    k = 0
    while untraced < seconds / 2 or not done:
        for op in wl.round(k):
            rec = {"op": op, "error": None}
            for key, traced in (("ms", False), ("traced_ms", True)):
                t = time.perf_counter()
                try:
                    if traced:
                        tracer.install()
                        try:
                            out = tracer.call("bench.op", wl.run_traceable, op)
                        finally:
                            tracer.uninstall()
                    else:
                        out = wl.run_traceable(op)
                except Exception as exc:  # a failed op is counted, never fatal
                    out = None
                    rec["error"] = f"{type(exc).__name__}: {exc}"
                rec[key] = (time.perf_counter() - t) * 1e3
                rec["summary" if not traced else "traced_summary"] = (
                    None if out is None else wl.summary(op, out)
                )
            untraced += rec["ms"] / 1e3
            done.append(rec)
        k += 1
    return done


def verify(wl, done: list) -> None:
    """Check every op's answer; a traced op must also match its untraced twin."""
    for rec in done:
        reason = None
        if rec["error"] is None:
            reason = wl.check(rec["op"], rec["summary"])
            if reason is None and "traced_summary" in rec:
                reason = wl.check(rec["op"], rec["traced_summary"])
                if reason is None and rec["summary"] != rec["traced_summary"]:
                    reason = "traced answer differs from the untraced one"
        rec["check"] = reason


def import_times(reps: int = 3) -> tuple[float, float]:
    """Median (kswave.cli, scipy-under-kswave.cli) cumulative import seconds."""
    cli_s, scipy_s = [], []
    for _ in range(reps):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import kswave.cli"],
            capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S, check=True,
        ).stderr
        rows = []
        for line in err.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cum, name = line[len("import time:"):].split("|")
            rows.append((len(name) - len(name.lstrip()), int(cum), name.strip()))
        total = scipy = 0
        for i, (depth, cum, name) in enumerate(rows):
            if name == "kswave.cli":
                total = cum
            if name == "scipy" or name.startswith("scipy."):
                # importtime prints children before parents: the parent is
                # the first later row that sits shallower.
                parent = next((r[2] for r in rows[i + 1:] if r[0] < depth), "")
                if not (parent == "scipy" or parent.startswith("scipy.")):
                    scipy += cum
        cli_s.append(total / 1e6)
        scipy_s.append(scipy / 1e6)
    return statistics.median(cli_s), statistics.median(scipy_s)


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, spawned_at = argv[:5]
    setup_only = "--setup-only" in argv[5:]
    seed, seconds, trace = int(seed), float(seconds), int(trace)
    wl = WORKLOADS[name](seed)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    wl.prepare()
    ops = plan(wl, seconds)
    setup_s = time.monotonic() - float(spawned_at)
    if tracer is not None:
        tracer.uninstall()
    if setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    try:
        # First calls may finish lazy set-up that a library user pays once.
        if name != "cli":
            wl.run(wl.round(0)[0])
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "setup_s": setup_s}
        if not trace:
            t = time.perf_counter()
            done = timed_phase(wl, ops)
            usage = resource.getrusage(
                resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
            )
            record.update(timed_s=time.perf_counter() - t, peak_rss_mb=usage.ru_maxrss / 1024.0,
                          kernel=wl.kernel)
            verify(wl, done)
        else:
            if name == "cli":
                for op in wl.round(0):  # warm the in-process path (pool start, lazy imports)
                    wl.check(op, wl.summary(op, wl.run_traceable(op)))
                wl.first.clear()
            done = traced_phase(wl, tracer, seconds)
            verify(wl, done)
            record["layers"] = _layers(wl, tracer, done)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    record["ops"] = [
        {"input": wl.describe(r["op"]), "ms": r["ms"], "raw_ms": r.get("raw_ms"),
         "kernel_ms": r.get("kernel_ms"),
         "traced_ms": r.get("traced_ms"),
         "error": r["error"], "check": r["check"], "fingerprint": r["summary"]}
        for r in done
    ]
    record["versions"] = _versions()
    print(json.dumps(record))
    return 0


def _layers(wl, tracer, done) -> dict:
    from tracing import layer_report, replay_us

    ok = [r for r in done if r["error"] is None]
    rep = layer_report(tracer, len(done))
    metrics = rep["metrics"]
    g_us, rhs_us = replay_us(rep["states"])
    metrics["flux.g_us"] = (g_us, "us/call")
    metrics["phase.rhs_us"] = (rhs_us, "us/call")
    absent = rep["absent"]
    if wl.name == "cli":
        metrics["cli.bytes_out"] = (
            statistics.mean(r["traced_summary"]["bytes"] for r in ok), "bytes/command"
        )
    else:
        absent["cli.bytes_out"] = "no CLI command in this workload"
    imp, imp_scipy = import_times()
    metrics["cli.import_s"] = (imp, "s")
    metrics["cli.import_scipy_s"] = (imp_scipy, "s")
    metrics["trace.overhead"] = (
        sum(r["traced_ms"] for r in ok) / sum(r["ms"] for r in ok), "1"
    )
    traced_op_ms = statistics.mean(r["traced_ms"] for r in ok)
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "absent": absent,
        "self_ms": rep["self_ms"],
        "traced_op_ms": traced_op_ms,
    }


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
