"""The benchmark's answer checks, run in process on round 0 of two workloads.

bench/worker.py and bench/tracing.py are imported as they are (the
`worker` and `tracing` fixtures of conftest.py), and only their workload
classes and tracer are used: each op of round 0 must pass the check the
benchmark applies to it, the threshold solves of round 0 must stay within
a classifier budget, the profile and threshold ops of round 0 must take
the pinned number of steps, and the README commands must write the same bytes with
the tracer installed as without it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import statistics

import pytest


@pytest.mark.parametrize("name, n_ops", [("threshold", 16), ("profiles", 8)])
def test_round_zero_passes_its_checks(worker, name, n_ops):
    wl = worker.WORKLOADS[name](0)
    wl.prepare()
    ops = wl.round(0)
    assert len(ops) == n_ops
    for op in ops:
        assert wl.check(op, wl.summary(op, wl.run(op))) is None, wl.describe(op)


def test_threshold_seed_needs_few_classifications(worker, monkeypatch):
    # Work, not wall time: the manifold estimate seeds a bracket already at
    # the bisection width, so most solves classify just its two ends.
    from kswave import shooting

    calls = []
    original = shooting.classify_trajectory

    def counted(*args, **kwargs):
        calls[-1] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(shooting, "classify_trajectory", counted)
    wl = worker.WORKLOADS["threshold"](0)
    wl.prepare()
    methods = []
    for op in wl.round(0):
        calls.append(0)
        methods.append(wl.run(op).method)
    assert len(calls) == 16
    assert statistics.median(calls) == 2
    assert max(calls) <= 20
    assert methods == ["Both"] * 16


# Stage evaluations per call of a kernel that evaluates its field inline:
# the orbit's and the blow-up tail's DOP853 kernels at stages 2 to 13, the
# boundary leg's DP54 kernel at stages 2 to 7.
KERNEL_EVALS = 12
TAIL_KERNEL_EVALS = 12
BOUNDARY_KERNEL_EVALS = 6


def round_zero_work(worker, monkeypatch, name: str) -> list[list[int]]:
    """Per op of round 0 (seed 0) of workload `name`: [accepted steps,
    right-hand-side evaluations, step attempts] of every march the op runs,
    orbits, blow-up tails and graph legs together, and then every
    evaluation of an orbit's field, by the orbit kernel (`_dop853_step`)
    or by `make_log_rhs`.  The march's evaluations are those the steps
    make, rejected steps included; the orbit field's count adds each
    orbit's start and event location.  A kernel that evaluates its field
    inline (`_dop853_step`, `_tail_step`, `_boundary_step`) counts its
    stages per call, which a call that raises in a stage has not made, so
    none may raise."""
    integrate = importlib.import_module("kswave.integrate")
    march, make_log_rhs = integrate._march, integrate.make_log_rhs
    work = []

    def counted_field(p):
        f = make_log_rhs(p)

        def field(*x):
            work[-1][3] += 1
            return f(*x)

        return field

    def not_raising(kernel, orbit=False):
        def counted_kernel(*x):
            if orbit:
                work[-1][3] += KERNEL_EVALS
            try:
                return kernel(*x)
            except Exception as exc:
                raise AssertionError("a kernel step raised: its evaluations are miscounted") from exc

        return counted_kernel

    kernels = {
        "_dop853_step": (not_raising(integrate._dop853_step, orbit=True), KERNEL_EVALS),
        "_tail_step": (not_raising(integrate._tail_step), TAIL_KERNEL_EVALS),
        "_boundary_step": (not_raising(integrate._boundary_step), BOUNDARY_KERNEL_EVALS),
    }
    inline = dict(kernels.values())

    def counted(step, f, *args, **kwargs):
        evals = inline.get(step)

        def field(*x):
            work[-1][1] += 1
            return f(*x)

        def attempt(*x):
            work[-1][2] += 1
            if evals:
                work[-1][1] += evals
            return step(*x)

        # a kernel takes its field's constants, not a function to count
        for item in march(attempt, f if evals else field, *args, **kwargs):
            work[-1][0] += 1
            yield item

    wl = worker.WORKLOADS[name](0)
    wl.prepare()
    monkeypatch.setattr(integrate, "_march", counted)
    monkeypatch.setattr(integrate, "make_log_rhs", counted_field)
    for kernel_name, (kernel, _) in kernels.items():
        monkeypatch.setattr(integrate, kernel_name, kernel)
    for op in wl.round(0):
        work.append([0, 0, 0, 0])
        wl.run(op)
    return work


# Per op of profiles round 0: accepted steps and evaluations.
PROFILES_ROUND_0_WORK = [
    (135, 1260),
    (213, 2070),
    (109, 1098),
    (212, 1926),
    (147, 1398),
    (161, 1740),
    (183, 1686),
    (240, 2400),
]
# Round 0's accepted steps and evaluations while blow-up tails stepped with
# DP54 from a located switch (the per-op pins summed).
PROFILES_ROUND_0_WORK_DP54_TAILS = (1541, 13614)
# Round 0's accepted steps while blow-up ends were marched in s up to v_max.
PROFILES_ROUND_0_STEPS_IN_S = 9802
# Round 0's accepted steps and evaluations while orbits stepped with DP54
# (blow-up tails already in ln|v|).
PROFILES_ROUND_0_WORK_DP54 = (5011, 31368)
# Round 0's accepted steps, evaluations and step attempts while orbits
# marched w itself, and every march took the I controller alone.
PROFILES_ROUND_0_WORK_IN_W = (1569, 17160, 1983)


def test_profiles_work_is_pinned(worker, monkeypatch):
    # Work, not wall time: a change that makes the same answers cost more
    # steps or evaluations shows here.
    work = round_zero_work(worker, monkeypatch, "profiles")
    assert [(acc, evals) for acc, evals, _, _ in work] == PROFILES_ROUND_0_WORK
    steps, evals, attempts, _ = map(sum, zip(*work))
    # marching blow-up tails in ln|v| saves at least a third of the steps
    assert steps <= 2 * PROFILES_ROUND_0_STEPS_IN_S / 3
    # stepping orbits with DOP853 in place of DP54 saves over 60 % of the
    # steps and 40 % of the evaluations
    dp54_steps, dp54_evals = PROFILES_ROUND_0_WORK_DP54
    assert steps <= 0.4 * dp54_steps
    assert evals <= 0.6 * dp54_evals
    # marching ln w with the predictive controller saves over 15 % of the
    # evaluations, and rejects at most 5 % of the attempts where the I
    # controller in w rejected 21 %
    assert evals <= 0.85 * PROFILES_ROUND_0_WORK_IN_W[1]
    assert attempts - steps <= 0.05 * attempts
    # stepping blow-up tails with DOP853 from the step that crosses the
    # switch saves over 5 % of the steps, at no more evaluations
    tail_steps, tail_evals = PROFILES_ROUND_0_WORK_DP54_TAILS
    assert steps <= 0.95 * tail_steps
    assert evals <= tail_evals


# Per op of threshold round 0: accepted steps and evaluations.
THRESHOLD_ROUND_0_WORK = [
    (132, 1608),
    (128, 1692),
    (139, 1692),
    (87, 1128),
    (143, 1788),
    (83, 1056),
    (97, 1224),
    (153, 1884),
    (221, 2676),
    (91, 1128),
    (158, 1956),
    (197, 2388),
    (106, 1272),
    (118, 1464),
    (95, 1248),
    (119, 1464),
]
# Per op of threshold round 0: evaluations of the orbits' field, event
# location included.
THRESHOLD_ROUND_0_ORBIT_EVALS = [
    1722, 1844, 1806, 1242, 1902, 1170, 1338, 1998, 2790, 1242, 2070, 2502, 1314, 1616, 1362, 1578,
]
# Round 0's accepted steps while manifold traces were seeded 1e-7 off the
# saddle on the eigenvector.
THRESHOLD_ROUND_0_STEPS_LINEAR_SEED = 2200
# Round 0's accepted steps and evaluations while orbits marched w itself
# with the I controller alone, and manifold traces tried the +1 branch first.
THRESHOLD_ROUND_0_WORK_IN_W = (3510, 48408)
# Round 0's orbit-field evaluations outside the marches (orbit starts and
# event location) while events were located by Brent's method on partial
# DOP853 steps.
THRESHOLD_ROUND_0_LOCATION_EVALS_BRENT = 7542
# Round 0's orbit-field evaluations while events were located on DOP853's
# 7th-order continuous extension (contd8: the 12 stages rebuilt, 3 more).
THRESHOLD_ROUND_0_ORBIT_EVALS_CONTD8 = 27640


def test_threshold_work_is_pinned(worker, monkeypatch):
    # Work, not wall time, as for the profiles above.
    work = round_zero_work(worker, monkeypatch, "threshold")
    assert [(acc, evals) for acc, evals, _, _ in work] == THRESHOLD_ROUND_0_WORK
    assert [w[3] for w in work] == THRESHOLD_ROUND_0_ORBIT_EVALS
    # seeding manifold traces 1e-4 off the saddle on the manifold's
    # quadratic expansion saves over 5 % of the steps
    assert sum(w[0] for w in work) <= 0.95 * THRESHOLD_ROUND_0_STEPS_LINEAR_SEED
    evals = sum(w[1] for w in work)
    assert evals <= 0.8 * THRESHOLD_ROUND_0_WORK_IN_W[1]
    # locating events on a step's continuous extension, with one Newton
    # correction on the exact partial step, saves over 70 % of the
    # evaluations outside the marches
    outside = sum(w[3] for w in work) - evals
    assert outside <= 0.3 * THRESHOLD_ROUND_0_LOCATION_EVALS_BRENT
    # the midpoint quintic's half step costs no more than contd8's stages
    assert sum(w[3] for w in work) <= THRESHOLD_ROUND_0_ORBIT_EVALS_CONTD8


def readme_outputs(worker, root, monkeypatch) -> dict:
    """Every file the benchmark's README commands write, and each one's
    standard output, by path, from runs of `kswave.cli.main` in process,
    each command in its own directory under root."""
    from kswave import cli

    tree = {}
    for label, text in worker.Cli.COMMANDS:
        argv = text.split()
        if label == "sweep":
            argv += ["--seed", "1"]
        d = root / label
        d.mkdir(parents=True)
        monkeypatch.chdir(d)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            # looked up at call time, so an installed tracer's wrapper runs
            rc = cli.main(argv)
        assert rc == 0, label
        tree[f"{label}/stdout"] = buf.getvalue().encode()
        for q in sorted(d.rglob("*")):
            if q.is_file():
                tree[q.relative_to(root).as_posix()] = q.read_bytes()
    return tree


def test_readme_commands_write_the_same_bytes_traced(worker, tracing, tmp_path, monkeypatch):
    # The benchmark's traced cli run calls main in process with every public
    # cross-module kswave function wrapped: state left behind by an earlier
    # in-process call shows here as an exit code or a byte difference.
    bare = readme_outputs(worker, tmp_path / "bare", monkeypatch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = readme_outputs(worker, tmp_path / "traced", monkeypatch)
    finally:
        tracer.uninstall()
    # the wrapped main ran every command
    assert [span[0] for span in tracer.spans].count("cli.main") == len(worker.Cli.COMMANDS)
    assert sorted(traced) == sorted(bare)
    assert [name for name in bare if traced[name] != bare[name]] == []
