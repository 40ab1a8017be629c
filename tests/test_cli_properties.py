"""The CLI contract as a property over random commands.

Each draw is one command (`equilibria`, `portrait`, `shoot`, `profile` with
or without `--branch`, or a one-point `sweep`) with a random limiter,
random a, sigma, v0 and w0, and `--rtol` unset, 1e-8 or 1e-12, run in
process through `kswave.cli.main`:

* the exit code is 0, 2 or 3, and nothing escapes;
* exit 2 comes before any orbit or graph integration;
* a launch slope outside the slope domain exits 2;
* no output holds a `NaN` or `Infinity` token, or an infinite CSV value;
* a second run writes the same bytes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kswave import cli
from kswave.flux import LARSON, LINEAR, RELATIVISTIC, FluxLimiter
from kswave.phase import ModelParams

COMMANDS = ("equilibria", "portrait", "shoot", "profile", "profile-branch", "sweep")
# the modules that start orbits or graph legs
INTEGRATING = ("integrate", "shooting", "profiles", "cli")


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def commands(draw):
    command = draw(st.sampled_from(COMMANDS))
    kind = draw(st.sampled_from((LINEAR, RELATIVISTIC, LARSON)))
    a = draw(log_uniform(0.2, 5.0))
    sigma = draw(log_uniform(0.02, 5.0))
    v0 = draw(st.sampled_from((-1.0, 1.0))) * draw(log_uniform(0.1, 10.0))
    w0 = draw(log_uniform(1e-3, 1e2))
    argv = [command.split("-")[0], "--limiter", kind]
    lim = {"kind": kind}
    if kind != LINEAR:
        lim["c"] = draw(log_uniform(0.2, 5.0))
        argv += ["--c", repr(lim["c"])]
    if kind == LARSON:
        lim["p"] = draw(st.floats(1.2, 4.0))
        argv += ["--p", repr(lim["p"])]
    if command == "sweep":
        argv += ["--a-values", repr(a), "--sigma-factors", repr(draw(st.floats(0.2, 2.0))),
                 "--check-samples", "1", "--seed", "3"]
    else:
        argv += ["--a", repr(a), "--sigma", repr(sigma)]
    if command == "portrait":
        argv += ["--w-grid", repr(w0), f"--v-grid={v0!r}"]
    elif command in ("shoot", "profile", "profile-branch"):
        argv.append(f"--v0={v0!r}")
    if command.startswith("profile"):
        argv += ["--w0", repr(w0)]
    if command == "profile-branch":
        argv += ["--branch", draw(st.sampled_from(("above", "below")))]
    rtol = draw(st.sampled_from((None, 1e-8, 1e-12)))
    if rtol is not None:
        argv += ["--rtol", repr(rtol)]
    # a launch slope the slope domain cannot hold is decided from the
    # parameters alone
    outside = False
    if command in ("portrait", "shoot", "profile", "profile-branch"):
        try:
            lo, hi = ModelParams(a=a, sigma=sigma, limiter=FluxLimiter(**lim)).slope_domain
            outside = not lo < v0 < hi
        except ValueError:
            pass
    return argv, outside


def run(argv: list[str], out) -> tuple[int, bool, dict]:
    """Exit code, whether any integration started, and every output by name."""
    started = []

    def spy(original):
        def wrapped(*args, **kwargs):
            started.append(original.__name__)
            return original(*args, **kwargs)

        return wrapped

    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as m:
        for name in INTEGRATING:
            mod = importlib.import_module(f"kswave.{name}")
            for attr in ("integrate", "integrate_graph_W"):
                if hasattr(mod, attr):
                    m.setattr(mod, attr, spy(getattr(mod, attr)))
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--out", str(out)])
    # messages name the output directory, which differs between runs
    outputs = {name: buf.getvalue().replace(str(out), "OUT").encode()
               for name, buf in (("stdout", stdout), ("stderr", stderr))}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            outputs[path.relative_to(out).as_posix()] = path.read_bytes()
    return code, bool(started), outputs


@settings(max_examples=25, deadline=timedelta(seconds=20), database=None)
@given(draw=commands())
def test_cli_contract(tmp_path_factory, draw):
    argv, outside = draw
    code, started, outputs = run(argv, tmp_path_factory.mktemp("first"))
    assert code in (0, 2, 3), (argv, outputs["stderr"])
    if code == 2:
        assert not started, argv
    if outside:
        assert code == 2, (argv, outputs["stderr"])
    for name, data in outputs.items():
        text = data.decode()
        assert "NaN" not in text and "Infinity" not in text, (argv, name)
        if name.endswith(".csv"):
            for line in text.splitlines()[1:]:
                assert all(math.isfinite(float(x)) for x in line.split(",")), (argv, name)
    again = run(argv, tmp_path_factory.mktemp("again"))
    assert again == (code, started, outputs), argv
