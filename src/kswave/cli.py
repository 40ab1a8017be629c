"""Command-line frontend: it parses options, serializes results and maps errors.

Subcommands
-----------
* ``equilibria`` - rest points of the planar system with labels and spectra.
* ``portrait``   - integrate a grid of seed points; one CSV per orbit plus
  an index JSON annotated with the regime case.
* ``shoot``      - locate the critical launch density for a launch slope.
* ``profile``    - build one wave profile (u, S): taxonomy waves by launch
  point, or a saturated front when ``--branch`` is given.
* ``sweep``      - tabulate regime case, threshold, and profile types over
  a parameter grid, optionally spot-checking the classifier with random
  launches.

The computations are library calls: `kswave.phase.equilibria`,
`kswave.shooting.find_w0_star`, and `kswave.profiles.portrait`,
`wave_profile` and `sweep`.  This module maps options to them and their
results to bytes.  Configuration comes from a JSON file (``--config``)
overridden by flags; flags win.  Outputs are strict JSON (sorted keys;
infinities as the strings "inf"/"-inf") and CSV (full round-trip float
repr), so identical configuration and seed produce identical bytes.

Exit codes: 0 success; 2 configuration error: bad flags or values, an
empty grid, or a ``PreconditionError`` (``DegenerateError`` included)
that the library decides from the parameters alone, before any
integration; 3 numerical failure found during a computation, a NaN in an
output record or an infinity in a CSV row included (no file is written
then).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import NUMERICAL_FAILURES, PreconditionError
from .flux import LARSON, LINEAR, RELATIVISTIC
from .integrate import Controls, sample_list
from .phase import ModelParams, equilibria, params_from_config
from .profiles import continuation_coefficients, portrait, sweep, wave_profile
from .shooting import find_w0_star


class ConfigError(ValueError):
    """Bad flag/config values; reported with exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one CLI invocation."""

    command: str  # subcommand name
    params: ModelParams  # model parameters
    controls: Controls  # integration tolerances
    out: Path | None  # output directory (None: print only)
    seed: int  # RNG seed for randomized sweeps
    options: dict  # command-specific options, already merged


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def _jsonable(x):
    """A record as strict JSON holds it: infinite floats become the strings
    "inf" and "-inf"; a NaN is a numerical failure (FloatingPointError).
    numpy arrays and scalars are read through their `tolist()`."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if hasattr(x, "tolist"):
        return _jsonable(x.tolist())
    if isinstance(x, complex):
        return [_jsonable(x.real), _jsonable(x.imag)]
    if isinstance(x, float):
        if math.isnan(x):
            raise FloatingPointError("NaN in an output record")
        return x if math.isfinite(x) else repr(x)
    return x


def _json_bytes(obj) -> bytes:
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
    return (text + "\n").encode()


def _csv_bytes(header: list[str], columns: list[list[float]]) -> bytes:
    """CSV rows of float columns; a NaN or an infinity is a numerical
    failure (FloatingPointError), named by the first record that holds one."""
    columns = [list(map(float, col)) for col in columns]
    if not all(all(map(math.isfinite, col)) for col in columns):
        for row in zip(*columns):
            if not all(map(math.isfinite, row)):
                kind = "NaN" if any(map(math.isnan, row)) else "an infinity"
                raise FloatingPointError(f"{kind} in an output record")
    rows = map(",".join, zip(*(map(repr, col) for col in columns)))
    return ("\n".join([",".join(header), *rows]) + "\n").encode()


def _write(path: Path, data: bytes) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


# --------------------------------------------------------------------------
# argument parsing and config assembly
# --------------------------------------------------------------------------


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    grp = common.add_argument_group("model and run options")
    grp.add_argument("--config", help="JSON config file; flags override its keys")
    grp.add_argument("--out", help="output directory for emitted files")
    grp.add_argument("--rtol", type=float, help="relative integration tolerance")
    grp.add_argument("--atol", type=float, help="absolute integration tolerance")
    grp.add_argument("--a", type=float, help="sensitivity exponent a")
    grp.add_argument("--sigma", type=float, help="wave speed sigma")
    grp.add_argument("--gamma", type=float, help="signal diffusivity gamma")
    grp.add_argument("--lambda", dest="lam", type=float, help="signal decay rate lambda")
    grp.add_argument(
        "--limiter",
        choices=[LINEAR, RELATIVISTIC, LARSON],
        help="flux limiter kind",
    )
    grp.add_argument("--mu", type=float, help="flux mobility mu")
    grp.add_argument("--c", type=float, help="flux saturation bound c")
    grp.add_argument("--p", type=float, help="flux saturation exponent p (larson)")
    grp.add_argument("--seed", type=int, help="RNG seed for randomized checks")

    parser = argparse.ArgumentParser(
        prog="kswave",
        description="Traveling-wave solver for log-sensitivity chemotaxis models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("equilibria", parents=[common], help="list rest points with labels")

    por = sub.add_parser("portrait", parents=[common], help="integrate a grid of seeds")
    por.add_argument("--w-grid", type=_float_list, help="comma-separated launch densities")
    por.add_argument("--v-grid", type=_float_list, help="comma-separated launch slopes")

    sho = sub.add_parser("shoot", parents=[common], help="locate the critical launch density")
    sho.add_argument("--v0", type=float, help="launch slope")
    sho.add_argument("--bracket", type=float, nargs=2, metavar=("LO", "HI"),
                     help="initial density bracket hint")
    sho.add_argument("--method", choices=["bisection", "manifold", "both"],
                     help="threshold location method (default both)")

    pro = sub.add_parser("profile", parents=[common], help="build one wave profile")
    pro.add_argument("--w0", type=float, help="launch density ratio u0/S0")
    pro.add_argument("--v0", type=float, help="launch slope")
    pro.add_argument("--s0", type=float, help="anchor coordinate (default 0)")
    pro.add_argument("--S0", type=float, help="signal normalization at s0 (default 1)")
    pro.add_argument("--u0", type=float, help="optional density at s0; must equal w0*S0")
    pro.add_argument("--w0-star", dest="w0_star", type=float,
                     help="precomputed critical density (skips the threshold solve)")
    pro.add_argument("--branch", choices=["above", "below"],
                     help="build a saturated front on this branch instead")

    swe = sub.add_parser("sweep", parents=[common], help="tabulate a parameter grid")
    swe.add_argument("--a-values", type=_float_list, help="comma-separated a values")
    swe.add_argument("--sigma-factors", type=_float_list,
                     help="sigma as multiples of the case-splitting speed")
    swe.add_argument("--v0-factor", type=float,
                     help="launch slope as a multiple of the wave speed bound (default 2)")
    swe.add_argument("--check-samples", type=int,
                     help="random classifier checks per grid point (default 0)")
    swe.add_argument("--workers", type=int,
                     help="no effect: a sweep runs in one process (an integer of at least 1)")
    return parser


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


def _merged(args: argparse.Namespace, cfg: dict, key: str, default=None, attr=None):
    val = getattr(args, attr if attr is not None else key, None)
    if val is None:
        val = cfg.get(key, default)
    return val


def _count(args: argparse.Namespace, cfg: dict, key: str, default: int) -> int:
    """An integer option; a config file's float, bool or string is refused, not truncated."""
    val = _merged(args, cfg, key)
    if val is None:
        return default
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"--{key.replace('_', '-')} must be an integer, got {val!r}")
    return val


def _model_dict(args: argparse.Namespace, cfg: dict, require_point: bool = True) -> dict:
    d: dict = {}
    for key, attr in (("a", "a"), ("sigma", "sigma"), ("gamma", "gamma"), ("lambda", "lam")):
        val = _merged(args, cfg, key, attr=attr)
        if val is not None:
            d[key] = val
    lim = cfg.get("limiter")
    lim_cfg: dict = dict(lim) if isinstance(lim, dict) else {}
    if isinstance(lim, str):
        lim_cfg = {"kind": lim}
    for key, attr in (("kind", "limiter"), ("mu", "mu"), ("c", "c"), ("p", "p")):
        val = getattr(args, attr, None)
        if val is None:
            val = cfg.get(key) if key != "kind" else None
        if val is not None:
            lim_cfg[key] = val
    if lim_cfg:
        d["limiter"] = lim_cfg
    if require_point:
        if "a" not in d or "sigma" not in d:
            raise ConfigError("the model needs --a and --sigma (flags or config keys)")
    else:
        # Sweeps take a and sigma from the grid; the base model only
        # contributes gamma, lambda, and the limiter.
        d.setdefault("a", 1.0)
        d.setdefault("sigma", 1.0)
    return d


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = _load_config_file(args.config)
    try:
        params = params_from_config(
            _model_dict(args, cfg, require_point=args.command != "sweep")
        )
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc

    extra = cfg.get("controls", {})
    if not isinstance(extra, dict):
        raise ConfigError("config key 'controls' must be an object")
    extra = dict(extra)
    for key in ("rtol", "atol"):
        val = _merged(args, cfg, key)
        if val is not None:
            extra[key] = float(val)
    try:
        controls = Controls(**extra)
    except TypeError as exc:
        raise ConfigError(f"invalid controls: {exc}") from exc

    out = _merged(args, cfg, "out")
    seed = _count(args, cfg, "seed", default=0)
    if seed < 0:
        raise ConfigError("--seed must be non-negative")

    builder = _OPTION_BUILDERS[args.command]
    try:
        options = builder(args, cfg, params)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(
        command=args.command,
        params=params,
        controls=controls,
        out=None if out is None else Path(out),
        seed=seed,
        options=options,
    )


def _options_equilibria(args, cfg, params) -> dict:
    return {}


def _options_portrait(args, cfg, params) -> dict:
    w_grid = _merged(args, cfg, "w_grid")
    v_grid = _merged(args, cfg, "v_grid")
    if not w_grid or not v_grid:
        raise ConfigError("portrait needs non-empty --w-grid and --v-grid")
    return {"w_grid": [float(x) for x in w_grid], "v_grid": [float(x) for x in v_grid]}


def _options_shoot(args, cfg, params) -> dict:
    v0 = _merged(args, cfg, "v0")
    if v0 is None:
        raise ConfigError("shoot needs --v0")
    bracket = _merged(args, cfg, "bracket")
    if bracket is not None:
        bracket = tuple(float(b) for b in bracket)
        if len(bracket) != 2:
            raise ConfigError("--bracket needs two values LO HI")
    method = str(_merged(args, cfg, "method", default="both"))
    return {"v0": float(v0), "bracket": bracket, "method": method}


def _options_profile(args, cfg, params) -> dict:
    w0 = _merged(args, cfg, "w0")
    v0 = _merged(args, cfg, "v0")
    if w0 is None or v0 is None:
        raise ConfigError("profile needs --w0 and --v0")
    w0, v0 = float(w0), float(v0)
    s0 = float(_merged(args, cfg, "s0", default=0.0))
    S0 = float(_merged(args, cfg, "S0", default=1.0))
    u0 = _merged(args, cfg, "u0")
    branch = _merged(args, cfg, "branch")
    w0_star = _merged(args, cfg, "w0_star")
    return {
        "w0": w0,
        "v0": v0,
        "s0": s0,
        "S0": S0,
        "u0": None if u0 is None else float(u0),
        "branch": None if branch is None else str(branch),
        "w0_star": None if w0_star is None else float(w0_star),
    }


def _options_sweep(args, cfg, params) -> dict:
    a_values = _merged(args, cfg, "a_values")
    sigma_factors = _merged(args, cfg, "sigma_factors")
    if not a_values or not sigma_factors:
        raise ConfigError("sweep needs non-empty --a-values and --sigma-factors")
    # --workers has no effect, but command lines that set it stay valid
    workers = _count(args, cfg, "workers", default=1)
    if workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers!r}")
    return {
        "a_values": [float(x) for x in a_values],
        "sigma_factors": [float(x) for x in sigma_factors],
        "v0_factor": float(_merged(args, cfg, "v0_factor", default=2.0)),
        "check_samples": _count(args, cfg, "check_samples", default=0),
    }


_OPTION_BUILDERS = {
    "equilibria": _options_equilibria,
    "portrait": _options_portrait,
    "shoot": _options_shoot,
    "profile": _options_profile,
    "sweep": _options_sweep,
}


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_equilibria(cfg: RunConfig) -> int:
    records = [asdict(eq) for eq in equilibria(cfg.params)]
    report = {"params": cfg.params.to_dict(), "equilibria": records}
    data = _json_bytes(report)
    sys.stdout.write(data.decode())
    if cfg.out is not None:
        _write(cfg.out / "equilibria.json", data)
    return 0


def cmd_portrait(cfg: RunConfig) -> int:
    p = cfg.params
    seeds = list(itertools.product(cfg.options["w_grid"], cfg.options["v_grid"]))
    case, orbits = portrait(p, seeds, controls=cfg.controls)
    records = []
    files = {}
    outdir = (cfg.out or Path(".")) / "portrait"
    for i, ((w0, v0), traj) in enumerate(zip(seeds, orbits)):
        name = f"seed_{i:03d}.csv"
        files[name] = _csv_bytes(
            ["s", "w", "v", "I"], [sample_list(traj, c) for c in ("s", "w", "v", "integral")]
        )
        low_ev, high_ev = traj.end_events()
        records.append(
            {
                "file": name,
                "w0": w0,
                "v0": v0,
                "terminations": {
                    "backward": None if low_ev is None else low_ev.kind,
                    "forward": None if high_ev is None else high_ev.kind,
                },
                "s_minus": traj.s_minus,
                "s_plus": traj.s_plus,
            }
        )
    index = {"params": p.to_dict(), "case": case, "seeds": records}
    files["index.json"] = _json_bytes(index)
    for name, data in files.items():
        _write(outdir / name, data)
    sys.stdout.write(f"portrait: {len(records)} orbits in {outdir} (case {case})\n")
    return 0


def cmd_shoot(cfg: RunConfig) -> int:
    opt = cfg.options
    result = find_w0_star(
        cfg.params,
        opt["v0"],
        bracket_hint=opt["bracket"],
        method=opt["method"],
        controls=cfg.controls,
    )
    report = {"params": cfg.params.to_dict(), **asdict(result)}
    data = _json_bytes(report)
    sys.stdout.write(data.decode())
    if cfg.out is not None:
        _write(cfg.out / "threshold.json", data)
    return 0


def cmd_profile(cfg: RunConfig) -> int:
    p = cfg.params
    prof, w0_star = wave_profile(p, controls=cfg.controls, **cfg.options)
    meta = {
        "params": p.to_dict(),
        "anchors": prof.anchors,
        "w0_star": w0_star,
        "s_minus": prof.s_minus,
        "s_plus": prof.s_plus,
        "u_type": prof.u_type,
        "S_type": prof.S_type,
        "end_limits": prof.end_limits,
        "endpoint_slopes": prof.endpoint_slopes,
        "continuation_coefficients": continuation_coefficients(prof, p),
    }
    meta_bytes = _json_bytes(meta)
    outdir = cfg.out or Path(".")
    columns = [sample_list(prof, c) for c in ("s", "u", "S")]
    _write(outdir / "profile.csv", _csv_bytes(["s", "u", "S"], columns))
    _write(outdir / "profile_meta.json", meta_bytes)
    def _edge(x) -> str:
        return "None" if x is None else repr(float(x))

    sys.stdout.write(
        f"profile: types ({prof.u_type}, {prof.S_type}), "
        f"edges ({_edge(prof.s_minus)}, {_edge(prof.s_plus)}), "
        f"{len(columns[0])} samples in {outdir}\n"
    )
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    opt = cfg.options
    rows = sweep(cfg.params, seed=cfg.seed, controls=cfg.controls, **opt)
    report = {
        "seed": cfg.seed,
        "v0_factor": opt["v0_factor"],
        "points": rows,
    }
    data = _json_bytes(report)
    if cfg.out is not None:
        _write(cfg.out / "sweep.json", data)
    for row in rows:
        w0s = row.get("w0_star")
        types = row.get("types") or {}
        sys.stdout.write(
            f"a={row['a']:g} sigma={row['sigma']:.6g} case={row['case']} "
            f"w0_star={'-' if w0s is None else format(w0s, '.12g')} "
            f"types_sub={types.get('sub')}\n"
        )
    return 0


_DISPATCH = {
    "equilibria": cmd_equilibria,
    "portrait": cmd_portrait,
    "shoot": cmd_shoot,
    "profile": cmd_profile,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; keep its verdict.
        return int(exc.code or 0)
    try:
        cfg = _build_config(args)
        return _DISPATCH[cfg.command](cfg)
    except (ConfigError, PreconditionError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
