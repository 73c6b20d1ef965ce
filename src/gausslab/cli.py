"""Command-line driver.

Subcommands: validate, classify, decompose, entropy, purity, majorize,
additivity, strictgap, wehrl, berezinlieb, selftest.

Exit codes (:data:`EXIT_CODES`): 0 success / all assertions pass; 1 usage
or IO error; 2 a failed assertion (the report carries the worst offender)
or any other library error, such as an invalid channel (``InvalidNoise``),
a channel the Fock oracle cannot realize (``NotDiagonal``) or an exceeded
truncation budget (``TruncationLeakage``, ``TailMassTooLarge``).  Reports
are JSON (sorted keys, LF endings) and embed the configuration echo, the
library version, the tolerances in force, and truncation-leakage
statistics, so a repeated run with the same configuration is
byte-identical.  The configuration echo is the parsed command line
(:func:`_config`): every option the subcommand defines except output paths
and print formats, with the Renyi order only where a Renyi functional reads
it and the thread count only for majorize, additivity and wehrl, the
commands that take --threads.  Randomized commands require an explicit
--seed; there is no wall-clock default.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__, fock, husimi as hu, majorization as mj, suite
from .channels import (
    channel_to_dict,
    classify,
    decompose,
    load_channel,
    strictness_conditions,
)
from .errors import (
    AmplitudeTooLarge,
    DimensionTooLarge,
    FileFormatError,
    GaussLabError,
    UsageError,
    ValidityError,
)
from .majorization import rows_to_csv
from .states import (
    minimal_output_entropy,
    minimal_output_renyi,
    output_purity,
    purity_determinant,
)

LN2 = float(np.log(2.0))


# The configuration echo is read off the parsed command line.  Options are
# echoed under these report names where they differ from the argparse dest;
# output paths and print formats are not echoed; the options listed in
# _TOP_LEVEL sit at the top of ``config`` and every other one under
# ``extra``, in parser order.
_ECHO_NAMES = {"channel": "channels", "channel_a": "channels", "channel_b": "channels",
               "out": "output", "tol": "tolerance", "support": "sample_support",
               "f": "functional"}
_NOT_ECHOED = frozenset({"csv", "field_csv", "quiet", "bits"})
_TOP_LEVEL = frozenset({"command", "channels", "p", "samples", "seed", "cutoff",
                        "grid_radius", "grid_step", "tolerance", "threads", "output"})


def _threads_default() -> int:
    """GAUSSLAB_THREADS under --threads' rule; unset or empty means 1."""
    env = os.environ.get("GAUSSLAB_THREADS", "")
    try:
        return _int_at_least(1)(env) if env else 1
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"GAUSSLAB_THREADS must be an integer >= 1, got {env!r}") from None


def _config(args: argparse.Namespace) -> dict:
    """The options a command ran with, as its report echoes them.  Unset
    options are left out, and so is a Renyi order that no functional reads
    (``--f vn``)."""
    config, extra = {}, []
    for dest, value in vars(args).items():
        if (value is None or dest in _NOT_ECHOED
                or (dest == "p" and getattr(args, "f", "renyi") == "vn")):
            continue
        name = _ECHO_NAMES.get(dest, dest)
        if name == "channels":
            config.setdefault(name, []).append(value)
        elif name in _TOP_LEVEL:
            config[name] = value
        else:
            extra.append([name, value])
    if extra:
        config["extra"] = extra
    return config


def _report(args: argparse.Namespace, results: dict, tolerances: dict,
            leakage: dict | None = None, passed: bool | None = None) -> dict:
    body = {
        "command": args.command,
        "config": _config(args),
        "version": __version__,
        "tolerances": tolerances,
        "results": results,
        "leakage": leakage or {},
    }
    if passed is not None:
        body["pass"] = passed
    return body


def _functional(name: str, p: float) -> mj.ConcaveFunctional:
    if name == "vn":
        return mj.von_neumann_functional()
    if name == "renyi":
        return mj.renyi_functional(p)
    raise UsageError(f"unknown functional '{name}' (use vn or renyi)")


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns its report; a report without a "pass"
# verdict passes.  A handler's pass rule reads the tolerances its report
# prints.
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> dict:
    tolerances = {"validity": args.tol}
    try:
        ch = load_channel(args.channel, tol=args.tol)
    except ValidityError as exc:
        return _report(args, {"valid": False, "reason": str(exc)}, tolerances, passed=False)
    cls = classify(ch, tol=args.tol)
    return _report(args, {"valid": True, "class": cls.value, "modes": ch.modes},
                   tolerances, passed=True)


def _cmd_classify(args) -> dict:
    ch = load_channel(args.channel, tol=args.tol)
    strict = strictness_conditions(ch, tol=args.tol)
    results = {
        "class": classify(ch, tol=args.tol).value,
        "condition_a": strict.condition_a,
        "condition_b": strict.condition_b,
        "min_singular_value": strict.min_singular_value,
    }
    return _report(args, results, {"classification": args.tol})


def _cmd_decompose(args) -> dict:
    ch = load_channel(args.channel, tol=args.tol)
    dec = decompose(ch)
    rec = dec.reconstruct()
    err = max(float(np.abs(rec.K - ch.K).max()), float(np.abs(rec.mu - ch.mu).max()))
    results = {
        "attenuator": channel_to_dict(dec.attenuator),
        "amplifier": channel_to_dict(dec.amplifier),
        "roundtrip_error": err,
    }
    tolerances = {"roundtrip": 1e-10}
    return _report(args, results, tolerances, passed=err <= tolerances["roundtrip"])


def _cmd_entropy(args) -> dict:
    ch = load_channel(args.channel)
    unit = LN2 if args.bits else 1.0
    results = {
        "von_neumann": minimal_output_entropy(ch) / unit,
        "unit": "bits" if args.bits else "nats",
    }
    if args.p is not None:
        results[f"renyi_{args.p:g}"] = minimal_output_renyi(ch, args.p) / unit
    return _report(args, results, {})


def _cmd_purity(args) -> dict:
    ch = load_channel(args.channel)
    # both the determinant and its reciprocal are reported; the reciprocal is
    # the physical purity (Tr rho^p <= 1)
    results = {
        "nu_p": output_purity(ch, args.p),
        "det_value": purity_determinant(ch, args.p),
        "p": args.p,
    }
    return _report(args, results, {})


def _cmd_majorize(args) -> dict:
    ch = load_channel(args.channel)
    sweep = mj.majorization_sweep(ch, n_samples=args.samples, seed=args.seed,
                                  cutoff=args.cutoff, sample_support=args.support,
                                  threads=args.threads)
    reports = mj.optimality_reports(sweep, mj.default_functionals())
    min_gap = min(r.gap for r in reports)
    tolerances = {"gap": 1e-8, "partial_sums": mj.MAJORIZATION_TOL}
    passed = (min_gap >= -tolerances["gap"]
              and sweep.worst_deficit <= tolerances["partial_sums"])
    all_rows = [row for rep in reports for row in rep.rows] + list(sweep.rows)
    if args.csv:
        rows_to_csv(all_rows, args.csv)
    results = {
        "optimality": {rep.functional: {"vacuum_value": rep.vacuum_value,
                                        "gap": rep.gap,
                                        "best_input": rep.best_input_descriptor}
                       for rep in reports},
        "majorization": {"passes": sweep.passes, "total": sweep.total,
                         "worst_deficit": sweep.worst_deficit,
                         "worst_input": sweep.worst_input},
        "min_gap": min_gap,
    }
    leak = {"max": max(r.leakage for r in all_rows), "rejected": sweep.rejected}
    return _report(args, results, tolerances, leak, passed)


def _cmd_additivity(args) -> dict:
    a = load_channel(args.channel_a)
    b = load_channel(args.channel_b)
    rep = mj.additivity_test(a, b, args.p, n_samples=args.samples, seed=args.seed,
                             cutoff=args.cutoff, threads=args.threads)
    tolerances = {"bound_slack": 1e-8, "vacuum": 1e-6}
    passed = (rep.max_sample_value <= rep.bound + tolerances["bound_slack"]
              and abs(rep.vacuum_value - rep.bound) <= tolerances["vacuum"])
    if args.csv:
        rows_to_csv(rep.rows, args.csv)
    results = {"bound": rep.bound, "vacuum_value": rep.vacuum_value,
               "max_sample_value": rep.max_sample_value, "samples": rep.samples}
    leak = {"max": max((r.leakage for r in rep.rows), default=0.0),
            "rejected": rep.rejected}
    return _report(args, results, tolerances, leak, passed)


def _cmd_strictgap(args) -> dict:
    ch = load_channel(args.channel)
    f = _functional(args.f, args.p)
    rep = mj.strict_gap_probe(ch, f, cutoff=args.cutoff)
    tolerances = {"strict_gap": 1e-4, "coherent": 1e-6}
    passed = (rep.min_gap > tolerances["strict_gap"]
              and abs(rep.coherent_gap) <= tolerances["coherent"])
    results = {
        "vacuum_value": rep.vacuum_value,
        "min_gap": rep.min_gap,
        "coherent_gap": rep.coherent_gap,
        "condition_a": rep.condition_a,
        "condition_b": rep.condition_b,
        "probes": [{"label": r.label, "kind": r.kind, "value": r.value, "gap": r.gap}
                   for r in rep.rows],
    }
    return _report(args, results, tolerances, passed=passed)


def _cmd_wehrl(args) -> dict:
    if args.grid_radius is None:
        # the off-grid tail estimate depends on the radius only through
        # R^2 / (a0 + 1/2), so this gives every a0 the margin of R = 6 at a0 = 1/2
        args.grid_radius = 6.0 * float(np.sqrt(args.a0 + 0.5))
    grid = hu.make_grid(args.grid_radius, args.grid_step)
    f = _functional(args.f, args.p)
    rep = hu.wehrl_optimality_test(args.a0, n_samples=args.samples, seed=args.seed,
                                   grid=grid, f=f, probe_dim=args.probe_dim,
                                   threads=args.threads)
    tolerances = {"gap": 1e-3}
    if args.csv:
        rows_to_csv(rep.rows, args.csv)
    results = {"coherent_value": rep.vacuum_value, "min_value": rep.best_sampled_value,
               "gap": rep.gap, "best_input": rep.best_input_descriptor}
    leak = {"max_tail_mass": max((r.leakage for r in rep.rows), default=0.0)}
    return _report(args, results, tolerances, leak, rep.gap >= -tolerances["gap"])


_PROBE_BUILDERS = {
    "vacuum": lambda space: fock.vacuum_state(space),
    "fock1": lambda space: fock.number_state(space, 1),
    "fock2": lambda space: fock.number_state(space, 2),
}


def _parse_probe(name: str, space: fock.FockSpace) -> fock.PureState:
    if name in _PROBE_BUILDERS:
        return _PROBE_BUILDERS[name](space)
    if name.startswith("coherent:"):
        try:
            zeta = complex(name.split(":", 1)[1])
            if np.isfinite(zeta):
                return fock.coherent_state(zeta, space)
        except (ValueError, AmplitudeTooLarge) as exc:
            raise UsageError(f"bad coherent probe '{name}': {exc}") from exc
        raise UsageError(f"coherent probe '{name}' is not finite")
    raise UsageError(f"unknown probe '{name}' (vacuum, fock1, fock2, coherent:<z>)")


def _cmd_berezinlieb(args) -> dict:
    grid = hu.make_grid(args.grid_radius, args.grid_step)
    space = fock.FockSpace(1, 40)
    probe = _parse_probe(args.probe, space)
    f = _functional(args.f, args.p)
    fields = hu.berezin_lieb_fields(probe, args.c, args.a0, args.a0p, grid,
                                    cutoff=args.cutoff)
    rep = hu.berezin_lieb_check(fields, f)
    conv = hu.convolution_check(fields)
    tolerances = {"sandwich_slack": 1e-3, "convolution": 2e-3}
    passed = (rep.sandwiched(tolerances["sandwich_slack"])
              and conv.sup_deviation <= tolerances["convolution"])
    if args.field_csv:
        # the upper symbol the sandwich integrated, at its nodes c z
        scaled = grid.scaled(args.c)
        hu.field_to_csv(hu.HusimiField(scaled, fields.p_bar_scaled,
                                       hu.estimate_tail_mass(fields.sigma, args.a0p, scaled)),
                        args.field_csv)
    results = {"lower": rep.lower, "middle": rep.middle, "upper": rep.upper,
               "min_slack": rep.min_slack, "convolution_deviation": conv.sup_deviation}
    return _report(args, results, tolerances, passed=passed)


def _cmd_selftest(args) -> dict:
    results = suite.run_all(scale=args.scale, verbose=not args.quiet)
    passed = all(r.passed for r in results)
    body = {
        "criteria": [{"id": r.cid, "name": r.name, "pass": r.passed,
                      "details": r.details} for r in results],
        "all_pass": passed,
    }
    return _report(args, body, {"scale": args.scale}, passed=passed)


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``, else a usage error.
    Sweeps take --samples >= 1 (no samples must never report a pass),
    --support and --probe-dim >= 1 (a sample occupies at least the vacuum),
    --threads >= 1 and --seed >= 0 (NumPy seeds are non-negative), and every
    --cutoff is >= 2, the smallest Fock space."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its error messages
    return parse


def _finite_float(low: float, strict: bool):
    """argparse type: a finite float above ``low`` (``strict``) or at least
    ``low``, else a usage error: --c, --grid-step, --grid-radius, --scale > 0,
    --a0, --a0p >= 1/2 (no reference below the vacuum), a Renyi --p > 1 and
    --tol >= 0 (a NaN tolerance would accept any channel)."""
    def parse(text: str) -> float:
        value = float(text)
        if not np.isfinite(value) or value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>' if strict else '>='} {low:g}, got {text}")
        return value
    parse.__name__ = "float"
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  It holds no value read from the
    environment: a --threads left out is resolved when a command runs."""
    parser = argparse.ArgumentParser(
        prog="gausslab",
        description="Gaussian gauge-covariant channel algebra and verification suites",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _finite_float(0.0, strict=True)
    reference = _finite_float(0.5, strict=False)
    order = _finite_float(1.0, strict=True)

    def add_common(p, channel_args=("channel",)):
        for name in channel_args:
            p.add_argument(name, help="channel JSON file")
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    for name, text in (("validate", "validate a channel file"),
                       ("classify", "classify a channel"),
                       ("decompose", "quantum-limited factorization")):
        p = sub.add_parser(name, help=text)
        add_common(p)
        p.add_argument("--tol", type=_finite_float(0.0, strict=False), default=1e-10)

    p = sub.add_parser("entropy", help="minimal output entropies (vacuum input)")
    add_common(p)
    p.add_argument("--p", type=order, default=None, help="also report this Renyi order")
    p.add_argument("--bits", action="store_true", help="report in bits instead of nats")

    p = sub.add_parser("purity", help="maximal output purity nu_p")
    add_common(p)
    p.add_argument("--p", type=order, required=True)

    p = sub.add_parser("majorize", help="vacuum-optimality and majorization sweep")
    add_common(p)
    p.add_argument("--samples", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--cutoff", type=_int_at_least(2), default=40)
    p.add_argument("--support", type=_int_at_least(1), default=4,
                   help="sample occupation bound")
    p.add_argument("--threads", type=_int_at_least(1))
    p.add_argument("--csv", help="write per-sample rows here")

    p = sub.add_parser("additivity", help="output-purity multiplicativity check")
    p.add_argument("channel_a")
    p.add_argument("channel_b")
    p.add_argument("--out")
    p.add_argument("--p", type=order, default=2.0)
    p.add_argument("--samples", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--cutoff", type=_int_at_least(2), default=30)
    p.add_argument("--threads", type=_int_at_least(1))
    p.add_argument("--csv")

    p = sub.add_parser("strictgap", help="strict-minimizer gap probes")
    add_common(p)
    p.add_argument("--f", default="vn", choices=("vn", "renyi"))
    p.add_argument("--p", type=order, default=2.0)
    p.add_argument("--cutoff", type=_int_at_least(2), default=40)

    p = sub.add_parser("wehrl", help="classical-functional minimality sweep")
    p.add_argument("--out")
    p.add_argument("--a0", type=reference, default=0.5)
    p.add_argument("--samples", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--grid-radius", type=positive,
                   help="default 6 sqrt(a0 + 1/2), which is 6 at a0 = 1/2")
    p.add_argument("--grid-step", type=positive, default=0.05)
    p.add_argument("--f", default="vn", choices=("vn", "renyi"))
    p.add_argument("--p", type=order, default=2.0)
    p.add_argument("--probe-dim", type=_int_at_least(1), default=16)
    p.add_argument("--threads", type=_int_at_least(1))
    p.add_argument("--csv")

    p = sub.add_parser("berezinlieb", help="sandwich and convolution identity check")
    p.add_argument("--out")
    p.add_argument("--c", type=positive, required=True)
    p.add_argument("--a0", type=reference, default=0.5)
    p.add_argument("--a0p", type=reference, default=0.5)
    p.add_argument("--probe", default="vacuum")
    p.add_argument("--f", default="vn", choices=("vn", "renyi"))
    p.add_argument("--p", type=order, default=2.0)
    p.add_argument("--cutoff", type=_int_at_least(2), default=128)
    p.add_argument("--grid-radius", type=positive, default=6.0)
    p.add_argument("--grid-step", type=positive, default=0.05)
    p.add_argument("--field-csv", help="dump the upper-symbol field (x, y, p)")

    p = sub.add_parser("selftest", help="run the acceptance criteria at reduced scale")
    p.add_argument("--out")
    p.add_argument("--scale", type=positive, default=0.12)
    p.add_argument("--quiet", action="store_true")
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "decompose": _cmd_decompose,
    "entropy": _cmd_entropy,
    "purity": _cmd_purity,
    "majorize": _cmd_majorize,
    "additivity": _cmd_additivity,
    "strictgap": _cmd_strictgap,
    "wehrl": _cmd_wehrl,
    "berezinlieb": _cmd_berezinlieb,
    "selftest": _cmd_selftest,
}


# Exit code of each error a command may raise, looked up along the error's
# class hierarchy: usage and IO errors exit 1, every other library error 2,
# as a failed verdict does.
EXIT_CODES = {
    FileFormatError: 1,
    UsageError: 1,
    DimensionTooLarge: 1,
    FileNotFoundError: 1,
    IsADirectoryError: 1,
    GaussLabError: 2,
}


def run(argv=None) -> int:
    """Parse arguments, dispatch, emit the report; returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "threads", 1) is None:
            args.threads = _threads_default()
        report = _HANDLERS[args.command](args)
    except tuple(EXIT_CODES) as exc:
        code = next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)
        # a usage or IO error states itself; other errors also name their class
        print(f"error: {exc}" if code == 1 else f"error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return code
    text = mj.report_to_json(report, args.out or None)
    if not args.out:
        sys.stdout.write(text)
    passed = report.get("pass", True)
    print(f"gausslab {args.command}: {'ok' if passed else 'FAILED'}", file=sys.stderr)
    return 0 if passed else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
