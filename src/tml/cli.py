"""Command line front end.

One binary, eight subcommands, every run reproducible from its seed.  Each
invocation writes a CSV (or JSON) table plus a JSON manifest recording the
subcommand, parameters, seed, build id, timestamps, and output files.  The
table body is a pure function of the arguments, so reruns are byte-identical;
wall-clock data lives only in the manifest.

Each handler imports the one kernel module it calls (``paths``, ``gluing``,
``spectral`` or ``dyck``) and calls through it, so a subcommand loads only
its own kernel: trace-exact, bounds-table and an exhaustive verify-gluing
start without numpy or scipy, and the Monte Carlo subcommands without
``gluing``.

Exit codes: 0 success, 1 usage or runtime error (bad arguments or law, a size
over its guard, eigensolver non-convergence, an unwritable output), 2
invariant-suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from datetime import datetime, timezone

from . import __version__
from .ensemble import RNG_ALGORITHM, EigensolverError, parse_distribution


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1 instead of 2; exit 2 is reserved
    for invariant-suite failures."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "%.17g" % value
    if value is None:
        return ""
    return str(value)


def _json_value(value):
    """Strict JSON has no Infinity or NaN: such a float goes as the CSV writes it."""
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    return value


def _build_id() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=here,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"tml-{__version__}"


def _output_dir(args) -> str:
    out = getattr(args, "output_dir", None) or os.environ.get("TML_OUTPUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_table(args, header: list[str], rows: list[list]) -> list[str]:
    """Write the rows in the chosen format; returns the written file paths."""
    out_dir = _output_dir(args)
    base = args.out or args.subcommand
    if args.format == "json":
        path = os.path.join(out_dir, f"{base}.json")
        payload = [{k: _json_value(v) for k, v in zip(header, row)} for row in rows]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True, allow_nan=False)
            fh.write("\n")
        return [path]
    path = os.path.join(out_dir, f"{base}.csv")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return [path]


def _write_manifest(args, outputs: list[str], started: str, finished: str) -> str:
    out_dir = _output_dir(args)
    base = args.out or args.subcommand
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("subcommand", "func") and v is not None
    }
    manifest = {
        "subcommand": args.subcommand,
        "parameters": {k: _fmt(v) for k, v in params.items()},
        "seed": getattr(args, "seed", None),
        "build_id": _build_id(),
        "started": started,
        "finished": finished,
        "output_files": [os.path.basename(p) for p in outputs],
        "rng": RNG_ALGORITHM,
    }
    path = os.path.join(out_dir, f"{base}.manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


# ---------- subcommand handlers: return (header, rows, exit_code) ----------


def _cmd_trace_mc(args):
    from . import spectral

    dist = parse_distribution(args.dist)
    est = spectral.mc_expected_trace(
        dist, args.n, args.s, args.trials, args.seed,
        normalized=not args.raw, method=args.method, threads=args.threads,
    )
    predictions = [
        spectral.wigner_trace_prediction(args.n, args.s, dist.sigma),
        spectral.wigner_trace_prediction_refined(args.n, args.s, dist.sigma),
    ]
    header = ["n", "s", "trials", "seed", "mean", "stderr", "prediction", "prediction_refined"]
    rows = [[args.n, args.s, args.trials, args.seed, est.mean, est.stderr, *predictions]]
    return header, rows, 0


def _cmd_trace_exact(args):
    from . import paths

    dist = parse_distribution(args.dist)
    route = args.route
    if route == "auto":
        # patterns covers every n at 2s <= 12; past that only a small full sweep fits
        fits_full = not paths.walk_count_exceeds(args.n, args.s, paths.ENUMERATION_GUARD)
        route = "full" if 2 * args.s > paths.PATTERN_LENGTH_GUARD and fits_full else "patterns"
    sums = paths.exact_trace_sums_patterns if route == "patterns" else paths.exact_trace_sums
    value, even = sums(dist, args.n, args.s)
    header = ["n", "s", "route", "value", "even_part", "odd_part"]
    rows = [[args.n, args.s, route, value, even, value - even]]
    return header, rows, 0


def _cmd_spectrum(args):
    from . import spectral

    dist = parse_distribution(args.dist)
    values = spectral.trial_values(dist, args.n, args.trials, args.seed, "spectrum")
    header = ["trial", "seed", "lambda_max", "spectral_norm"]
    rows = [[i, args.seed + i, lam, norm] for i, (lam, norm) in enumerate(values.tolist())]
    return header, rows, 0


def _cmd_edge_exceed(args):
    from . import spectral

    dist = parse_distribution(args.dist)
    result = spectral.edge_exceedance_experiment(
        dist, args.n, args.trials, args.epsilon, args.seed, threads=args.threads
    )
    header = ["trial", "lambda_max", "threshold", "exceeded"]
    rows = [
        [i, v, result.threshold, v > result.threshold]
        for i, v in enumerate(result.lambda_max_values)
    ]
    print(
        f"n={args.n} trials={args.trials} threshold={result.threshold:.6f} "
        f"exceed_fraction={result.exceed_fraction:.4f}"
    )
    return header, rows, 0


def _cmd_concentration(args):
    from . import spectral

    dist = parse_distribution(args.dist)
    t_values = [float(t) for t in args.t_values.split(",") if t]
    rows_out = spectral.concentration_experiment(
        dist, args.n, args.trials, t_values, args.seed, threads=args.threads
    )
    header = ["t", "deviation", "empirical_fraction", "bound"]
    rows = [[r.t, r.deviation, r.empirical_fraction, r.bound] for r in rows_out]
    return header, rows, 0


def _cmd_verify_gluing(args):
    from . import gluing

    report = gluing.run_invariant_suite(
        args.n,
        args.s,
        exhaustive=not args.skip_exhaustive,
        random_walks=args.random,
        seed=args.seed,
    )
    header = ["odd_pairs", "run_count", "walk_count", "cycle_count", "outcome", "count"]
    rows = [[*key, count] for key, count in report.histogram.items()]
    print(f"checked {report.walks_checked} walks, {len(report.violations)} violations")
    for tag, verts in report.violations[:10]:
        print(f"violation {tag}: {verts}", file=sys.stderr)
    return header, rows, 0 if report.ok else 2


def _cmd_bounds_table(args):
    from . import gluing

    for name in ("max_odd_pairs", "max_merges"):  # a negative count would drop a family silently
        if getattr(args, name) < 0:
            raise ValueError(f"{name} must be at least 0, got {getattr(args, name)}")
    s, n = args.s, args.n
    sigma, bound_k = args.sigma, args.entry_bound
    rows: list[list] = []

    def put(family: str, parameter, log_value: float):
        try:
            value = math.exp(log_value)
        except OverflowError:
            value = math.inf
        rows.append([family, parameter, log_value, value])

    single = gluing.single_walk_contribution_bound(s, n, sigma, bound_k, prefactor=args.prefactor)
    multi = gluing.multi_walk_contribution_bound(s, n, sigma, bound_k, prefactor=max(1.0, args.prefactor))
    for family, bound in (("single-walk", single), ("multi-walk", multi)):
        for l, lv in enumerate(bound.log_terms, start=1):
            put(family, l, lv)
        put(family, "total", bound.log_total)
        put(f"{family}-excess-ratio", "total", gluing.log_trace_excess_ratio(bound, s, n, sigma))
    for l in range(1, min(s - 1, args.max_odd_pairs) + 1):
        put("cycle-refined-sum", l, gluing.cycle_refined_insertion_log_sum(s, l, bound_k))
    for q in range(1, args.max_merges + 1):
        if s - (q + 1) - q < 0:
            break
        mp = gluing.mixed_parity_reduction_bound(s, n, odd_pairs=q + 1, walk_count=q + 1, merge_count=q)
        put("mixed-trivial-ratio", q, mp.log_trivial_ratio)
        put("mixed-refined-ratio", q, mp.log_refined_ratio)
    typed = gluing.typed_vertex_contribution_log(
        s, n, odd_pairs=1, growth_exponent=args.growth_exponent, nonclosed_count=args.nonclosed,
        small_type_count=args.small_type, large_type_weight=args.large_type, sigma=sigma,
    )
    put("typed-vertex-log", args.growth_exponent, typed)
    put("distance-two-log", args.complexity, gluing.distance_two_tail_log(s, args.complexity, args.nearby))
    if s >= 2:
        put("catalan-convolution-ratio", s, math.log(gluing.catalan_convolution_ratio(s)))
        put("power-sum-ratio", s, math.log(gluing.power_sum_ratio(s)))
    verified = gluing.verify_catalan_convolution(max(s, 2))
    put("catalan-convolution-verified", max(s, 2), 0.0 if verified else -math.inf)
    header = ["family", "parameter", "log_value", "value"]
    return header, rows, 0


def _cmd_dyck_stats(args):
    from . import paths

    header = ["s", "functional", "mode", "order", "trials", "seed", "parameter", "value"]
    if args.functional == "beta":  # a pure lgamma sum: the beta row loads no numpy
        value = paths.beta_sum(args.tensor_order)
        return header, [[args.s, "beta", "exact", args.tensor_order, "", "", "", value]], 0
    from . import dyck

    rows = []
    # an exact row averages every path: trials is the path count, no seed is used
    seed = "" if args.mode == "exact" else args.seed
    if args.functional in ("windows", "tensor", "stay"):
        order = args.tensor_order if args.functional == "tensor" else 1
        sampled = dict(mode=args.mode, trials=args.trials, seed=args.seed)
        if args.functional == "stay":
            v = dyck.stay_above_full_window_expectation(args.s, **sampled)
        else:
            v = dyck.expected_k_functional(args.s, order, **sampled)
        trials = paths.catalan(args.s) if args.mode == "exact" else args.trials
        rows.append([args.s, args.functional, args.mode, order, trials, seed, "", v])
    else:  # maxlevel
        table = dyck.max_level_tail(args.s, args.trials, args.seed, mode=args.mode)
        fits = [] if table.fit_c1 is None else [("fit_c1", table.fit_c1), ("fit_c2", table.fit_c2)]
        for k, p in [*table.rows, *fits]:
            rows.append([args.s, "maxlevel", args.mode, 1, table.trials, seed, k, p])
    return header, rows, 0


# ---------- argument wiring ----------


def _add_threads(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--threads", type=int, default=1,
        help="worker threads, at most one per CPU, each running whole chunks of "
        "trials (at least 1); BLAS threads already parallelize each solve",
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output base name (default: the subcommand name)")
    p.add_argument("--output-dir", help="output directory (default: $TML_OUTPUT_DIR or .)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def build_parser() -> _Parser:
    parser = _Parser(prog="tml", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("trace-mc", parents=[], help="Monte Carlo estimate of E[Tr A^(2s)]")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=["eig", "power"], default="eig")
    p.add_argument("--raw", action="store_true", help="trace of the unnormalized matrix")
    _add_threads(p)
    _add_common(p)
    p.set_defaults(func=_cmd_trace_mc)

    p = sub.add_parser("trace-exact", help="exact E[Tr A^(2s)] by enumeration")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--route", choices=["auto", "full", "patterns"], default="auto")
    _add_common(p)
    p.set_defaults(func=_cmd_trace_exact)

    p = sub.add_parser("spectrum", help="top eigenvalue and spectral norm per sample")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("edge-exceed", help="how often lambda_max clears 2 sigma + n^(-6/11+eps)")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_threads(p)
    _add_common(p)
    p.set_defaults(func=_cmd_edge_exceed)

    p = sub.add_parser("concentration", help="tail of lambda_max about its mean vs the proved ceiling")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--t-values", default="1,2,3,4,5,6,7,8")
    p.add_argument("--seed", type=int, default=0)
    _add_threads(p)
    _add_common(p)
    p.set_defaults(func=_cmd_concentration)

    p = sub.add_parser("verify-gluing", help="run every surgery invariant over walk families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--skip-exhaustive", action="store_true")
    p.add_argument("--random", type=int, default=0, help="extra uniformly random walks")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_gluing)

    p = sub.add_parser("bounds-table", help="counting-bound sweeps in log space")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--entry-bound", type=float, default=1.0)
    p.add_argument("--prefactor", type=float, default=1.0)
    p.add_argument("--max-odd-pairs", type=int, default=8)
    p.add_argument("--max-merges", type=int, default=3)
    p.add_argument("--growth-exponent", type=float, default=0.01)
    p.add_argument("--nonclosed", type=int, default=2)
    p.add_argument("--small-type", type=int, default=1)
    p.add_argument("--large-type", type=float, default=0.0)
    p.add_argument("--complexity", type=int, default=2)
    p.add_argument("--nearby", type=float, default=10.0)
    _add_common(p)
    p.set_defaults(func=_cmd_bounds_table)

    p = sub.add_parser("dyck-stats", help="window functionals of uniform nonnegative bridges")
    p.add_argument("--s", type=int, required=True)
    p.add_argument(
        "--functional",
        choices=["windows", "stay", "tensor", "beta", "maxlevel"],
        default="windows",
    )
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--tensor-order", type=int, default=2)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_dyck_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = _now()
    try:
        header, rows, code = args.func(args)
        outputs = _write_table(args, header, rows)
        _write_manifest(args, outputs, started, _now())
    except (EigensolverError, OSError, ValueError) as exc:  # DistributionError is a ValueError
        print(f"tml {args.subcommand}: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
