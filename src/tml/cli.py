"""Command line front end.

One binary, eight subcommands, every run reproducible from its seed.  Each
invocation writes a CSV (or JSON) table plus a JSON manifest recording the
subcommand, parameters, seed, build id, timestamps, output files and BLAS
thread settings.  The table body is a pure function of the arguments, so
reruns are byte-identical; wall-clock data lives only in the manifest.  The
build id, ``tml-<version>+<8 hex digits>``, names the code that ran: the
digits are a CRC-32 of the package's own ``*.py`` files, so it changes with
any byte of them, reads the same from a checkout or an archive of one tree,
and costs no git call.

Each handler imports the one kernel module it calls (``paths``, ``gluing``,
``spectral`` or ``dyck``) and calls through it, so a subcommand loads only
its own kernel: trace-exact, bounds-table and an exhaustive verify-gluing
start without numpy, and the Monte Carlo subcommands without ``gluing``.
The spectral subcommands read every statistic, a trace too, from one
eigenvalue solve per matrix in ``spectral.trial_values``, which alone
chooses the solver.  No subcommand loads scipy.  Before numpy loads,
``main`` asks BLAS for one thread (``OMP_NUM_THREADS=1``) unless the caller
set a BLAS thread variable or the call is a spectral one at n >=
DENSE_EIG_CUTOFF, whose solves BLAS threads speed up; anywhere else an idle
BLAS worker would only burn CPU.

Exit codes: 0 success, 1 usage or runtime error (bad arguments or law, a size
over its guard, an eigensolver failure, numpy missing from a call that needs
it, an unwritable output), 2 invariant-suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import zlib

from . import __version__
from .ensemble import DENSE_EIG_CUTOFF, RNG_ALGORITHM, EigensolverError, _check_at_least, parse_distribution

_BLAS_THREAD_VARIABLES = ("MKL_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
_SPECTRAL_SUBCOMMANDS = ("trace-mc", "spectrum", "edge-exceed", "concentration")


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
    return str(value)


def _json_value(value):
    """Strict JSON has no Infinity or NaN: such a float goes as the CSV writes it."""
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    return value


def _build_id() -> str:
    """tml-<version>+<CRC-32 of each module's name and bytes, in name order>."""
    here = os.path.dirname(os.path.abspath(__file__))
    crc = 0
    for name in sorted(f for f in os.listdir(here) if f.endswith(".py")):
        with open(os.path.join(here, name), "rb") as fh:
            crc = zlib.crc32(fh.read(), zlib.crc32(name.encode(), crc))
    return f"tml-{__version__}+{crc:08x}"


def _output_stem(args) -> str:
    """The path every output file starts with: --out or the subcommand name, in the output directory."""
    out_dir = args.output_dir or os.environ.get("TML_OUTPUT_DIR") or "."
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, args.out or args.subcommand)


def _write_table(stem: str, fmt: str, header: list[str], rows: list[list]) -> list[str]:
    """Write the rows in the chosen format; returns the written file paths."""
    if fmt == "json":
        path = f"{stem}.json"
        payload = [{k: _json_value(v) for k, v in zip(header, row)} for row in rows]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True, allow_nan=False)
            fh.write("\n")
        return [path]
    path = f"{stem}.csv"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return [path]


def _pin_blas_threads(args) -> dict:
    """Set OMP_NUM_THREADS=1 unless numpy is loaded, the caller set a BLAS
    thread variable, or the call solves matrices of at least DENSE_EIG_CUTOFF;
    returns the BLAS thread settings for the manifest."""
    pin = not (
        "numpy" in sys.modules
        or any(name in os.environ for name in _BLAS_THREAD_VARIABLES)
        or (args.subcommand in _SPECTRAL_SUBCOMMANDS and args.n >= DENSE_EIG_CUTOFF)
    )
    if pin:
        os.environ["OMP_NUM_THREADS"] = "1"
    return {**{name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES}, "set_by_cli": pin}


def _write_manifest(
    args, stem: str, outputs: list[str], started: str, finished: str, blas_threads: dict
) -> str:
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
        "blas_threads": blas_threads,
    }
    path = f"{stem}.manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _now() -> str:
    """The UTC time as ``datetime.now(timezone.utc).isoformat()`` writes it,
    microseconds dropped when zero, formatted here so no call loads datetime."""
    seconds, nanoseconds = divmod(time.time_ns(), 10**9)
    t = time.gmtime(seconds)
    micro = nanoseconds // 1000
    fraction = f".{micro:06d}" if micro else ""
    return (
        f"{t.tm_year:04d}-{t.tm_mon:02d}-{t.tm_mday:02d}"
        f"T{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d}{fraction}+00:00"
    )


# ---------- subcommand handlers: return (header, rows, exit_code) ----------


def _cmd_trace_mc(args):
    from . import spectral

    dist = parse_distribution(args.dist)
    est = spectral.mc_expected_trace(dist, args.n, args.s, args.trials, args.seed)
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
    sums = paths.exact_trace_sums_patterns if args.route == "patterns" else paths.exact_trace_sums
    value, even = sums(dist, args.n, args.s)
    header = ["n", "s", "route", "value", "even_part", "odd_part"]
    rows = [[args.n, args.s, args.route, value, even, value - even]]
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
    result = spectral.edge_exceedance_experiment(dist, args.n, args.trials, args.epsilon, args.seed)
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
    rows_out = spectral.concentration_experiment(dist, args.n, args.trials, t_values, args.seed)
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
    from . import gluing, paths

    # a negative count would drop a family silently
    _check_at_least(0, max_odd_pairs=args.max_odd_pairs, max_merges=args.max_merges)
    s, n = args.s, args.n
    sigma, bound_k = args.sigma, args.entry_bound
    rows: list[list] = []

    def put(family: str, parameter, log_value: float):
        rows.append([family, parameter, log_value, paths._from_log(log_value)])

    single = gluing.single_walk_contribution_bound(s, n, sigma, bound_k, prefactor=args.prefactor)
    multi = gluing.multi_walk_contribution_bound(s, n, sigma, bound_k, prefactor=args.prefactor)
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
    if args.functional in ("tensor", "beta"):  # tensor order 1 would be E[K], the windows row
        _check_at_least(2 if args.functional == "tensor" else 1, tensor_order=args.tensor_order)
    if args.functional == "beta":  # a pure lgamma sum: the beta row loads no numpy
        _check_at_least(0, s=args.s)  # the sum never reads s, but the row writes it
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


def _option(flag: str, **kwargs) -> _Parser:
    """A help-less parser declaring one option, for a subparser's ``parents``."""
    parent = _Parser(add_help=False)
    parent.add_argument(flag, **kwargs)
    return parent


def build_parser() -> _Parser:
    parser = _Parser(prog="tml", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    dist = _option("--dist", required=True)
    n = _option("--n", type=int, required=True)
    s = _option("--s", type=int, required=True)
    seed = _option("--seed", type=int, default=0)
    threads = _option(
        "--threads", type=int, choices=[1], default=1,
        help="trial threads; only 1: the trials run one chunk after another, "
        "and BLAS threads already parallelize each solve",
    )
    output = _option("--out", help="output base name (default: the subcommand name)")
    output.add_argument("--output-dir", help="output directory (default: $TML_OUTPUT_DIR or .)")
    output.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser(
        "trace-mc", parents=[dist, n, s, seed, threads, output], help="Monte Carlo estimate of E[Tr A^(2s)]"
    )
    p.add_argument("--trials", type=int, default=10000)
    p.set_defaults(func=_cmd_trace_mc)

    p = sub.add_parser("trace-exact", parents=[dist, n, s, output], help="exact E[Tr A^(2s)] by enumeration")
    p.add_argument("--route", choices=["full", "patterns"], default="patterns")
    p.set_defaults(func=_cmd_trace_exact)

    p = sub.add_parser(
        "spectrum", parents=[dist, n, seed, output], help="top eigenvalue and spectral norm per sample"
    )
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "edge-exceed", parents=[dist, n, seed, threads, output],
        help="how often lambda_max clears 2 sigma + n^(-6/11+eps)",
    )
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=_cmd_edge_exceed)

    p = sub.add_parser(
        "concentration", parents=[dist, n, seed, output],
        help="tail of lambda_max about its mean vs the proved ceiling",
    )
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--t-values", default="1,2,3,4,5,6,7,8")
    p.set_defaults(func=_cmd_concentration)

    p = sub.add_parser(
        "verify-gluing", parents=[n, s, seed, output], help="run every surgery invariant over walk families"
    )
    p.add_argument("--skip-exhaustive", action="store_true")
    p.add_argument("--random", type=int, default=0, help="extra uniformly random walks")
    p.set_defaults(func=_cmd_verify_gluing)

    p = sub.add_parser("bounds-table", parents=[s, n, output], help="counting-bound sweeps in log space")
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
    p.set_defaults(func=_cmd_bounds_table)

    p = sub.add_parser(
        "dyck-stats", parents=[s, seed, output], help="window functionals of uniform nonnegative bridges"
    )
    p.add_argument(
        "--functional",
        choices=["windows", "stay", "tensor", "beta", "maxlevel"],
        default="windows",
    )
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--tensor-order", type=int, default=2)
    p.add_argument("--trials", type=int, default=10000)
    p.set_defaults(func=_cmd_dyck_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    blas_threads = _pin_blas_threads(args)
    started = _now()
    try:
        _check_at_least(0, seed=getattr(args, "seed", 0))  # numpy seeds only from integers >= 0
        header, rows, code = args.func(args)
        stem = _output_stem(args)
        outputs = _write_table(stem, args.format, header, rows)
        _write_manifest(args, stem, outputs, started, _now(), blas_threads)
    except (EigensolverError, ImportError, OSError, ValueError) as exc:  # DistributionError is a ValueError
        print(f"tml {args.subcommand}: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
