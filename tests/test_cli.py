import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tml.cli as cli
import tml.ensemble as ensemble
import tml.gluing as gluing
import tml.paths as paths
import tml.spectral as spectral
from tml import __version__
from tml.ensemble import DistributionError, parse_distribution
from tml.gluing import InvariantReport
from tml.spectral import EigensolverError


def run(tmp_path, *argv, base=None):
    """Invoke the CLI into tmp_path; returns (exit code, rows, manifest)."""
    code = cli.main([*argv, "--output-dir", str(tmp_path)])
    name = base or argv[0]
    rows = None
    table = tmp_path / f"{name}.csv"
    if table.exists():
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
    manifest = None
    mpath = tmp_path / f"{name}.manifest.json"
    if mpath.exists():
        manifest = json.loads(mpath.read_text())
    return code, rows, manifest


def test_trace_exact_small(tmp_path):
    code, rows, manifest = run(
        tmp_path, "trace-exact", "--dist", "skew12", "--n", "3", "--s", "2"
    )
    assert code == 0
    assert len(rows) == 1
    row = rows[0]
    assert row["route"] == "patterns"
    assert float(row["value"]) == pytest.approx(22.0, rel=1e-12)
    assert float(row["even_part"]) == pytest.approx(22.0, rel=1e-12)
    assert float(row["odd_part"]) == 0.0
    assert manifest["subcommand"] == "trace-exact"
    assert manifest["rng"] == "numpy-PCG64"
    assert manifest["output_files"] == ["trace-exact.csv"]
    assert manifest["build_id"]
    assert manifest["started"] <= manifest["finished"]


def test_build_id_is_a_checksum_of_the_package_sources(tmp_path):
    copy = tmp_path / "src" / "tml"
    copy.mkdir(parents=True)
    for source in Path(cli.__file__).parent.glob("*.py"):
        (copy / source.name).write_bytes(source.read_bytes())

    def build_id(call):
        out = tmp_path / "out" / str(call)
        done = subprocess.run(
            [sys.executable, "-m", "tml.cli", "trace-exact", "--dist", "skew12", "--n", "2", "--s", "1",
             "--output-dir", str(out)],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(copy.parent)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return json.loads((out / "trace-exact.manifest.json").read_text())["build_id"]

    first = build_id(0)
    assert re.fullmatch(rf"tml-{re.escape(__version__)}\+[0-9a-f]{{8}}", first), first
    assert build_id(1) == first
    with open(copy / "dyck.py", "ab") as fh:
        fh.write(b"\n")
    assert build_id(2) != first


def test_trace_exact_patterns_route(tmp_path):
    code, rows, _ = run(
        tmp_path, "trace-exact", "--dist", "skew12", "--n", "200", "--s", "2"
    )
    assert code == 0
    assert rows[0]["route"] == "patterns"
    assert float(rows[0]["value"]) == pytest.approx(1598.0, rel=1e-12)


def _pattern_count(length: int, n: int) -> int:
    """Closed first-occurrence patterns of the given length on at most n
    vertices: sum of Stirling numbers S(length, k) over k <= n."""
    row = [1]  # S(0, k)
    for m in range(1, length + 1):
        row = [0] + [
            k * (row[k] if k < len(row) else 0) + row[k - 1] for k in range(1, m + 1)
        ]
    return sum(row[1 : n + 1])


def _paired_pattern_count(length: int, n: int) -> int:
    """Closed first-occurrence patterns of the given length on at most n
    vertices whose edges are each traversed at least twice: the
    restricted-growth sequences (each entry at most one above the largest
    before it) filtered by their closed walk's edge multiplicities."""

    def grow(seq):
        if len(seq) == length:
            yield seq
            return
        for v in range(min(max(seq) + 1, n - 1) + 1):
            yield from grow(seq + [v])

    count = 0
    for seq in grow([0]):
        walk = seq + [0]
        edges = Counter(tuple(sorted(step)) for step in zip(walk, walk[1:]))
        count += min(edges.values()) >= 2
    return count


# a centered law whose float mean is a rounding residue (1.39e-17), not 0.0
RESIDUE_LAW = "support=-0.3,0.1;probs=0.25,0.75"


def _moment_products(tmp_path, monkeypatch, route, dist, n, s) -> int:
    """Run trace-exact, check its row against the library pair and return
    the number of `_moment_product` calls it made."""
    calls = []
    product = paths._moment_product

    def counted(dist, multiplicities):
        calls.append(1)
        return product(dist, multiplicities)

    monkeypatch.setattr(paths, "_moment_product", counted)
    code, rows, _ = run(
        tmp_path, "trace-exact", "--dist", dist, "--n", str(n), "--s", str(s),
        "--route", route,
    )
    assert code == 0
    monkeypatch.setattr(paths, "_moment_product", product)
    d = parse_distribution(dist)
    if route == "full":
        value, even = paths.exact_trace_sums(d, n, s)
    else:
        value = paths.exact_expected_trace_patterns(d, n, s)
        even = paths.exact_trace_sums_patterns(d, n, s)[1]
    assert float(rows[0]["value"]) == value
    assert float(rows[0]["even_part"]) == even
    return len(calls)


@pytest.mark.parametrize(
    "route,n,s,leaves",
    [
        ("full", 2, 3, 2**6),
        # skew12 has mean exactly 0.0: only patterns with every edge paired
        ("patterns", 3, 3, _paired_pattern_count(6, 3)),
        ("patterns", 7, 4, _paired_pattern_count(8, 7)),
    ],
)
def test_trace_exact_enumerates_once(tmp_path, monkeypatch, route, n, s, leaves):
    # one moment product per walk, or per pattern that can carry weight
    assert _moment_products(tmp_path, monkeypatch, route, "skew12", n, s) == leaves


def test_trace_exact_residue_mean_weighs_every_pattern(tmp_path, monkeypatch):
    leaves = _moment_products(tmp_path, monkeypatch, "patterns", RESIDUE_LAW, 7, 4)
    assert leaves == _pattern_count(8, 7)


def test_trace_exact_default_route_takes_patterns(tmp_path):
    # 4^8 walks: small enough for the full route, but the default takes
    # patterns, and the full sweep gives the same bits on this dyadic law
    code, rows, _ = run(tmp_path, "trace-exact", "--dist", "skew12", "--n", "4", "--s", "4")
    assert code == 0
    assert rows[0]["route"] == "patterns"
    value, even = paths.exact_trace_sums(parse_distribution("skew12"), 4, 4)
    assert (float(rows[0]["value"]), float(rows[0]["even_part"])) == (value, even)


@pytest.mark.parametrize("dist", ["skew12", "rademacher"])
def test_trace_exact_default_route_takes_patterns_past_2s_12(tmp_path, dist):
    # 2s = 14: the class sweep runs, and the full route gives the same bits
    code, rows, _ = run(tmp_path, "trace-exact", "--dist", dist, "--n", "2", "--s", "7")
    assert code == 0
    assert rows[0]["route"] == "patterns"
    code, full, _ = run(tmp_path, "trace-exact", "--dist", dist, "--n", "2", "--s", "7", "--route", "full")
    assert code == 0
    assert [rows[0][k] for k in ("value", "even_part")] == [full[0][k] for k in ("value", "even_part")]


def test_trace_exact_refuses_the_auto_route(tmp_path, capsys):
    argv = ["trace-exact", "--dist", "skew12", "--n", "3", "--s", "2", "--route", "auto"]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert "invalid choice: 'auto'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# (4, 7) and (5, 7) hold 1.1e7 and 5.1e7 classes; (4, 8) and (100, 7)
# hold 1.8e8 and Bell(14) = 1.9e8
@pytest.mark.parametrize("n,s,accepted", [(4, 7, True), (5, 7, True), (4, 8, False), (100, 7, False)])
def test_class_guard_counts_its_classes(n, s, accepted):
    start = time.perf_counter()
    if accepted:
        assert paths._check_class_count(n, s) == _pattern_count(2 * s, n)
    else:
        with pytest.raises(paths.PathSizeError, match="exceeds the enumeration guard"):
            paths._check_class_count(n, s)
    assert time.perf_counter() - start < 1.0


def test_class_guard_counts_the_classes_the_sweep_yields():
    for s in range(1, 5):
        for n in range(2, 5):
            count = paths._check_class_count(n, s)
            assert count == _pattern_count(2 * s, n)
            assert count == sum(1 for _ in paths._canonical_sequences(n, 2 * s))
        # one vertex is counted as two, as the walk guard counts it
        assert paths._check_class_count(1, s) == _pattern_count(2 * s, 2)


@pytest.mark.parametrize("n,s", [(10**200, 2), (10**177, 1)], ids=["1e200-2", "1e177-1"])
def test_trace_exact_rejects_n_beyond_float_range(tmp_path, capsys, n, s):
    # n(n-1) overflows a float at both; at 10**200, s = 2 so does n**s
    code = cli.main([
        "trace-exact", "--dist", "skew12", "--n", str(n), "--s", str(s),
        "--route", "patterns", "--output-dir", str(tmp_path),
    ])
    assert code == 1
    assert "n is too large for the float pattern sum" in capsys.readouterr().err
    assert not (tmp_path / "trace-exact.csv").exists()


@pytest.mark.parametrize("route", ["full", "patterns"])
def test_trace_exact_refuses_a_sum_past_the_float_range(tmp_path, capsys, route):
    # every moment fits a float (E[x^4] = 1e308), but the weight sum does not
    law = "support=-1e77,1e77;probs=0.5,0.5"
    code = cli.main([
        "trace-exact", "--dist", law, "--n", "2", "--s", "2", "--route", route,
        "--output-dir", str(tmp_path),
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["tml trace-exact: the float trace sum at s=2 overflows for this n and law"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("chunk", ["support=-2,2", "sigma=3", "x"], ids=["repeated", "unknown-key", "no-equals"])
def test_distribution_chunks_that_are_not_read_are_refused(tmp_path, capsys, chunk):
    # each used to be dropped; a repeated support kept its last value
    law = f"support=-1,1;probs=0.5,0.5;{chunk}"
    with pytest.raises(DistributionError, match=f"chunk {chunk!r}"):
        parse_distribution(law)
    argv = ["trace-exact", "--dist", law, "--n", "2", "--s", "1", "--output-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "route,message",
    [
        pytest.param(None, "exceeds the enumeration guard", id="default-exceeds the enumeration guard"),
        ("full", "exceeds the enumeration guard"),
    ],
)
def test_trace_exact_size_guard_is_prompt(tmp_path, capsys, route, message):
    start = time.perf_counter()
    code = cli.main([
        "trace-exact", "--dist", "skew12", "--n", "3", "--s", "100000000",
        *(["--route", route] if route else []), "--output-dir", str(tmp_path),
    ])
    assert code == 1
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("route", ["patterns", "full"])
def test_trace_exact_one_vertex_guard_is_prompt(tmp_path, capsys, route):
    start = time.perf_counter()
    code = cli.main([
        "trace-exact", "--dist", "rademacher", "--n", "1", "--s", "100000000",
        "--route", route, "--output-dir", str(tmp_path),
    ])
    assert code == 1
    assert time.perf_counter() - start < 1.0
    assert "exceeds the enumeration guard" in capsys.readouterr().err


def test_trace_mc(tmp_path):
    code, rows, manifest = run(
        tmp_path,
        "trace-mc",
        "--dist", "skew12", "--n", "3", "--s", "2",
        "--trials", "400", "--seed", "5", "--threads", "1",
    )
    assert code == 0
    row = rows[0]
    mean, stderr = float(row["mean"]), float(row["stderr"])
    assert abs(mean - 22.0) <= 5 * stderr
    assert float(row["prediction"]) == pytest.approx(3 * 2 * 4.0)
    assert manifest["seed"] == 5
    assert manifest["parameters"]["trials"] == "400"


def test_spectrum(tmp_path):
    for n in ("12", "64", "70"):  # a dense solve, then one two-ended Lanczos run per matrix
        code, rows, _ = run(
            tmp_path, "spectrum", "--dist", "rademacher", "--n", n, "--trials", "2"
        )
        assert code == 0
        assert len(rows) == 2
        for i, row in enumerate(rows):
            assert int(row["trial"]) == i
            assert float(row["lambda_max"]) <= float(row["spectral_norm"])


def test_spectrum_of_a_zero_matrix_exits_0(tmp_path):
    # trial 0 of this law at n = 64 is the zero matrix, where Lanczos cannot start
    law = "support=-1,0,1;probs=0.0001,0.9998,0.0001"
    code, rows, _ = run(tmp_path, "spectrum", "--dist", law, "--n", "64", "--trials", "3")
    assert code == 0
    assert (rows[0]["lambda_max"], rows[0]["spectral_norm"]) == ("0", "0")


def test_edge_exceed(tmp_path, capsys):
    code, rows, _ = run(
        tmp_path,
        "edge-exceed",
        "--dist", "rademacher", "--n", "40",
        "--trials", "3", "--epsilon", "0.05", "--seed", "2",
    )
    assert code == 0
    assert len(rows) == 3
    assert all(row["exceeded"] in ("0", "1") for row in rows)
    assert "exceed_fraction=" in capsys.readouterr().out


def test_concentration(tmp_path):
    code, rows, _ = run(
        tmp_path,
        "concentration",
        "--dist", "rademacher", "--n", "30", "--trials", "8",
        "--t-values", "1,3", "--seed", "3",
    )
    assert code == 0
    assert [float(r["t"]) for r in rows] == [1.0, 3.0]
    for row in rows:
        assert 0.0 <= float(row["empirical_fraction"]) <= 1.0
        assert float(row["bound"]) == pytest.approx(
            min(1.0, 4.0 * math.exp(-float(row["t"]) ** 2 / 32.0))
        )


def test_verify_gluing(tmp_path, capsys):
    code, rows, _ = run(tmp_path, "verify-gluing", "--n", "2", "--s", "2")
    assert code == 0
    assert "0 violations" in capsys.readouterr().out
    assert sum(int(r["count"]) for r in rows) == 16
    assert set(rows[0]) == {
        "odd_pairs", "run_count", "walk_count", "cycle_count", "outcome", "count"
    }


def test_verify_gluing_table_is_the_benchmark_frozen_body(tmp_path):
    expected = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
    )
    code, _, _ = run(tmp_path, "verify-gluing", "--n", "3", "--s", "4")
    assert code == 0
    body = (tmp_path / "verify-gluing.csv").read_bytes()
    assert (
        hashlib.sha256(body).hexdigest()
        == expected["exact-walks"]["verify-gluing"]["sha256"]
    )


@pytest.mark.parametrize(
    "n,s,message",
    [
        ("3", "12", "exceeds the enumeration guard"),
        ("0", "2", "n must be at least 1"),
        (
            "100",
            "7",
            "the relabeling-class count of 14-step walks on 14 labels exceeds the enumeration guard",
        ),
    ],
)
def test_verify_gluing_size_guard_exits_1(tmp_path, capsys, n, s, message):
    start = time.perf_counter()
    code, rows, _ = run(tmp_path, "verify-gluing", "--n", n, "--s", s)
    assert code == 1 and rows is None
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err


def test_verify_gluing_guard_counts_the_labels_a_walk_can_use(tmp_path, capsys):
    # 100**6 labeled walks, but a walk of length 6 uses at most 6 labels: the
    # sweep checks the 203 classes of n = 6
    code, rows, _ = run(tmp_path, "verify-gluing", "--n", "100", "--s", "3")
    assert code == 0
    assert "checked 1000000000000 walks, 0 violations" in capsys.readouterr().out
    assert sum(int(r["count"]) for r in rows) == 100**6


def test_verify_gluing_skip_exhaustive_skips_the_guard(tmp_path, capsys):
    code, rows, _ = run(
        tmp_path, "verify-gluing", "--n", "3", "--s", "12", "--skip-exhaustive",
        "--random", "5",
    )
    assert code == 0
    assert "checked 5 walks, 0 violations" in capsys.readouterr().out
    assert sum(int(r["count"]) for r in rows) == 5


def test_verify_gluing_rejects_bad_shapes_in_one_line(tmp_path, capsys):
    for argv, message in [
        (("--n", "3", "--s", "0", "--skip-exhaustive", "--random", "5"), "s must be at least 1, got 0"),
        (("--n", "0", "--s", "2", "--skip-exhaustive", "--random", "5"), "n must be at least 1, got 0"),
        (("--n", "3", "--s", "2", "--random", "-4"), "random_walks must be at least 0, got -4"),
    ]:
        code, rows, _ = run(tmp_path, "verify-gluing", *argv)
        assert code == 1 and rows is None
        assert capsys.readouterr().err.splitlines() == [f"tml verify-gluing: {message}"]


def test_verify_gluing_refuses_a_run_that_checks_nothing(tmp_path, capsys):
    code, rows, _ = run(tmp_path, "verify-gluing", "--n", "3", "--s", "2", "--skip-exhaustive")
    assert code == 1 and rows is None
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "tml verify-gluing: nothing to check: the exhaustive sweep is skipped and random_walks is 0"
    ]
    assert not list(tmp_path.iterdir())


def test_verify_gluing_failure_exits_2(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        return InvariantReport(
            walks_checked=1,
            violations=((("length-bookkeeping"), (1, 1)),),
            histogram={(0, 0, 1, 0, "single-even"): 1},
        )

    monkeypatch.setattr(gluing, "run_invariant_suite", broken)
    code, _, _ = run(tmp_path, "verify-gluing", "--n", "2", "--s", "1")
    assert code == 2


def _uncut_single_walk(decomp, p):
    # the glue forgets its cut: the single walk keeps p's odd edges
    if decomp.outcome == "single-even" and decomp.odd_pairs:
        return decomp._replace(walks=(p,))
    return decomp


def _lost_odd_walk(decomp, p):
    # the glue loses one odd walk, so the walks left have an odd union
    if decomp.outcome != "mixed-parity":
        return decomp
    drop = next(i for i, w in enumerate(decomp.walks) if not paths.is_even_path(w))
    return decomp._replace(walks=decomp.walks[:drop] + decomp.walks[drop + 1 :])


@pytest.mark.parametrize(
    "breach,tag", [(_uncut_single_walk, "even-outcome-parity"), (_lost_odd_walk, "union-parity")]
)
def test_verify_gluing_reports_a_broken_glue_with_exit_2(tmp_path, capsys, monkeypatch, breach, tag):
    # the self-intersection floor and the merge step each raised on a glue
    # that broke their precondition, so the sweep exited 1 and named no walk
    real = gluing._glue_traced

    def broken(p):
        decomp, structure, partner = real(p)
        return breach(decomp, p), structure, partner

    monkeypatch.setattr(gluing, "_glue_traced", broken)
    code, rows, _ = run(tmp_path, "verify-gluing", "--n", "3", "--s", "4")
    assert code == 2
    out, err = capsys.readouterr()
    assert re.fullmatch(r"checked 6561 walks, [1-9]\d* violations\n", out)
    listed = [re.fullmatch(r"violation ([a-z-]+): (\(.*\))", line) for line in err.splitlines()]
    assert listed and all(listed)
    assert tag in {m[1] for m in listed}
    for m in listed:  # every listed walk is one the breach changed
        p = paths.ClosedPath(tuple(int(v) for v in re.findall(r"\d+", m[2])), 3)
        assert breach(real(p)[0], p) != real(p)[0]
    # every class still adds its histogram key, weighted by its labelings
    assert sum(int(r["count"]) for r in rows) == 3**8


def test_dyck_stats_exact_values(tmp_path):
    code, rows, _ = run(tmp_path, "dyck-stats", "--s", "1")
    assert code == 0
    assert rows[0]["functional"] == "windows"
    assert float(rows[0]["value"]) == 3.0


def test_dyck_stats_out_name(tmp_path):
    code, rows, _ = run(
        tmp_path,
        "dyck-stats", "--s", "4", "--functional", "stay", "--out", "stay",
        base="stay",
    )
    assert code == 0
    assert float(rows[0]["value"]) == pytest.approx(36.0 / 14.0, rel=1e-12)


def test_dyck_stats_beta(tmp_path):
    code, rows, _ = run(
        tmp_path, "dyck-stats", "--s", "1", "--functional", "beta",
        "--tensor-order", "1",
    )
    assert code == 0
    assert float(rows[0]["value"]) == pytest.approx(math.pi, abs=1e-12)


def test_dyck_stats_maxlevel(tmp_path):
    code, rows, _ = run(
        tmp_path, "dyck-stats", "--s", "6", "--functional", "maxlevel",
        "--trials", "300",
    )
    assert code == 0
    plain = [r for r in rows if r["parameter"] not in ("fit_c1", "fit_c2")]
    assert sum(float(r["value"]) for r in plain) == pytest.approx(1.0, abs=1e-9)


def test_dyck_stats_maxlevel_modes(tmp_path, capsys):
    # the mode column names the route that ran; exact weights every path by
    # 1 / catalan(s) (heights 1, 7, 5, 1 among the 14 paths at s = 4)
    code, rows, _ = run(
        tmp_path, "dyck-stats", "--s", "4", "--functional", "maxlevel", "--mode", "exact",
    )
    assert code == 0
    assert {r["mode"] for r in rows} == {"exact"}
    assert [float(r["value"]) for r in rows] == [c / 14 for c in (1, 7, 5, 1)]
    code, rows, _ = run(
        tmp_path, "dyck-stats", "--s", "4", "--functional", "maxlevel", "--mode", "mc",
        "--trials", "200",
    )
    assert code == 0
    assert {r["mode"] for r in rows} == {"mc"}
    capsys.readouterr()
    code = cli.main([
        "dyck-stats", "--s", "13", "--functional", "maxlevel", "--mode", "exact",
        "--output-dir", str(tmp_path / "big"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exact totals support s <= 12" in err


@pytest.mark.parametrize(
    "functional", [["windows"], ["stay"], ["tensor", "--tensor-order", "3"], ["maxlevel"], ["beta"]]
)
def test_dyck_stats_exact_negative_s_names_s(tmp_path, capsys, functional):
    least = 1 if functional == ["maxlevel"] else 0  # maxlevel has no row at s = 0
    for mode in ("exact", "mc"):
        code = cli.main([
            "dyck-stats", "--functional", *functional, "--s", "-2", "--mode", mode,
            "--output-dir", str(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"tml dyck-stats: s must be at least {least}, got -2"]
        assert not list(tmp_path.iterdir())


def test_dyck_stats_exact_s0(tmp_path, capsys):
    # the empty path has no window and stays above its one level, sampled as
    # enumerated; its maximum level has no row in [1, s], so maxlevel refuses
    # s = 0 in both modes
    for mode in ("exact", "mc"):
        for functional, value in (("windows", "0"), ("stay", "1"), ("tensor", "0")):
            code, rows, _ = run(
                tmp_path, "dyck-stats", "--functional", functional, "--s", "0", "--mode", mode,
                "--trials", "5",
            )
            assert code == 0 and [r["value"] for r in rows] == [value]
    for mode in ("exact", "mc"):
        out = tmp_path / mode
        code = cli.main([
            "dyck-stats", "--functional", "maxlevel", "--mode", mode, "--s", "0",
            "--output-dir", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["tml dyck-stats: s must be at least 1, got 0"]
        assert not out.exists()


@pytest.mark.parametrize(
    "functional, trials",
    [(["windows"], "14"), (["stay"], "14"), (["tensor", "--tensor-order", "3"], "14"),
     (["maxlevel"], "14"), (["beta"], "")],
)
def test_dyck_stats_exact_rows_ignore_trials_and_seed(tmp_path, functional, trials):
    # exact rows average all catalan(4) = 14 paths and draw no random numbers
    code, rows, _ = run(
        tmp_path, "dyck-stats", "--functional", *functional, "--s", "4", "--mode", "exact",
        "--trials", "5", "--seed", "9",
    )
    assert code == 0 and rows
    assert {(r["trials"], r["seed"]) for r in rows} == {(trials, "")}


@pytest.mark.parametrize("mode", [["--mode", "exact"], ["--mode", "mc", "--trials", "10"]])
def test_dyck_stats_tensor_order_past_the_window_count_is_0(tmp_path, mode):
    # e_I over the 2s - 1 interior windows is 0 for larger I; no table of
    # I + 1 entries is built first
    code, rows, _ = run(
        tmp_path, "dyck-stats", "--s", "3", "--functional", "tensor",
        "--tensor-order", str(10**22), *mode,
    )
    assert code == 0
    assert [r["value"] for r in rows] == ["0"]


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_dyck_stats_tensor_order_below_2_is_refused(tmp_path, capsys, mode):
    # order 1 would be E[K], the windows mean, not the interior tensor the
    # per-path k_functional_tensor(p, 1) sums (E[K] - 2s)
    for order in ("1", "0", "-1"):
        code = cli.main([
            "dyck-stats", "--s", "3", "--functional", "tensor", "--tensor-order", order,
            "--mode", mode, "--output-dir", str(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"tml dyck-stats: tensor_order must be at least 2, got {order}"
        ]
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "functional", [["windows"], ["stay"], ["tensor", "--tensor-order", "3"], ["maxlevel"]]
)
def test_dyck_stats_sample_size_guard_exits_1(tmp_path, monkeypatch, capsys, functional):
    # s = 10^9 needs 128 GB for one sampled path; refused before allocating
    monkeypatch.setattr(ensemble, "_physical_memory_bytes", lambda: 8 << 30)
    start = time.perf_counter()
    code = cli.main([
        "dyck-stats", "--functional", *functional, "--mode", "mc", "--s", "1000000000",
        "--trials", "1", "--output-dir", str(tmp_path),
    ])
    assert code == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "s=1000000000 needs 128000000064 bytes" in err
    assert not list(tmp_path.iterdir())


def test_bounds_table(tmp_path):
    code, rows, _ = run(tmp_path, "bounds-table", "--s", "12", "--n", "100000")
    assert code == 0
    families = {r["family"] for r in rows}
    assert {
        "single-walk", "multi-walk", "single-walk-excess-ratio",
        "multi-walk-excess-ratio", "cycle-refined-sum", "mixed-trivial-ratio",
        "mixed-refined-ratio", "typed-vertex-log", "distance-two-log",
        "catalan-convolution-ratio", "power-sum-ratio",
        "catalan-convolution-verified",
    } <= families
    verified = [r for r in rows if r["family"] == "catalan-convolution-verified"]
    assert verified[0]["value"] == "1"


@pytest.mark.parametrize(
    "flag,value,name",
    [
        ("--sigma", "0", "sigma"),
        ("--sigma", "-1", "sigma"),
        ("--entry-bound", "0", "entry_bound"),
        ("--prefactor", "0", "prefactor"),
    ],
)
def test_bounds_table_rejects_non_positive_scales(tmp_path, capsys, flag, value, name):
    code, rows, _ = run(tmp_path, "bounds-table", "--s", "8", "--n", "1000", flag, value)
    assert code == 1 and rows is None
    err = capsys.readouterr().err
    assert err.splitlines() == [f"tml bounds-table: {name} must be positive, got {float(value)!r}"]


@pytest.mark.parametrize(
    "s,n,message", [("0", "100", "s must be at least 1"), ("8", "0", "n must be at least 1")]
)
def test_bounds_table_refuses_n_and_s_below_1(tmp_path, capsys, s, n, message):
    # the rule trace-exact and verify-gluing apply
    code, rows, _ = run(tmp_path, "bounds-table", "--s", s, "--n", n)
    assert code == 1 and rows is None
    assert capsys.readouterr().err.splitlines() == [f"tml bounds-table: {message}, got 0"]


def test_bounds_table_refuses_a_prefactor_below_1(tmp_path, capsys):
    # both families take the one prefactor, and the multi-walk bound needs it at least 1
    code, rows, _ = run(tmp_path, "bounds-table", "--s", "8", "--n", "1000", "--prefactor", "0.5")
    assert code == 1 and rows is None
    assert capsys.readouterr().err.splitlines() == ["tml bounds-table: prefactor must be at least 1, got 0.5"]


@pytest.mark.parametrize(
    "flag,value,name",
    [
        ("--growth-exponent", "nan", "growth_exponent"),
        ("--growth-exponent", "inf", "growth_exponent"),
        ("--nearby", "nan", "total_nearby"),
        ("--nearby", "inf", "total_nearby"),
        ("--large-type", "nan", "large_type_weight"),
        ("--large-type", "inf", "large_type_weight"),
        ("--sigma", "inf", "sigma"),
        ("--entry-bound", "inf", "entry_bound"),
        ("--prefactor", "inf", "prefactor"),
    ],
)
def test_bounds_table_rejects_non_finite_parameters(tmp_path, capsys, flag, value, name):
    code, rows, _ = run(tmp_path, "bounds-table", "--s", "8", "--n", "1000", flag, value)
    assert code == 1 and rows is None
    err = capsys.readouterr().err
    assert err.splitlines() == [f"tml bounds-table: {name} must be finite, got {float(value)!r}"]


@pytest.mark.parametrize("flag,value,name", [
    ("--max-odd-pairs", "-3", "max_odd_pairs"),
    ("--max-merges", "-1", "max_merges"),
])
def test_bounds_table_refuses_negative_counts(tmp_path, capsys, flag, value, name):
    # a negative count used to drop the cycle-refined or mixed-parity rows and exit 0
    code, rows, _ = run(tmp_path, "bounds-table", "--s", "8", "--n", "1000", flag, value)
    assert code == 1 and rows is None
    err = capsys.readouterr().err
    assert err.splitlines() == [f"tml bounds-table: {name} must be at least 0, got {value}"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv,family",
    [
        (["--s", "64", "--n", "100000", "--entry-bound", "1e40"], "cycle-refined-sum"),
        (["--s", "200", "--n", "10", "--max-merges", "150"], "mixed-trivial-ratio"),
        (["--s", "8", "--n", "100000", "--growth-exponent", "100"], "typed-vertex-log"),
    ],
)
def test_bounds_table_writes_inf_past_the_float_range(tmp_path, capsys, argv, family):
    code, rows, _ = run(tmp_path, "bounds-table", *argv)
    assert code == 0
    assert capsys.readouterr().err == ""
    assert any(r["family"] == family and r["value"] == "inf" for r in rows)


@pytest.mark.parametrize("argv,digest", [
    (["--s", "8", "--n", "1000"], "5cebf1a346c0697265b74a2cb2d08065cbde053c633d043f07b41dd78c5a6110"),
    # non-default knobs of the mixed-parity, typed-vertex and distance-two rows
    (
        ["--s", "64", "--n", "100000", "--max-merges", "20", "--growth-exponent", "0.2",
         "--large-type", "3.5", "--nearby", "40", "--complexity", "5"],
        "dd5bc0cd5649105a79ddcfa85e9364596bfa5aca4a709aec0ecccd54ac4ba208",
    ),
], ids=["default", "non-default"])
def test_bounds_table_bytes_are_pinned(tmp_path, argv, digest):
    code, _, _ = run(tmp_path, "bounds-table", *argv)
    assert code == 0
    assert hashlib.sha256((tmp_path / "bounds-table.csv").read_bytes()).hexdigest() == digest


def test_bounds_table_refuses_s_past_the_limit(tmp_path, capsys):
    s = gluing.BOUND_S_LIMIT + 1
    start = time.perf_counter()
    code, rows, _ = run(tmp_path, "bounds-table", "--s", str(s), "--n", "100000")
    assert code == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"tml bounds-table: s={s} exceeds the counting-bound limit {gluing.BOUND_S_LIMIT}"
    ]
    assert not list(tmp_path.iterdir())


def test_json_format(tmp_path):
    code = cli.main([
        "trace-exact", "--dist", "rademacher", "--n", "2", "--s", "2",
        "--format", "json", "--output-dir", str(tmp_path),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "trace-exact.json").read_text())
    assert isinstance(payload, list) and len(payload) == 1
    assert payload[0]["n"] == 2
    # 12 even closed paths of length 4 on 2 vertices, over n^2 = 4
    assert payload[0]["value"] == pytest.approx(3.0)
    manifest = json.loads((tmp_path / "trace-exact.manifest.json").read_text())
    assert manifest["output_files"] == ["trace-exact.json"]


@pytest.mark.parametrize("argv", [
    ["bounds-table", "--s", "600", "--n", "10"],
    ["trace-mc", "--dist", "skew12", "--n", "3", "--s", "400", "--trials", "5"],
])
def test_json_is_strict_and_writes_non_finite_floats_as_the_csv_does(tmp_path, argv):
    def refuse(token):
        raise AssertionError(f"non-standard JSON token {token}")

    assert run(tmp_path, *argv, "--format", "json")[0] == 0
    payload = json.loads((tmp_path / f"{argv[0]}.json").read_text(), parse_constant=refuse)
    code, rows, _ = run(tmp_path, *argv)
    assert code == 0 and len(payload) == len(rows)
    non_finite = 0
    for record, row in zip(payload, rows):
        for key, text in row.items():
            if text in ("inf", "-inf", "nan"):
                assert record[key] == text, key
                non_finite += 1
    assert non_finite > 0


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TML_OUTPUT_DIR", str(tmp_path / "env_out"))
    code = cli.main(["dyck-stats", "--s", "2"])
    assert code == 0
    assert (tmp_path / "env_out" / "dyck-stats.csv").exists()


def test_usage_errors_exit_1(tmp_path):
    assert cli.main([]) == 1                          # no subcommand
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["trace-exact", "--dist", "rademacher"]) == 1  # missing args
    code = cli.main([
        "trace-exact", "--dist", "not-a-law", "--n", "2", "--s", "1",
        "--output-dir", str(tmp_path),
    ])
    assert code == 1
    code = cli.main([
        "trace-exact", "--dist", "rademacher", "--n", "30", "--s", "9",
        "--route", "full", "--output-dir", str(tmp_path),
    ])
    assert code == 1  # enumeration guard trips inside the handler


def test_rerun_is_byte_identical(tmp_path):
    args = ["dyck-stats", "--s", "5", "--functional", "windows"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main([*args, "--output-dir", str(a)]) == 0
    assert cli.main([*args, "--output-dir", str(b)]) == 0
    assert (a / "dyck-stats.csv").read_bytes() == (b / "dyck-stats.csv").read_bytes()


def test_csv_float_format_round_trips(tmp_path):
    code, rows, _ = run(
        tmp_path, "trace-exact", "--dist", "skew12", "--n", "3", "--s", "3"
    )
    assert code == 0
    # %.17g keeps doubles exactly
    assert float(rows[0]["value"]) == 102.44444444444444


TRIAL_LOOPS = [
    ["trace-mc", "--dist", "skew12", "--n", "3", "--s", "2"],
    ["edge-exceed", "--dist", "skew12", "--n", "9", "--trials", "2", "--epsilon", "0.1"],
]


def test_trial_loops_default_to_one_thread():
    # --threads 1 still parses: the benchmark harness passes it
    parser = cli.build_parser()
    for case in TRIAL_LOOPS:
        assert parser.parse_args(case).threads == 1
        assert parser.parse_args([*case, "--threads", "1"]).threads == 1


# concentration has no --threads flag at all, so any count is unrecognized
@pytest.mark.parametrize("threads", ["2", "0", "-4"])
@pytest.mark.parametrize("case,refusal", [
    *[pytest.param(case, "argument --threads: invalid choice: {}", id=case[0])
      for case in TRIAL_LOOPS],
    pytest.param(["concentration", "--dist", "skew12", "--n", "9", "--trials", "2"],
                 "unrecognized arguments: --threads {}", id="concentration"),
])
def test_trial_loops_refuse_other_thread_counts(tmp_path, capsys, case, refusal, threads):
    assert cli.main([*case, "--threads", threads, "--output-dir", str(tmp_path)]) == 1
    assert refusal.format(threads) in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# every trace is of A = M/sqrt(n), and concentration has no trial-thread flag
@pytest.mark.parametrize("argv,removed", [
    (["trace-mc", "--dist", "skew12", "--n", "3", "--s", "2", "--trials", "3"], ["--raw"]),
    (["concentration", "--dist", "skew12", "--n", "9", "--trials", "2"], ["--threads", "1"]),
], ids=["trace-mc", "concentration"])
def test_removed_flags_are_unrecognized(tmp_path, capsys, argv, removed):
    assert cli.main([*argv, *removed, "--output-dir", str(tmp_path)]) == 1
    assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_eigensolver_failure_exits_1(tmp_path, monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise EigensolverError("Lanczos iteration did not converge at tol=1e-10")

    monkeypatch.setattr(spectral, "edge_exceedance_experiment", no_convergence)
    code, rows, _ = run(
        tmp_path, "edge-exceed", "--dist", "rademacher", "--n", "80",
        "--trials", "2", "--epsilon", "0.05",
    )
    assert code == 1 and rows is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "did not converge" in err


def _fresh_interpreter(tmp_path, calls: list[list[str]], check: str = "", blas_env=None) -> None:
    """Run tml.cli.main on each argv in a new interpreter, assert exit 0 for
    each, then run ``check`` there.  The child's BLAS thread variables are
    ``blas_env`` alone."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = (
        "import os, sys\n"
        "from tml.cli import main\n"
        f"for argv in {calls!r}:\n"
        f"    assert main([*argv, '--output-dir', {str(tmp_path)!r}]) == 0, argv\n"
        f"{check}\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREAD_VARIABLES}
    done = subprocess.run(
        [sys.executable, "-c", script], env={**env, **(blas_env or {}), "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


SMALL_CALLS = [
    ["dyck-stats", "--s", "16", "--mode", "mc", "--trials", "50", "--seed", "3"],
    ["trace-mc", "--dist", "skew12", "--n", "3", "--s", "2", "--trials", "50", "--seed", "3"],
]


@pytest.mark.parametrize("argv", SMALL_CALLS, ids=lambda argv: argv[0])
def test_small_calls_run_on_one_blas_thread(tmp_path, argv):
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to count threads in")
    unset = dict.fromkeys(cli._BLAS_THREAD_VARIABLES)
    _fresh_interpreter(
        tmp_path / "pinned", [argv],
        "tasks = os.listdir('/proc/self/task')\n"
        "assert len(tasks) == 1, tasks\n"
        "assert os.environ['OMP_NUM_THREADS'] == '1'",
    )
    blas = json.loads((tmp_path / "pinned" / f"{argv[0]}.manifest.json").read_text())["blas_threads"]
    assert blas == {**unset, "OMP_NUM_THREADS": "1", "set_by_cli": True}
    # the caller's setting is kept, and the table does not depend on the thread count
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        out = tmp_path / name
        caller = {**unset, name: "2"}
        _fresh_interpreter(
            out, [argv],
            f"assert {{k: os.environ.get(k) for k in {cli._BLAS_THREAD_VARIABLES!r}}} == {caller!r}",
            blas_env={name: "2"},
        )
        blas = json.loads((out / f"{argv[0]}.manifest.json").read_text())["blas_threads"]
        assert blas == {**unset, name: "2", "set_by_cli": False}
        table = f"{argv[0]}.csv"
        assert (out / table).read_bytes() == (tmp_path / "pinned" / table).read_bytes()


def test_large_spectral_calls_keep_the_blas_pool(tmp_path):
    _fresh_interpreter(
        tmp_path,
        [["edge-exceed", "--dist", "rademacher", "--n", "64", "--trials", "2", "--epsilon", "0.05"]],
        f"set_ = [k for k in {cli._BLAS_THREAD_VARIABLES!r} if k in os.environ]\n"
        "assert not set_, set_",
    )
    blas = json.loads((tmp_path / "edge-exceed.manifest.json").read_text())["blas_threads"]
    assert blas == {**dict.fromkeys(cli._BLAS_THREAD_VARIABLES), "set_by_cli": False}


@pytest.mark.parametrize("argv,pinned", [
    (["trace-mc", "--dist", "skew12", "--n", "63", "--s", "2"], True),
    (["trace-mc", "--dist", "skew12", "--n", "64", "--s", "2"], False),
    (["spectrum", "--dist", "skew12", "--n", "63"], True),
    (["spectrum", "--dist", "skew12", "--n", "64"], False),
    (["edge-exceed", "--dist", "skew12", "--n", "2000", "--trials", "3", "--epsilon", "0.05"], False),
    (["concentration", "--dist", "skew12", "--n", "64", "--trials", "3"], False),
    (["dyck-stats", "--s", "256", "--mode", "mc"], True),
    (["verify-gluing", "--n", "3", "--s", "4"], True),
])
def test_blas_pin_follows_the_matrix_size(monkeypatch, argv, pinned):
    # the pin is decided before numpy loads; here numpy is hidden from the check
    environ = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREAD_VARIABLES}
    monkeypatch.setattr(os, "environ", environ)
    monkeypatch.delitem(sys.modules, "numpy")
    blas = cli._pin_blas_threads(cli.build_parser().parse_args(argv))
    assert blas["set_by_cli"] is pinned
    assert environ.get("OMP_NUM_THREADS") == ("1" if pinned else None)


def test_main_with_numpy_loaded_leaves_the_environment_alone(tmp_path, monkeypatch):
    environ = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREAD_VARIABLES}
    monkeypatch.setattr(os, "environ", environ)
    before = dict(environ)
    code, _, manifest = run(tmp_path, *SMALL_CALLS[0])
    assert code == 0 and "numpy" in sys.modules
    assert environ == before
    assert manifest["blas_threads"] == {**dict.fromkeys(cli._BLAS_THREAD_VARIABLES), "set_by_cli": False}


def test_exact_routes_load_neither_numpy_nor_scipy(tmp_path):
    _fresh_interpreter(
        tmp_path,
        [
            ["trace-exact", "--dist", "skew12", "--n", "5", "--s", "3", "--route", "patterns"],
            ["verify-gluing", "--n", "3", "--s", "3"],
        ],
        "loaded = [m for m in ('numpy', 'scipy', 'dataclasses', 'inspect', 'datetime', 'subprocess')"
        " if m in sys.modules]\n"
        "assert not loaded, loaded",
    )


@pytest.mark.parametrize("argv", [
    ["trace-mc", "--dist", "skew12", "--n", "3", "--s", "2", "--trials", "2"],
    ["spectrum", "--dist", "skew12", "--n", "3"],
    ["dyck-stats", "--s", "2", "--mode", "mc", "--trials", "2"],
    ["verify-gluing", "--n", "2", "--s", "2", "--random", "3"],  # numpy loads before the sweep
], ids=lambda argv: argv[0])
def test_a_numpy_call_without_numpy_exits_1_in_one_line(tmp_path, argv):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None  # import numpy now raises ImportError\n"
        "import tml.gluing\n"
        "def sweep(*args):  # verify-gluing must fail before its exhaustive sweep\n"
        "    raise AssertionError('the sweep started')\n"
        "tml.gluing._canonical_sequences = sweep\n"
        "from tml.cli import main\n"
        f"sys.exit(main([*{argv!r}, '--output-dir', {str(tmp_path)!r}]))\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert done.stderr.startswith(f"tml {argv[0]}: ") and "numpy" in done.stderr
    assert done.stdout == ""
    assert not list(tmp_path.iterdir())


def test_beta_row_loads_no_numpy(tmp_path):
    # beta_sum is a pure lgamma sum in paths; dyck and numpy stay unloaded
    _fresh_interpreter(
        tmp_path,
        [["dyck-stats", "--s", "1", "--functional", "beta", "--tensor-order", "2"]],
        "loaded = [m for m in ('numpy', 'tml.dyck') if m in sys.modules]\n"
        "assert not loaded, loaded",
    )


def test_numpy_routes_import_their_handlers_names(tmp_path):
    # each handler imports its kernel module inside the handler, on first use
    _fresh_interpreter(
        tmp_path,
        [
            ["dyck-stats", "--s", "2", "--mode", "mc", "--trials", "2"],
            ["trace-mc", "--dist", "rademacher", "--n", "2", "--s", "1", "--trials", "2"],
        ],
    )


def test_spectral_subcommands_load_no_scipy(tmp_path):
    _fresh_interpreter(
        tmp_path,
        [
            ["edge-exceed", "--dist", "rademacher", "--n", "64", "--trials", "2",
             "--epsilon", "0.05"],
            ["spectrum", "--dist", "rademacher", "--n", "64", "--trials", "2"],
        ],
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded",
    )


def test_low_rank_edge_exceed_reruns_are_byte_identical(tmp_path):
    # a law that mostly draws zeros gives matrices of rank at most 2, whose
    # Krylov space closes after a few steps
    argv = ["edge-exceed", "--dist", "support=-1,0,1;probs=0.0001,0.9998,0.0001",
            "--n", "64", "--trials", "2", "--seed", "1", "--epsilon", "0.1"]
    tables = []
    for rerun in range(3):
        out = tmp_path / str(rerun)
        assert cli.main([*argv, "--output-dir", str(out)]) == 0
        tables.append((out / "edge-exceed.csv").read_bytes())
    assert tables[0] == tables[1] == tables[2]


def test_import_loads_only_cli_and_ensemble(tmp_path):
    _fresh_interpreter(
        tmp_path, [],
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'tml')\n"
        "assert loaded == ['tml', 'tml.cli', 'tml.ensemble'], loaded\n"
        "loaded = [m for m in ('numpy', 'scipy', 'dataclasses', 'inspect', 'datetime', 'subprocess')"
        " if m in sys.modules]\n"
        "assert not loaded, loaded",
    )


# a whole second, nanoseconds below a microsecond, and 1 µs past a leap day
@pytest.mark.parametrize(
    "ns", [1_700_000_000 * 10**9, 1_700_000_000_123_456_789, 951_782_400_000_001_000]
)
def test_now_writes_what_datetime_writes(monkeypatch, ns):
    from datetime import datetime, timezone

    monkeypatch.setattr(time, "time_ns", lambda: ns)
    expected = datetime.fromtimestamp(ns // 1000 / 10**6, timezone.utc).isoformat()
    assert cli._now() == expected


@pytest.mark.parametrize("argv,unloaded", [
    (["trace-exact", "--dist", "skew12", "--n", "5", "--s", "3"], ["tml.gluing"]),
    (["dyck-stats", "--s", "3", "--mode", "mc", "--trials", "2"], ["tml.spectral", "concurrent.futures"]),
])
def test_a_subcommand_loads_only_its_kernel(tmp_path, argv, unloaded):
    _fresh_interpreter(
        tmp_path, [argv],
        f"loaded = [m for m in {unloaded!r} if m in sys.modules]\nassert not loaded, loaded",
    )


def test_predictions_past_the_float_range_are_written_as_inf(tmp_path):
    # an exact catalan(s) would hang at s = 2^62 and overflow math.comb at
    # 10^22; the alarm turns a hang into a failure
    def hang(signum, frame):
        pytest.fail("trace-mc did not finish in 10 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        for s in (400, 2**62, 10**22):
            code, rows, _ = run(
                tmp_path, "trace-mc", "--dist", "skew12", "--n", "3", "--s", str(s), "--trials", "5"
            )
            assert code == 0
            assert (rows[0]["prediction"], rows[0]["prediction_refined"]) == ("inf", "inf")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# every subcommand at small sizes; one or two flags, not the choices, are
# swapped for adversarial values.  Work counts of 10^22 are left out: nothing
# refuses them, and they would run for ever.
SMALL_ARGUMENTS = {
    "trace-mc": {"--dist": "skew12", "--n": "3", "--s": "2", "--trials": "5", "--seed": "0"},
    "trace-exact": {"--dist": "skew12", "--n": "3", "--s": "2", "--route": "patterns"},
    "spectrum": {"--dist": "rademacher", "--n": "3", "--trials": "2", "--seed": "0"},
    "edge-exceed": {"--dist": "skew12", "--n": "4", "--trials": "2", "--epsilon": "0.05", "--seed": "0"},
    "concentration": {"--dist": "rademacher", "--n": "4", "--trials": "3", "--t-values": "1,2", "--seed": "0"},
    "verify-gluing": {"--n": "2", "--s": "2", "--random": "2", "--seed": "0"},
    "bounds-table": {
        "--s": "8", "--n": "100", "--sigma": "1.0", "--entry-bound": "1.0", "--prefactor": "1.0",
        "--max-odd-pairs": "2", "--max-merges": "2", "--growth-exponent": "0.01", "--nonclosed": "2",
        "--small-type": "1", "--large-type": "0.0", "--complexity": "2", "--nearby": "10.0",
    },
    "dyck-stats": {
        "--s": "3", "--functional": "windows", "--mode": "exact", "--tensor-order": "2",
        "--trials": "5", "--seed": "0",
    },
}
CHOICES = {
    "--route": ["full", "patterns"],
    "--functional": ["windows", "stay", "tensor", "beta", "maxlevel"],
    "--mode": ["exact", "mc"],
}
ADVERSARIAL_NUMBERS = ["0", "1", "-1", "-0", "2.5", "nan", "inf", "-inf", "1e308", "1e-320", ""]
MALFORMED_DISTS = [
    "", "nope", "support=", "probs=0.5,0.5", "support=-1,1", "support=-1,1;probs=0.5",
    "support=-1,1;probs=0.5,0.5;probs=0.5,0.5", "support=-1,1;probs=0.5,0.5;mean=0",
    "support=nan,1;probs=0.5,0.5", "support=-inf,inf;probs=0.5,0.5", "support=1,1;probs=0.5,0.5",
    "support=-1,1;probs=1.5,-0.5", "support=-1e308,1e308;probs=0.5,0.5", "support=0;probs=1",
    "support=-1e-320,1e-320;probs=0.5,0.5", "support=a,b;probs=0.5,0.5", ";", "=",
]


@settings(max_examples=200)
@given(st.data())
def test_adversarial_arguments_exit_cleanly(data):
    subcommand = data.draw(st.sampled_from(sorted(SMALL_ARGUMENTS)))
    small = SMALL_ARGUMENTS[subcommand]
    swapped = data.draw(st.sets(st.sampled_from([f for f in small if f not in CHOICES]), min_size=1, max_size=2))
    argv = [subcommand]
    for flag, value in small.items():
        if flag in CHOICES:
            value = data.draw(st.sampled_from(CHOICES[flag]))
        elif flag in swapped:
            value = data.draw(st.sampled_from(MALFORMED_DISTS if flag == "--dist" else ADVERSARIAL_NUMBERS))
        argv += [flag, value]

    def hang(signum, frame):
        raise TimeoutError(f"no exit in 5 s: {argv}")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    err = io.StringIO()
    try:
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--output-dir", out])
            written = os.listdir(out)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), argv
    if code == 1:
        # one message line; a usage error has argparse's usage block before it
        *usage, message = [line for line in err.getvalue().splitlines() if not line.startswith(" ")]
        assert message.startswith(f"tml {subcommand}: "), (argv, message)
        assert len(usage) <= 1 and all(line.startswith("usage: ") for line in usage), (argv, usage)
        assert written == [], argv


def test_a_trace_past_the_float_range_is_written_without_warnings(tmp_path, capsys):
    # every trial's trace overflows to inf, so the mean is inf and the spread nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rows, _ = run(
            tmp_path, "trace-mc", "--dist", "skew12", "--n", "3", "--s", "100000", "--trials", "3"
        )
    assert code == 0
    assert capsys.readouterr().err == ""
    assert (rows[0]["mean"], rows[0]["stderr"]) == ("inf", "nan")


def test_edge_threshold_past_the_float_range_is_inf(tmp_path):
    code, rows, _ = run(
        tmp_path, "edge-exceed", "--dist", "skew12", "--n", "4", "--trials", "2",
        "--epsilon", "1e308",
    )
    assert code == 0
    assert {(r["threshold"], r["exceeded"]) for r in rows} == {("inf", "0")}


@pytest.mark.parametrize("case,message", [
    (["edge-exceed", "--trials", "2", "--epsilon", "nan"], "epsilon must be finite, got nan"),
    (["edge-exceed", "--trials", "2", "--epsilon", "inf"], "epsilon must be finite, got inf"),
    (["edge-exceed", "--trials", "2", "--epsilon=-inf"], "epsilon must be finite, got -inf"),
    (["concentration", "--trials", "3", "--t-values", "nan,1"], "t must be finite, got nan"),
    (["concentration", "--trials", "3", "--t-values", "1,inf"], "t must be finite, got inf"),
])
def test_non_finite_spectral_parameters_exit_1(tmp_path, capsys, case, message):
    argv = [case[0], "--dist", "skew12", "--n", "4", *case[1:], "--output-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"tml {case[0]}: {message}"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("subcommand", [
    ["trace-exact", "--n", "2", "--s", "1"],
    ["edge-exceed", "--n", "70", "--trials", "1", "--epsilon", "0.1"],
], ids=["trace-exact", "edge-exceed"])
@pytest.mark.parametrize("law,message", [
    ("support=nan,1;probs=0.5,0.5", "support point nan is not finite"),
    ("support=-inf,inf;probs=0.5,0.5", "support point -inf is not finite"),
    ("support=-1e200,1e200;probs=0.5,0.5", "law variance overflows a float"),
], ids=["nan", "inf", "variance-overflow"])
def test_non_finite_law_exits_1(tmp_path, capsys, subcommand, law, message):
    argv = [subcommand[0], "--dist", law, *subcommand[1:], "--output-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"tml {subcommand[0]}: {message}"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("t_values", ["", ","])
def test_concentration_refuses_an_empty_t_list_before_sampling(
    tmp_path, capsys, monkeypatch, t_values
):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(spectral, "trial_values", no_sampling)
    argv = ["concentration", "--dist", "skew12", "--n", "4", "--trials", "3", "--t-values", t_values]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == ["tml concentration: need at least one t value"]
    assert not list(tmp_path.iterdir())


def test_unwritable_output_exits_1(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    code = cli.main(["dyck-stats", "--s", "2", "--output-dir", str(blocker)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(blocker) in err


@pytest.mark.parametrize("case", [
    ["spectrum", "--dist", "rademacher", "--n", "100000000"],
    ["edge-exceed", "--dist", "rademacher", "--n", "100000000", "--trials", "2",
     "--epsilon", "0.05"],
    ["concentration", "--dist", "rademacher", "--n", "100000000", "--trials", "2"],
])
def test_matrix_size_guard_exits_1(tmp_path, capsys, case):
    # one trial at n = 10^8 and its Lanczos solve hold 1.6e17 bytes; the guard
    # refuses it up front
    assert cli.main([*case, "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "needs 160000000001572864 bytes" in err
    assert not list(tmp_path.iterdir())


def test_matrix_size_guard_uses_physical_memory(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ensemble, "_physical_memory_bytes", lambda: 1000)
    code, _, _ = run(tmp_path, "spectrum", "--dist", "rademacher", "--n", "12")
    assert code == 1
    assert "needs 1575360 bytes" in capsys.readouterr().err


_SKEW_N3 = ("--dist", "skew12", "--n", "3")
_FLOORS = [
    *[(argv, "n", 1, 0) for argv in (
        ["trace-mc", "--dist", "skew12", "--n", "0", "--s", "2", "--trials", "2"],
        ["trace-exact", "--dist", "skew12", "--n", "0", "--s", "2"],
        ["spectrum", "--dist", "skew12", "--n", "0"],
        ["edge-exceed", "--dist", "skew12", "--n", "0", "--trials", "2", "--epsilon", "0.05"],
        ["concentration", "--dist", "skew12", "--n", "0", "--trials", "2"],
        ["verify-gluing", "--n", "0", "--s", "2"],
        ["bounds-table", "--n", "0", "--s", "8"],
    )],
    *[(argv, "s", 1, 0) for argv in (
        ["trace-mc", *_SKEW_N3, "--s", "0", "--trials", "2"],
        ["trace-exact", *_SKEW_N3, "--s", "0"],
        ["verify-gluing", "--n", "3", "--s", "0"],
        ["bounds-table", "--n", "100", "--s", "0"],
    )],
    *[(argv, "trials", 1, 0) for argv in (
        ["trace-mc", *_SKEW_N3, "--s", "2", "--trials", "0"],
        ["spectrum", *_SKEW_N3, "--trials", "0"],
        ["edge-exceed", *_SKEW_N3, "--trials", "0", "--epsilon", "0.05"],
        ["dyck-stats", "--s", "3", "--mode", "mc", "--trials", "0"],
    )],
    (["concentration", *_SKEW_N3, "--trials", "1"], "trials", 2, 1),
    (["verify-gluing", "--n", "3", "--s", "2", "--random", "-1"], "random_walks", 0, -1),
    (["bounds-table", "--n", "100", "--s", "8", "--max-odd-pairs", "-1"], "max_odd_pairs", 0, -1),
    (["bounds-table", "--n", "100", "--s", "8", "--max-merges", "-1"], "max_merges", 0, -1),
    *[
        (["dyck-stats", "--functional", functional, "--mode", mode, "--s", "-1"], "s", 0, -1)
        for functional in ("windows", "stay", "tensor")
        for mode in ("exact", "mc")
    ],
    *[
        (["dyck-stats", "--functional", "maxlevel", "--mode", mode, "--s", s], "s", 1, int(s))
        for s in ("0", "-2")
        for mode in ("exact", "mc")
    ],
    (["dyck-stats", "--s", "3", "--functional", "tensor", "--tensor-order", "1"], "tensor_order", 2, 1),
    (["dyck-stats", "--s", "3", "--functional", "beta", "--tensor-order", "0"], "tensor_order", 1, 0),
    (["trace-mc", *_SKEW_N3, "--s", "2", "--trials", "2", "--seed", "-1"], "seed", 0, -1),
]


@pytest.mark.parametrize("argv,name,least,value", _FLOORS, ids=[" ".join(c[0]) for c in _FLOORS])
def test_every_argument_floor_is_refused_in_one_form(tmp_path, capsys, argv, name, least, value):
    # one rule for every floor: exit 1, one line naming the argument, the
    # floor and the value, and no file written
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"tml {argv[0]}: {name} must be at least {least}, got {value}"
    ]
    assert not list(tmp_path.iterdir())
