import ast
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import thpsolve
import thpsolve.cli as cli
from thpsolve.cli import main
from thpsolve.thp import solution_eval

GOOD_CONFIG = """\
# manufactured problem with a known polynomial solution
q = 0
l = 1.0
l_domain = 2.0
t_final = 1.0
g1 = 1 + x^2
g2 = 0
g3 = 1 + (1 + 0.5*t)^2 + 2*t
flux = 2*(1 + 0.5*t)
mesh_points = 501
n = 6
k = 2
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "problem.cfg"
    path.write_text(GOOD_CONFIG)
    return str(path)


def test_solve_writes_outputs(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", config_path, "--out", str(out)]) == 0
    rows = (out / "boundary.csv").read_text().splitlines()
    assert rows[0] == "t,s"
    assert len(rows) == 1 + 101
    assert (out / "coefficients.txt").exists()
    assert (out / "residuals.txt").exists()
    assert (out / "solution.csv").exists()


def test_outputs_deterministic(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", config_path, "--out", str(out1)]) == 0
    assert main(["solve", config_path, "--out", str(out2)]) == 0
    for name in ("boundary.csv", "coefficients.txt", "residuals.txt",
                 "solution.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _coefficients(out: Path) -> dict:
    """name -> value of every ``name = value`` line of coefficients.txt."""
    lines = (out / "coefficients.txt").read_text().splitlines()
    return {name: float(value) for name, value in
            (line.split(" = ") for line in lines if not line.startswith("#"))}


def test_coefficients_format(config_path, tmp_path):
    # every number as %.17g, which parses back to the float it came from
    out = tmp_path / "out"
    main(["solve", config_path, "--out", str(out)])
    fields = _coefficients(out)
    assert abs(fields["b_1"] - 0.5) <= 1e-8
    assert fields["shift"] == 0.0
    for line in (out / "coefficients.txt").read_text().splitlines():
        if not line.startswith("#"):
            text = line.split(" = ")[1]
            assert text == "%.17g" % float(text)


Q_MINUS_2_CONFIG = """\
# u = cos(x) e^t solves u_xx + 2 u = u_t; shift c = 2
q = -2
l = 1.0
l_domain = 2.0
t_final = 0.5
g1 = cos(x)
g2 = 0
g3 = cos(1 + 0.5*t + 0.3*t^2) * exp(t)
flux = -sin(1 + 0.5*t + 0.3*t^2) * exp(t)
n = 16
k = 2
"""


@pytest.mark.parametrize("command", ["validate-example", "q=-2"])
def test_coefficients_rebuild_the_solution(command, tmp_path):
    # coefficients.txt carries the whole answer: with the prepared phi_n,
    # u = e^(c t) sum_n a_n sum_k c_k^n phi_(n-2k)(x) t^k from the file's a
    # and c reproduces solution.csv, and l, b reproduce boundary.csv
    out = tmp_path / "out"
    if command == "validate-example":
        spec, args = thpsolve.exact_benchmark().spec, {}
        assert main(["validate-example", "--out", str(out)]) == 0
    else:
        path = tmp_path / "q.cfg"
        path.write_text(Q_MINUS_2_CONFIG)
        spec, args = cli.build_spec(cli.load_config(str(path))), {"degree": 16}
        assert main(["solve", str(path), "--out", str(out)]) == 0
    fields = _coefficients(out)
    # the file lists a_0, a_1, ... and b_1, b_2, ... in order
    a = [v for name, v in fields.items() if name.startswith("a_")]
    b = [v for name, v in fields.items() if name.startswith("b_")]
    table = thpsolve.prepare(spec, **args)
    assert fields["shift"] == table.f.shift == max(0.0, -spec.q(0.0))

    x, t, u = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1).T
    phi = table.spline(x)[:, 0]
    rebuilt = sum(a[n] * thpsolve.heat_coeff(n, k) * phi[:, n - 2 * k] * t ** k
                  for n in range(len(a)) for k in range(n // 2 + 1))
    rebuilt *= np.exp(fields["shift"] * t)
    # measured 1.0e-15 (reference) and 1.3e-15 (q = -2)
    assert np.max(np.abs(rebuilt - u)) <= 1e-14 * np.max(np.abs(u))

    times, s = np.loadtxt(out / "boundary.csv", delimiter=",", skiprows=1).T
    assert np.array_equal(thpsolve.BoundaryModel(fields["l"], b).s_eval(times), s)


def test_seed_boundary_override(config_path, tmp_path):
    out = tmp_path / "out"
    code = main(["solve", config_path, "--out", str(out),
                 "--seed-boundary", "1 + 0.3*t"])
    assert code == 0


def test_seed_boundary_must_match_anchor(config_path, tmp_path):
    code = main(["solve", config_path, "--out", str(tmp_path / "out"),
                 "--seed-boundary", "2 + 0.3*t"])
    assert code == 2


def _trace_start(argv: list, capsys) -> tuple:
    """Header and first row of the ``solve --verbose`` trace of ``argv``."""
    assert main(["solve", *argv, "--verbose"]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[0], [float(v) for v in lines[1].split(",")]


def test_k_flag_beats_the_config_key(config_path, tmp_path, capsys):
    # the config sets k = 2
    header, _ = _trace_start([config_path, "--out", str(tmp_path / "o"),
                              "--K", "3"], capsys)
    assert header == "iteration,objective,b_1,b_2,b_3"


@pytest.mark.parametrize("seed, b_1", [([], 0.1),
                                       (["--seed-boundary", "1 + 0.3*t"], 0.3)],
                         ids=["config", "flag"])
def test_seed_boundary_flag_beats_the_config_key(seed, b_1, tmp_path, capsys):
    path = tmp_path / "problem.cfg"
    path.write_text(GOOD_CONFIG + "initial_boundary = 1 + 0.1*t\n")
    _, first = _trace_start([str(path), "--out", str(tmp_path / "o"), *seed],
                            capsys)
    assert abs(first[2] - b_1) <= 1e-12


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    # Path.read_text raised a UnicodeDecodeError: a traceback and exit 1
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"q = x\xff\n")
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: {path}: not UTF-8 text")


def test_config_invariant_violation(tmp_path, capsys):
    bad = GOOD_CONFIG.replace("l_domain = 2.0", "l_domain = 0.5")
    path = tmp_path / "bad.cfg"
    path.write_text(bad)
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "l <= L" in capsys.readouterr().err


def test_config_missing_dirichlet_data(tmp_path):
    lines = [ln for ln in GOOD_CONFIG.splitlines() if not ln.startswith("g3")]
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines))
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2


def test_config_stefan_cannot_be_disabled(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(GOOD_CONFIG + "stefan = off\n")
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2


def test_config_syntax_error_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("q = 0\nl === 1\n")
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2
    assert ":2:" in capsys.readouterr().err


DOCS = Path(__file__).resolve().parents[1] / "docs" / "config.md"


def _docs_example() -> str:
    text = DOCS.read_text()
    return text.split("```ini\n", 1)[1].split("```", 1)[0]


def _edited_docs_example(drop=(), **values) -> str:
    """The docs example without the lines of the keys in ``drop``, and with
    the given ``values`` on the lines of their keys."""
    lines = []
    for line in _docs_example().splitlines():
        key = line.split("=")[0].strip()
        if key not in drop:
            lines.append(f"{key} = {values[key]}" if key in values else line)
    return "\n".join(lines) + "\n"


def test_prepare_reads_the_mesh_nodes_twice_on_the_docs_example(
        tmp_path, monkeypatch):
    # UniformMesh.nodes runs linspace on every read: q = 0 tabulates q on
    # the nodes once and writes the monomial rows from them once, not once
    # per degree
    path = tmp_path / "example.cfg"
    path.write_text(_docs_example())
    spec = cli.build_spec(cli.load_config(str(path)))
    reads = []
    nodes = thpsolve.UniformMesh.nodes.fget

    def counted(mesh):
        reads.append(mesh)
        return nodes(mesh)
    monkeypatch.setattr(thpsolve.UniformMesh, "nodes", property(counted))
    thpsolve.prepare(spec, 2001, 12)
    assert len(reads) <= 2


FEW_ROWS_CONFIG = """\
q = 0
l = 1
l_domain = 2
t_final = 1
g1 = 1
g3 = 1
n_x = 1
n_t = 1
"""


# line 5 ends inside an expression
TRAILING_OPERATOR_CONFIG = """\
q = 0
l = 1.0
l_domain = 2.0
t_final = 1.0
g1 = 1 + x +
g3 = 1
"""
# q on lines 1 and 7: the later value won silently, and q = 0 was solved
TWICE_GIVEN_CONFIG = """\
q = x^2
l = 1.0
l_domain = 2.0
t_final = 1.0
g1 = 1
g3 = 1
q = 0
"""


# the solve that exposed a converged poor fit exiting 0: q = x^2 - 20 with
# the exact boundary s = 1 + sin(2t)/2 of special.hermite_benchmark(20, 0.5)
HERMITE_20_CONFIG = """\
q = x^2 - 20
l = 1.0
l_domain = 2.0
t_final = 0.5
n = 32
k = 16
g1 = exp(-x^2/2) + 0.3*(4*x^2-2)*exp(-x^2/2)
g2 = 0
g3 = exp(-(1+0.5*sin(2*t))^2/2)*exp(19*t) + 0.3*(4*(1+0.5*sin(2*t))^2-2)*exp(-(1+0.5*sin(2*t))^2/2)*exp(15*t)
flux = -(1+0.5*sin(2*t))*exp(-(1+0.5*sin(2*t))^2/2)*exp(19*t) + 0.3*(8*(1+0.5*sin(2*t)) - (1+0.5*sin(2*t))*(4*(1+0.5*sin(2*t))^2-2))*exp(-(1+0.5*sin(2*t))^2/2)*exp(15*t)
"""


# HERMITE_20_CONFIG over three times the span: its search ended pressed
# against L, with 99 of 126 trial points outside the band, and solve
# printed "converged: F = 5.355322e+16" and exited 0 with a boundary off
# by up to 0.926
STALL_CONFIG = (HERMITE_20_CONFIG.replace("t_final = 0.5", "t_final = 1.5")
                .replace("n = 32", "n = 24").replace("k = 16", "k = 8"))


# u = 1 + x^2 + 2t on s = 1 -/+ 1.2 t at 12/2: the search crept against the
# band on accepted steps and ended by its objective tolerance, s within 1e-8
# of a bound; solve printed "converged: F = 8.968613e-01" (s = 1.03e-6 at
# t = 1) and "converged: F = 1.956874e+00" (s = 1.99999999) and exited 0
CREEP_CONFIG = """\
q = 0
l = 1
l_domain = 2
t_final = 1
n = 12
k = 2
g1 = 1 + x^2
g2 = 0
g3 = 1 + (1 {sign} 1.2*t)^2 + 2*t
flux = 2*(1 {sign} 1.2*t)
"""
CREEP = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: a search that creeps against the band exits 0"))


def _without(key: str) -> str:
    """GOOD_CONFIG without its ``key`` line."""
    return "".join(line + "\n" for line in GOOD_CONFIG.splitlines()
                   if line.split(" = ")[0] != key)


@pytest.mark.parametrize("config, argv, code, stream, pattern", [
    ("flux 2\n" + GOOD_CONFIG, ["solve"], 2, "err",
     r"config error: .*problem\.cfg:1: expected 'key = value', got 'flux 2'"),
    # these three errors named no line, and the second not the file either
    (GOOD_CONFIG + "foo = 1\n", ["solve"], 2, "err",
     r"config error: .*problem\.cfg:13: foo: unknown config key"),
    (TRAILING_OPERATOR_CONFIG, ["solve"], 2, "err",
     r"config error: .*problem\.cfg:5: g1: invalid syntax \(at position 7\)"),
    (TWICE_GIVEN_CONFIG, ["solve"], 2, "err",
     r"config error: .*problem\.cfg:7: q: given twice"),
    (_without("q"), ["solve"], 2, "err",
     r"config error: config must define the potential q"),
    (_without("l"), ["solve"], 2, "err", r"config error: config must define l"),
    (_without("l_domain"), ["basis-dump", "--n", "1"], 2, "err",
     r"config error: config must define l_domain"),
    (_without("t_final"), ["solve"], 2, "err",
     r"config error: config must define t_final"),
    (None, ["validate-example", "--N", "4"], 1, "out",
     r"FAIL  a_6 vs reference +basis degree 4 < 6"),
    # 6 rows for 13 + 6 unknowns: the search "converged" at F ~ 1e-31 on
    # rounding noise and exited 0 with a boundary set by its start
    (FEW_ROWS_CONFIG, ["solve"], 2, "err",
     r"config error: 6 collocation rows cannot determine the N \+ 1 \+ K = 19 "
     r"unknowns \(N = 12, K = 6\); raise n_x or n_t, or lower n or k"),
    # s(0) = 1e-7 lies below the band [1e-6, L]: 36 trial points, then exit
    # 3 with "optimizer returned an inadmissible boundary"
    (_edited_docs_example(drop=("g1", "initial_boundary"), l="1e-7"), ["solve"],
     2, "err", r"config error: need 1e-06 <= l <= L, got l=1e-07, L=2\.0"),
    # 3 times after t = 0 for K = 6 coefficients: exit 3 with "evaluation
    # point outside [0.0, 2.0]" from the solution grid
    (_edited_docs_example(n_t="3"), ["solve"], 2, "err",
     r"config error: n_t = 3 collocation times after t = 0 cannot determine "
     r"the K = 6 boundary coefficients; raise n_t or lower k"),
    # the flag's name was missing from the message
    (GOOD_CONFIG, ["solve", "--seed-boundary", "1 + "], 2, "err",
     r"config error: --seed-boundary: invalid syntax \(at position 4\)"),
    # a guess that cannot be evaluated on [0, T] was a numeric failure
    # (exit 3), and neither this nor the s(0) refusal named the flag or key
    (GOOD_CONFIG, ["solve", "--seed-boundary", "1 + sqrt(t - 0.5)"], 2, "err",
     r"config error: --seed-boundary: invalid value encountered in sqrt "
     r"in '1 \+ sqrt\(t - 0\.5\)'"),
    (GOOD_CONFIG + "initial_boundary = 1 + log(t + 1) - log(1 - t)\n", ["solve"],
     2, "err", r"config error: initial_boundary: divide by zero encountered in "
     r"log in '1 \+ log\(t \+ 1\) - log\(1 - t\)'"),
    (GOOD_CONFIG, ["solve", "--seed-boundary", "2 + 0.3*t"], 2, "err",
     r"config error: --seed-boundary: initial boundary guess has s\(0\) = 2\.0, "
     r"expected l = 1\.0"),
    # a guess whose projection overflows was refused by the search's
    # settings under their own name: "initial_b must be finite, got [inf,
    # nan, ...]"
    (GOOD_CONFIG, ["solve", "--seed-boundary", "1 + 1e308*t"], 2, "err",
     r"config error: --seed-boundary: initial boundary guess projects onto "
     r"non-finite coefficients \[inf, nan\]"),
    (GOOD_CONFIG + "initial_boundary = 1 + 1e308*t\n", ["solve"], 2, "err",
     r"config error: initial_boundary: initial boundary guess projects onto "
     r"non-finite coefficients \[inf, nan\]"),
    (STALL_CONFIG, ["solve"], 3, "err",
     r"numeric failure: boundary search stalled against the band \[1e-06, L\]: "
     r"s = 1\.9999\d+ at t = 1\.425 lies within the last step of the bound "
     r"L = 2 \(objective 5\.35\d+e\+16\); raise l_domain or lower t_final"),
    pytest.param(CREEP_CONFIG.format(sign="-"), ["solve"], 3, "err",
                 r"numeric failure: .*", marks=CREEP),
    pytest.param(CREEP_CONFIG.format(sign="+"), ["solve"], 3, "err",
                 r"numeric failure: .*", marks=CREEP),
], ids=["line-without-equals", "unknown-key", "syntax-error", "key-given-twice",
        "missing-q", "missing-l", "missing-l_domain",
        "missing-t_final", "validate-degree-below-6", "fewer-rows-than-unknowns",
        "anchor-below-the-band", "fewer-times-than-boundary-coefficients",
        "bad-seed-boundary", "unevaluable-seed-boundary",
        "unevaluable-initial-boundary", "seed-boundary-off-anchor",
        "overflowing-seed-boundary", "overflowing-initial-boundary",
        "search-stalled-against-the-band", "search-crept-to-the-lower-bound",
        "search-crept-to-the-upper-bound"])
def test_command_outcome(config, argv, code, stream, pattern, tmp_path, capsys):
    # the exit code and one whole line of the command's output
    if config is not None:
        path = tmp_path / "problem.cfg"
        path.write_text(config)
        argv = [argv[0], str(path), *argv[1:]]
    assert main([*argv, "--out", str(tmp_path / "o")]) == code
    lines = getattr(capsys.readouterr(), stream).splitlines()
    assert any(re.fullmatch(pattern, line) for line in lines), lines


def test_config_nonpositive_max_iterations(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(GOOD_CONFIG + "max_iterations = 0\n")
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "max_iterations" in capsys.readouterr().err


def test_capped_search_exits_numeric(tmp_path, capsys):
    # one Gauss-Newton iteration cannot converge: the search must fail
    # instead of writing its initial guess as the answer
    path = tmp_path / "capped.cfg"
    path.write_text(GOOD_CONFIG + "max_iterations = 1\n")
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "max_iterations" in capsys.readouterr().err


def test_expression_domain_error_exits_numeric(tmp_path, capsys):
    # log(x) is -inf at the mesh node x = 0
    path = tmp_path / "log.cfg"
    path.write_text(GOOD_CONFIG.replace("q = 0", "q = log(x)"))
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_expression_underflow_is_not_an_error(tmp_path):
    path = tmp_path / "underflow.cfg"
    path.write_text(GOOD_CONFIG.replace("q = 0", "q = exp(-1000*x)"))
    assert main(["basis-dump", str(path), "--n", "2",
                 "--out", str(tmp_path / "o")]) == 0


def test_overflowing_potential_exits_numeric(tmp_path, capsys):
    # q = 1e200 printed two RuntimeWarnings from the particular-solution
    # series before its ConvergenceError
    path = tmp_path / "overflow.cfg"
    path.write_text("q = 1e200\nl = 1.0\nl_domain = 2.0\nt_final = 1.0\ng3 = 1\n")
    assert main(["basis-dump", str(path), "--n", "2",
                 "--out", str(tmp_path / "o")]) == 3
    assert "overflows" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert main(["solve", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")]) == 2


def _g3_file_config(tmp_path, times, values) -> Path:
    """GOOD_CONFIG with its g3 read from a file of the given rows."""
    data = tmp_path / "g3.csv"
    np.savetxt(data, np.column_stack([times, values]), delimiter=",")
    cfg = "\n".join(ln for ln in GOOD_CONFIG.splitlines()
                    if not ln.startswith("g3"))
    cfg += f"\ng3_file = {data}\n"
    path = tmp_path / "problem.cfg"
    path.write_text(cfg)
    return path


def _run_cli(args: list, cwd: Path) -> subprocess.CompletedProcess:
    """``python -W error -m thpsolve.cli`` with ``args``: any warning fails."""
    env = dict(os.environ, PYTHONPATH=str(Path(thpsolve.__file__).parents[1]))
    return subprocess.run([sys.executable, "-W", "error", "-m", "thpsolve.cli",
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


G3_TIMES = np.linspace(0.0, 1.0, 101)
G3_VALUES = 1.0 + (1.0 + 0.5 * G3_TIMES) ** 2 + 2.0 * G3_TIMES


def test_g3_file_path(tmp_path):
    path = _g3_file_config(tmp_path, G3_TIMES, G3_VALUES)
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 0


OUTPUT_FILES = ("boundary.csv", "coefficients.txt", "residuals.txt",
                "solution.csv")
BOM = b"\xef\xbb\xbf"


def _solve_with_and_without_bom(path: Path, marked: Path, tmp_path):
    """Solve ``path`` as it stands, then again with the byte-order mark
    taken off the start of ``marked``: both exit 0 and write the same
    files."""
    def solve(name):
        out = tmp_path / name
        assert main(["solve", str(path), "--out", str(out)]) == 0
        return {f: (out / f).read_bytes() for f in OUTPUT_FILES}

    with_mark = solve("with")
    marked.write_bytes(marked.read_bytes().removeprefix(BOM))
    assert solve("without") == with_mark


def test_config_with_a_byte_order_mark_solves(tmp_path):
    # the mark was read as part of the first key: "\ufeffq: unknown config
    # key", exit 2
    path = tmp_path / "docs.cfg"
    path.write_bytes(BOM + _docs_example().encode())
    _solve_with_and_without_bom(path, path, tmp_path)


def test_g3_file_with_a_byte_order_mark_solves(tmp_path):
    # numpy read the first time as "\ufeff0.0": could not convert to float64
    path = _g3_file_config(tmp_path, G3_TIMES, G3_VALUES)
    data = tmp_path / "g3.csv"
    data.write_bytes(BOM + data.read_bytes())
    _solve_with_and_without_bom(path, data, tmp_path)


def test_boundary_csv_holds_the_collocation_times(tmp_path):
    # boundary.csv reads its times off the fit; they are the n_t + 1
    # collocation times, bit for bit
    path = tmp_path / "problem.cfg"
    path.write_text(GOOD_CONFIG + "n_t = 40\n")
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out)]) == 0
    rows = (out / "boundary.csv").read_text().splitlines()[1:]
    times = np.array([float(row.split(",")[0]) for row in rows])
    assert np.array_equal(times, np.linspace(0.0, 1.0, 41))


def test_relative_g3_file_is_read_beside_the_config(tmp_path, monkeypatch):
    # it was read from the working directory: a solve of ../dir/p.cfg run
    # from another directory exited 2 with "g3.csv not found"
    config_dir, work_dir = tmp_path / "dir", tmp_path / "other"
    config_dir.mkdir()
    work_dir.mkdir()
    text = _g3_file_config(config_dir, G3_TIMES, G3_VALUES).read_text()
    (config_dir / "p.cfg").write_text(
        text.replace(str(config_dir / "g3.csv"), "g3.csv"))
    monkeypatch.chdir(work_dir)
    assert main(["solve", "../dir/p.cfg", "--out", "o"]) == 0
    assert (work_dir / "o" / "boundary.csv").exists()


@pytest.mark.parametrize("column, bad, message", [
    (1, np.nan, "g3 must be finite"),
    (1, np.inf, "g3 must be finite"),
    (0, np.nan, "g3_file times must match"),
], ids=["nan-value", "inf-value", "nan-time"])
def test_nonfinite_g3_file_is_a_config_error(column, bad, message, tmp_path):
    # a NaN value printed LAPACK DLASCL lines and a LinAlgError traceback
    # (exit 1); a NaN time passed the grid check and the run exited 0
    rows = np.column_stack([G3_TIMES, G3_VALUES])
    rows[50, column] = bad
    path = _g3_file_config(tmp_path, *rows.T)
    run = _run_cli(["solve", str(path), "--out", str(tmp_path / "o")], tmp_path)
    assert run.returncode == 2
    assert run.stdout == ""
    (line,) = run.stderr.splitlines()
    assert line.startswith("config error: ") and message in line


def test_g3_file_is_checked_against_the_grid_that_reads_it(tmp_path, capsys):
    # the 101 file times are the default grid's; n_t = 50 asks at 51 times
    path = _g3_file_config(tmp_path, G3_TIMES, G3_VALUES)
    path.write_text(path.read_text() + "n_t = 50\n")
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2
    assert ("g3_file times must match the equidistant collocation grid of "
            "51 points on [0, 1.0]") in capsys.readouterr().err


BASIS_CONFIG = """\
q = x^2
l = 1.0
l_domain = 2.0
t_final = 1.0
mesh_points = 20001
n = 20
"""


def test_basis_dump_does_not_read_the_g3_file(tmp_path):
    # basis-dump builds no collocation grid, so the file's times are never
    # asked for; two rows were refused as "grid of 101 points" (exit 2)
    data = tmp_path / "g3.csv"
    data.write_text("0,1\n1,1\n")
    phi = {}
    for name, g3 in (("expr", "g3 = 1"), ("file", f"g3_file = {data}")):
        path = tmp_path / f"{name}.cfg"
        path.write_text(BASIS_CONFIG + g3 + "\n")
        out = tmp_path / name
        assert main(["basis-dump", str(path), "--n", "2", "--out", str(out)]) == 0
        phi[name] = (out / "phi.csv").read_bytes()
    assert phi["file"] == phi["expr"]


def test_g3_file_times_are_checked_relative_to_t_final(tmp_path, capsys):
    # with T = 1e-10 under the fixed tolerance 1e-9, 101 times that are
    # all 0 passed the grid check
    data = tmp_path / "g3.csv"
    np.savetxt(data, np.column_stack([np.zeros(101), np.ones(101)]), delimiter=",")
    path = tmp_path / "problem.cfg"
    path.write_text("q = 0\nl = 1.0\nl_domain = 2.0\nt_final = 1e-10\n"
                    f"g1 = 1\ng2 = 0\nn = 4\nk = 1\ng3_file = {data}\n")
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "g3_file times must match" in capsys.readouterr().err


def test_g3_and_g3_file_together_are_a_config_error(tmp_path, capsys):
    # the expression g3 silently won over the file
    path = _g3_file_config(tmp_path, G3_TIMES, G3_VALUES)
    path.write_text(path.read_text() + "g3 = 1 + (1 + 0.5*t)^2 + 2*t\n")
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "g3 " in err and "g3_file" in err
    assert not (tmp_path / "o").exists()


def test_overflowing_initial_boundary_fails_in_one_line(tmp_path):
    # the projected b is about 1e308: the search printed two numpy overflow
    # warnings, then failed on a NaN evaluation point (or, where the
    # projection's SVD failed, a LinAlgError traceback)
    path = tmp_path / "docs.cfg"
    path.write_text(_docs_example().replace("1 + 0.1*t", "1 + 1e308*t*t"))
    run = _run_cli(["solve", str(path), "--out", str(tmp_path / "o")], tmp_path)
    assert run.returncode in (2, 3)
    assert run.stdout == ""
    (line,) = run.stderr.splitlines()
    assert line.startswith(("config error: ", "numeric failure: "))


def test_failed_guess_projection_is_a_config_error(monkeypatch):
    # the projection is assemble.solve_linear, whose one SVD is the call
    # that can fail
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(thpsolve.ConfigurationError, match="initial_boundary"):
        cli._fit_initial_boundary(thpsolve.expr.parse("1 + t", "t"), 1.0, 1.0, 2,
                                  "initial_boundary")


def test_basis_dump_monomials(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["basis-dump", config_path, "--n", "3",
                 "--out", str(out)]) == 0
    data = np.loadtxt(out / "phi.csv", delimiter=",", skiprows=1)
    x = data[:, 0]
    for n in range(4):
        assert np.max(np.abs(data[:, 1 + n] - x ** n)) < 1e-10
        assert np.max(np.abs(data[:, 5 + n])) < 1e-12  # imaginary parts


def test_basis_dump_index_guard(config_path, tmp_path, monkeypatch, capsys):
    assert main(["basis-dump", config_path, "--n", "7",
                 "--out", str(tmp_path / "out")]) == 2
    # the index is checked against the degree of --N, n or the default
    # before prepare builds the basis table

    def fail(*args, **kwargs):
        raise AssertionError("prepare was called")

    monkeypatch.setattr(cli, "prepare", fail)
    capsys.readouterr()
    path = tmp_path / "default.cfg"
    path.write_text(_without("n"))
    for config, flags, degree in [(config_path, ["--n", "7"], 6),
                                  (config_path, ["--n", "30", "--N", "20"], 20),
                                  (str(path), ["--n", "13"], 12)]:
        argv = ["basis-dump", config, *flags, "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: --n {flags[1]} exceeds basis degree {degree}\n")
    with pytest.raises(AssertionError, match="prepare was called"):
        main(["basis-dump", config_path, "--n", "6", "--out", str(tmp_path / "out")])


def test_basis_dump_rejects_negative_index(config_path, tmp_path, capsys):
    # a negative n would slice phi from its end and write rows wider than
    # the header
    out = tmp_path / "out"
    assert main(["basis-dump", config_path, "--n", "-3", "--out", str(out)]) == 2
    assert "--n" in capsys.readouterr().err
    assert not (out / "phi.csv").exists()


def test_basis_dump_rejects_negative_degree(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["basis-dump", config_path, "--n", "2", "--N", "-1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: degree must be an integer >= 0, got -1\n")
    assert not (out / "phi.csv").exists()


def test_basis_dump_of_phi_0_alone(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["basis-dump", config_path, "--n", "0", "--out", str(out)]) == 0
    lines = (out / "phi.csv").read_text().splitlines()
    assert lines[0] == "x,re_phi_0,im_phi_0"
    assert all(line.endswith(",1,0") for line in lines[1:])


def test_validate_example_evaluates_solution_grid_once(tmp_path, monkeypatch):
    # one solution_eval over all points of the 50 x 50 grid, shared by the
    # u-error check and solution.csv
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solution_eval(*args, **kwargs)

    monkeypatch.setattr(thpsolve.pipeline, "solution_eval", counted)
    assert main(["validate-example", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_solution_grid_matches_the_per_time_loop(manufactured):
    # the grid is one linspace and one solution_eval over all 2500 points;
    # its reference is the loop it replaced, one call per time, whose x and
    # t it must reproduce bit for bit; its last time is the fit's last
    # collocation time, which np.linspace writes as T exactly
    solver, model = manufactured
    fit = solver.fit(model)
    blocks = []
    for t in np.linspace(0.0, solver.spec.T, 50):
        x = np.linspace(0.0, float(fit.boundary.s_eval(t)), 50)
        u = solution_eval(solver.table, fit.a, x, t)
        blocks.append(np.column_stack([x, np.full(50, t), u]))
    expected = np.concatenate(blocks)
    grid = thpsolve.Solution(solver.table, fit).grid
    assert np.array_equal(grid[:, :2], expected[:, :2])
    assert np.array_equal(grid[-50:, 1], np.full(50, solver.spec.T))
    np.testing.assert_allclose(grid[:, 2], expected[:, 2], rtol=1e-14,
                               atol=1e-14)


def _reference_csv(header: list, rows: np.ndarray) -> str:
    # the writer's text, one value at a time
    lines = [",".join(header)]
    lines += [",".join("%.17g" % v for v in row) for row in rows.tolist()]
    return "\n".join(lines) + "\n"


def _signed(values: np.ndarray) -> np.ndarray:
    """Rows (x, -x) of the given floats."""
    v = np.array(values)
    return np.column_stack([v, -v])


_POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-8, 19)])
_BOUNDS = np.array([1e-6, 1e-4, 1e16, 1e17])


@pytest.mark.parametrize("rows", [
    np.column_stack([np.linspace(-1.0, 1.0, 7), np.zeros(7), np.full(7, 0.1)]),
    np.column_stack([np.arange(5.0), np.array([0.0, 0.0, -0.0, 0.0, 0.0])]),
    np.array([[np.nan, np.inf, -np.inf, 0.0], [1e-300, -2.5, 3e300, 0.0]]),
    np.zeros((0, 3)),
    np.column_stack([np.linspace(0.0, 2.0, cli._FORMAT_VALUES // 3 + 1),
                     np.zeros(cli._FORMAT_VALUES // 3 + 1),
                     np.sqrt(np.arange(cli._FORMAT_VALUES // 3 + 1.0))]),
    _signed(np.concatenate([np.nextafter(_POWERS_OF_TEN, 0.0), _POWERS_OF_TEN,
                            np.nextafter(_POWERS_OF_TEN, np.inf)])),
    _signed(np.concatenate([np.nextafter(_BOUNDS, 0.0), _BOUNDS,
                            np.nextafter(_BOUNDS, np.inf),
                            [9.99999999999999999e16, 2.0 ** -25, 2.0 ** -24]])),
], ids=["plus-zero-column", "minus-zero-in-zero-column", "nan-and-inf",
        "no-rows", "one-past-a-block", "powers-of-ten-and-neighbours",
        "range-bounds-and-ties"])
def test_write_csv_text(rows, tmp_path):
    # an all +0.0 column is the literal 0, as %.17g writes it; a -0.0 keeps
    # its sign ("-0"), and a table one row past a block spans two format
    # calls.  Powers of ten and the bounds of the vectorized range
    # (1e-4 <= |x| < 1e17, all of it in fixed notation) are where the
    # decimal exponent and the notation change; 9.99999999999999999e16 is
    # 1e17, and 2**-25 and 2**-24 are dyadic ties of the 17th digit
    header = [f"c{j}" for j in range(rows.shape[1])]
    path = tmp_path / "table.csv"
    cli._write_csv(path, header, rows)
    assert path.read_text() == _reference_csv(header, rows)


def test_write_csv_text_matches_python_on_any_float(tmp_path):
    # the vectorized %.17g against Python's on arbitrary floats: both
    # fallback ranges, subnormals, inf, nan and -0.0 come from st.floats(),
    # the vectorized range gets a strategy of its own, and m * 2**k makes
    # ties of the 17th digit
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    in_range = st.builds(lambda x, sign: sign * x,
                         st.floats(min_value=1e-4, max_value=1e17),
                         st.sampled_from([1.0, -1.0]))
    dyadic = st.builds(math.ldexp, st.integers(-2 ** 53, 2 ** 53),
                       st.integers(-60, 60))
    path = tmp_path / "table.csv"

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.lists(st.one_of(st.floats(), in_range, dyadic),
                               min_size=1, max_size=60))
    def check(values):
        v = np.array(values)
        rows = np.column_stack([v, v[::-1]])
        cli._write_csv(path, ["a", "b"], rows)
        assert path.read_text() == _reference_csv(["a", "b"], rows)

    check()


def test_write_csv_text_next_to_powers_of_ten(tmp_path):
    # the 1000 doubles on each side of every 10**p in and next to the
    # vectorized range: the bucket edges of the exponent table cli._POWERS,
    # and where a carry of the 17 digits to 10**17 would fall if a double
    # came close enough to 10**p
    values = [np.nextafter(1e-4, 0.0), np.nextafter(1e17, 0.0)]
    for p in range(-4, 18):
        x = float(f"1e{p}")
        below, above = [x], [x]
        for _ in range(1000):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], np.inf))
        values += below[1:] + above
    rows = _signed(values)
    path = tmp_path / "table.csv"
    cli._write_csv(path, ["a", "b"], rows)
    assert path.read_bytes() == _reference_csv(["a", "b"], rows).encode()


def test_exponent_table_brackets_each_power_of_ten():
    # _format_cells counts the entries of _POWERS at or below |x| as
    # floor(log10 |x|) + 5; that is exact only if each entry is the least
    # double at or above its power of ten
    assert len(cli._POWERS) == 22
    for E, entry in zip(range(-4, 18), cli._POWERS):
        assert Fraction(entry) >= Fraction(10) ** E
        assert Fraction(np.nextafter(entry, 0.0)) < Fraction(10) ** E


def test_hermite_solve_is_accurate_or_fails(tmp_path):
    # a search in monomial coordinates converged to F = 0.111 with a
    # boundary error of 7.2e-2, and solve exited 0
    path = tmp_path / "hermite.cfg"
    path.write_text(HERMITE_20_CONFIG)
    out = tmp_path / "out"
    code = main(["solve", str(path), "--out", str(out)])
    if code == 0:
        t, s = np.loadtxt(out / "boundary.csv", delimiter=",", skiprows=1).T
        exact = thpsolve.hermite_benchmark(20.0, 0.5).exact_s(t)
        assert np.max(np.abs(s - exact)) <= 1e-6


def test_basis_dump_complex_branch_round_trips(tmp_path):
    # q = -20 on [0, 2] once took the y1 + i y2 branch; now phi.csv holds
    # the real phi_n of q + c = 0, the im_phi columns are all zero, and
    # every written value parses back to the table's
    path = tmp_path / "complex.cfg"
    path.write_text("q = -20\nl = 1.0\nl_domain = 2.0\nt_final = 0.2\n"
                    "g3 = 1\nmesh_points = 201\nn = 4\n")
    out = tmp_path / "out"
    assert main(["basis-dump", str(path), "--n", "4", "--out", str(out)]) == 0
    data = np.loadtxt(out / "phi.csv", delimiter=",", skiprows=1)
    table = thpsolve.prepare(cli.build_spec(cli.load_config(str(path))),
                             mesh_points=201, degree=4)
    phi = table.values[:, 0].T
    assert phi.dtype == np.float64 and table.f.shift == 20.0
    assert np.array_equal(data[:, 0], table.mesh.nodes)
    assert np.array_equal(data[:, 1:6], phi)
    assert not np.any(data[:, 6:])


def test_phi_csv_header(config_path, tmp_path):
    # the benchmark's basis oracle (perfbench/oracles.py, check_basis)
    # requires exactly these columns, so the format keeps its all-zero
    # im_phi columns, written as the literal 0
    out = tmp_path / "out"
    assert main(["basis-dump", config_path, "--n", "2", "--out", str(out)]) == 0
    lines = (out / "phi.csv").read_text().splitlines()
    assert lines[0] == "x,re_phi_0,re_phi_1,re_phi_2,im_phi_0,im_phi_1,im_phi_2"
    assert all(line.endswith(",0,0,0") for line in lines[1:])


def test_verbose_trace(config_path, tmp_path, capsys):
    assert main(["solve", config_path, "--out", str(tmp_path / "out"),
                 "--verbose"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "iteration,objective,b_1,b_2"
    # one row per objective evaluation, numbered from 1, each with K = 2
    # coefficients; the search ends no worse than it began
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) >= 2
    assert all(len(row) == 2 + 2 for row in rows)
    assert [int(row[0]) for row in rows] == list(range(1, len(rows) + 1))
    assert float(rows[-1][1]) <= float(rows[0][1])
    assert lines[-1].startswith("converged: F = ")


def test_smallest_traced_objective_is_the_returned_F(tmp_path, capsys,
                                                     monkeypatch):
    # the search summed r.r beside the fit's F = I1^2 + ... + I4^2: on this
    # example the two differed by 5.7e-42.  The search now reads the fit's F
    path = tmp_path / "docs.cfg"
    path.write_text(_docs_example())
    solutions, solve = [], cli.solve_free_boundary

    def recorded(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(cli, "solve_free_boundary", recorded)
    assert main(["solve", str(path), "--verbose",
                 "--out", str(tmp_path / "o")]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:-1]]
    assert min(float(row[1]) for row in rows) == solutions[0].fit.F


@pytest.mark.parametrize("command, flags", [
    ("basis-dump", ["--K", "3"]),
    ("basis-dump", ["--verbose"]),
    ("validate-example", ["--verbose"]),
], ids=["basis-dump-K", "basis-dump-verbose", "validate-example-verbose"])
def test_flag_of_another_command_is_refused(command, flags, config_path,
                                            tmp_path, capsys):
    # each command takes only the flags it reads; these were silently ignored
    inputs = [config_path, "--n", "1"] if command == "basis-dump" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, *flags, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _modules_after(code: str, names: list) -> list:
    """The modules among ``names`` (packages with their submodules) that a
    fresh interpreter has loaded after running ``code``: this test process
    has long since imported them all."""
    env = dict(os.environ, PYTHONPATH=str(Path(thpsolve.__file__).parents[1]))
    report = (f"import sys; print(sorted(m for m in sys.modules "
              f"if any(m == n or m.startswith(n + '.') for n in {names!r})))")
    run = subprocess.run([sys.executable, "-c", code + "\n" + report],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return ast.literal_eval(run.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy():
    assert _modules_after("import thpsolve.cli", ["scipy"]) == []


def test_cli_import_loads_no_rational_arithmetic():
    # the quadrature weights are a float literal, not rebuilt in fractions
    assert _modules_after("import thpsolve.cli", ["fractions", "decimal"]) == []


def test_cli_import_loads_no_numpy_polynomial():
    # the search's Chebyshev map is its own recurrence: importing
    # numpy.polynomial measured 3-6 ms
    assert _modules_after("import thpsolve.cli", ["numpy.polynomial"]) == []


def _command_modules(command: str, config_path: str, out: Path,
                     names: list) -> list:
    """The modules among ``names`` that running ``command`` loads."""
    inputs = {"basis-dump": [config_path, "--n", "3"], "solve": [config_path],
              "validate-example": []}[command]
    argv = [command, *inputs, "--out", str(out)]
    code = f"from thpsolve.cli import main\nassert main({argv!r}) == 0"
    return _modules_after(code, names)


@pytest.mark.parametrize("command", ["basis-dump", "solve", "validate-example"])
def test_command_loads_no_scipy(command, config_path, tmp_path):
    assert _command_modules(command, config_path, tmp_path / "out",
                            ["scipy"]) == []


@pytest.mark.parametrize("command", ["basis-dump", "solve", "validate-example"])
def test_command_loads_no_numpy_polynomial(command, config_path, tmp_path):
    assert _command_modules(command, config_path, tmp_path / "out",
                            ["numpy.polynomial"]) == []


def test_solve_above_degree_20_without_initial_data(tmp_path, capsys):
    # without g1 or g2 the first basis call happens inside the search, which
    # turned the old N <= 20 cap into "numeric failure" (exit 3)
    path = tmp_path / "n24.cfg"
    path.write_text("q = x^2\nl = 1.0\nl_domain = 1.5\nt_final = 1.0\n"
                    "g3 = 1\nn = 24\n")
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "converged" in capsys.readouterr().out


def test_solve_docs_example_above_degree_20(tmp_path):
    # the N <= 20 cap made this a config error (exit 2)
    path = tmp_path / "docs.cfg"
    path.write_text(_docs_example())
    assert main(["solve", str(path), "--N", "24",
                 "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("seed", ["1 + 1.2*t", "1 - 1.5*t"])
def test_solve_from_a_seed_outside_the_band(seed, tmp_path, capsys):
    # s leaves [1e-6, L = 2] before t = 1: the start is a rejected point,
    # objective inf, and the search restarts from b = 0 (s = l)
    path = tmp_path / "docs.cfg"
    path.write_text(_docs_example())
    out = tmp_path / "o"
    assert main(["solve", str(path), "--seed-boundary", seed, "--verbose",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert rows[1][:2] == ["1", "inf"]
    assert rows[2][0] == "2" and float(rows[2][1]) < math.inf
    assert rows[2][2:] == ["0"] * 6
    t, s = np.loadtxt(out / "boundary.csv", delimiter=",", skiprows=1).T
    assert np.max(np.abs(s - (1 + t / 2))) <= 1e-12


@pytest.mark.parametrize("command", ["solve", "basis-dump"])
@pytest.mark.parametrize("key", ["n_x", "n_t"])
def test_empty_collocation_grid_is_a_config_error(command, key, tmp_path):
    # basis-dump read n_t but not n_x, so n_x = 0 passed there and failed
    # only in solve
    path = tmp_path / "bad.cfg"
    path.write_text(GOOD_CONFIG + f"{key} = 0\n")
    inputs = [str(path), "--n", "2"] if command == "basis-dump" else [str(path)]
    assert main([command, *inputs, "--out", str(tmp_path / "o")]) == 2


def test_degree_past_float_range_exits_numeric(config_path, tmp_path, capsys):
    # with no degree cap, c_k^n outgrows a float from n = 266 on; the int to
    # float conversion raised a bare OverflowError (exit 1, with a traceback)
    assert main(["solve", config_path, "--N", "300", "--mesh", "201",
                 "--out", str(tmp_path / "o")]) == 3
    assert "float range" in capsys.readouterr().err


def test_shift_past_float_range_exits_numeric(tmp_path, capsys):
    # q = -1000 gives the shift c = 1000, and e^(c t) overflows from
    # t = 0.71 on: the run printed four numpy RuntimeWarnings and exited 3
    # with "SVD did not converge" (a traceback, exit 1, under -W error)
    path = tmp_path / "shift.cfg"
    path.write_text("q = -1000\nl = 1.0\nl_domain = 2.0\nt_final = 1.0\n"
                    "g1 = 1\ng2 = 0\ng3 = 1\nn = 8\nk = 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "shift c = 1000" in capsys.readouterr().err


def test_overflowing_heat_polynomial_names_h_n(tmp_path, capsys):
    # at N = 265 a product c_k^n phi_(n-2k) overflows while the factor
    # e^(c t) is 1 (c = 0); the message blamed e^(c t)
    path = tmp_path / "docs.cfg"
    path.write_text(_docs_example())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(path), "--N", "265",
                     "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "H_n or its x-derivative exceeds the float range (N = 265" in err
    assert "e^(c t)" not in err


def test_overflowing_residual_norm_exits_numeric(tmp_path, capsys):
    # a residual of 1e200 overflows its block norm: np.linalg.norm warned
    # "overflow encountered in dot" before the documented message
    path = tmp_path / "norm.cfg"
    path.write_text("q = 0\nl = 1.0\nl_domain = 2.0\nt_final = 1.0\n"
                    "g1 = 1\ng3 = 1e200\nn = 6\nk = 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "not finite at the initial point" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, flags, mesh_points", [
    ("basis-dump", "q = 0\nl = 1\nl_domain = 2\nt_final = 1\ng3 = 1\n",
     ["--n", "1100", "--N", "1100", "--mesh", "201"], 201),
    ("solve", "q = 0\nl = 1\nl_domain = 100\nt_final = 0.1\ng3 = 1\n",
     ["--N", "160"], 2001),
    ("basis-dump", "q = x\nl = 1\nl_domain = 2\nt_final = 1\ng3 = 1\n",
     ["--n", "1100", "--N", "1100", "--mesh", "201"], 201),
], ids=["basis-dump", "solve", "basis-dump-recursion"])
def test_formal_power_past_float_range_exits_numeric(command, config, flags,
                                                     mesh_points, tmp_path,
                                                     capsys):
    # phi_n outgrew a float with four numpy RuntimeWarnings: basis-dump
    # wrote inf and nan into 200 of phi.csv's 201 rows and solve reported
    # convergence (F = 8.8e-29) on a table holding nan, both with exit 0.
    # The q = 0 rows overflow in the monomials x^n; q = x overflows in the
    # recursion, at phi_631
    path = tmp_path / "phi.cfg"
    path.write_text(config)
    inputs = [str(path), *flags, "--out", str(tmp_path / "o")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, *inputs]) == 3
    err = capsys.readouterr().err
    degree = int(re.search(r"phi_(\d+) exceeds the float range", err).group(1))
    assert not (tmp_path / "o").exists()
    # the degree named is the first one that leaves the float range
    spec = cli.build_spec(cli.load_config(str(path)))
    table = thpsolve.prepare(spec, mesh_points, degree - 1)
    assert np.isfinite(table.values).all()
    with pytest.raises(thpsolve.DomainError, match=f"phi_{degree} "):
        thpsolve.prepare(spec, mesh_points, degree)


def test_boundary_power_past_float_range_exits_numeric(tmp_path, capsys):
    # t^j overflowed in BoundaryModel.shape: the run printed two numpy
    # RuntimeWarnings, then exited 3 with the misleading "evaluation point
    # outside [0.0, 2.0]"
    path = tmp_path / "huge_t.cfg"
    path.write_text("q = x\nl = 1\nl_domain = 2\nt_final = 1e300\ng3 = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "t^j exceeds the float range" in capsys.readouterr().err


def test_tiny_final_time_exits_numeric(tmp_path, capsys):
    # the Chebyshev map of the search holds coefficients up to
    # 2^(2K-1) / T^K, past the float range at T = 1e-60 and K = 6; unchecked,
    # they made the step's SVD fail with a traceback
    path = tmp_path / "tiny_t.cfg"
    path.write_text(_docs_example().replace("t_final  = 1.0", "t_final = 1e-60"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "Chebyshev search coordinates exceed the float range" in \
        capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("datum", ["g1 = 1e308*x", "flux = 1e308*t*t"],
                         ids=["g1", "flux"])
def test_huge_data_exit_numeric_without_warnings(datum, tmp_path, capsys):
    # the inner least-squares solution overflowed: solve_linear printed
    # three numpy RuntimeWarnings before the documented message
    path = tmp_path / "huge.cfg"
    path.write_text(f"q = 0\nl = 1\nl_domain = 2\nt_final = 1\ng3 = 1\n{datum}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "not finite at the initial point" in capsys.readouterr().err


@pytest.mark.parametrize("l_domain, t_final, message", [
    ("inf", "1", "L must be finite, got L=inf"),
    ("2.0", "nan", "T must be finite, got T=nan"),
    ("2.0", "inf", "T must be finite, got T=inf"),
], ids=["l_domain-inf", "t_final-nan", "t_final-inf"])
def test_nonfinite_geometry_is_a_config_error(l_domain, t_final, message,
                                              tmp_path, capsys):
    # l_domain = inf ran into the particular-solution series (exit 3, after
    # numpy RuntimeWarnings); a non-finite t_final exited 2 with the wrong
    # message "t grid must start at 0"
    path = tmp_path / "nonfinite.cfg"
    path.write_text(f"q = 0\nl = 1.0\nl_domain = {l_domain}\n"
                    f"t_final = {t_final}\ng3 = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
