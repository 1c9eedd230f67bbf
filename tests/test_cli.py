import os
import subprocess
import sys
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


def test_coefficients_format(config_path, tmp_path):
    out = tmp_path / "out"
    main(["solve", config_path, "--out", str(out)])
    text = (out / "coefficients.txt").read_text()
    assert "b_1 = 0.50000000" in text


def test_seed_boundary_override(config_path, tmp_path):
    out = tmp_path / "out"
    code = main(["solve", config_path, "--out", str(out),
                 "--seed-boundary", "1 + 0.3*t"])
    assert code == 0


def test_seed_boundary_must_match_anchor(config_path, tmp_path):
    code = main(["solve", config_path, "--out", str(tmp_path / "out"),
                 "--seed-boundary", "2 + 0.3*t"])
    assert code == 2


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


def test_config_nonpositive_max_iterations(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(GOOD_CONFIG + "max_iterations = 0\n")
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "max_iterations" in capsys.readouterr().err


def test_capped_search_exits_numeric(tmp_path, capsys):
    # one trust-region iteration cannot converge: the search must fail
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


def test_missing_config_file(tmp_path):
    assert main(["solve", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")]) == 2


def test_g3_file_path(tmp_path):
    times = np.linspace(0.0, 1.0, 101)
    values = 1.0 + (1.0 + 0.5 * times) ** 2 + 2.0 * times
    data = tmp_path / "g3.csv"
    np.savetxt(data, np.column_stack([times, values]), delimiter=",")
    cfg = "\n".join(ln for ln in GOOD_CONFIG.splitlines()
                    if not ln.startswith("g3"))
    cfg += f"\ng3_file = {data}\n"
    path = tmp_path / "problem.cfg"
    path.write_text(cfg)
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 0


def test_basis_dump_monomials(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["basis-dump", config_path, "--n", "3",
                 "--out", str(out)]) == 0
    data = np.loadtxt(out / "phi.csv", delimiter=",", skiprows=1)
    x = data[:, 0]
    for n in range(4):
        assert np.max(np.abs(data[:, 1 + n] - x ** n)) < 1e-10
        assert np.max(np.abs(data[:, 5 + n])) < 1e-12  # imaginary parts


def test_basis_dump_index_guard(config_path, tmp_path):
    assert main(["basis-dump", config_path, "--n", "7",
                 "--out", str(tmp_path / "out")]) == 2


def test_basis_dump_rejects_negative_index(config_path, tmp_path, capsys):
    # a negative n would slice phi from its end and write rows wider than
    # the header
    out = tmp_path / "out"
    assert main(["basis-dump", config_path, "--n", "-3", "--out", str(out)]) == 2
    assert "--n" in capsys.readouterr().err
    assert not (out / "phi.csv").exists()


def test_validate_example_evaluates_solution_grid_once(tmp_path, monkeypatch):
    # one solution_eval per time row of the 50 x 50 grid, shared by the
    # u-error check and solution.csv
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solution_eval(*args, **kwargs)

    monkeypatch.setattr(cli, "solution_eval", counted)
    assert main(["validate-example", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 50


def test_verbose_trace(config_path, tmp_path, capsys):
    assert main(["solve", config_path, "--out", str(tmp_path / "out"),
                 "--verbose"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("stage,iteration,objective,b_1")
    assert len(lines) > 10


_LOADED_SCIPY = ("import sys; print(sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.')))")


def _scipy_modules_after(code: str) -> str:
    # a fresh interpreter: this test process has long since imported scipy
    env = dict(os.environ, PYTHONPATH=str(Path(thpsolve.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code + "\n" + _LOADED_SCIPY],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def test_cli_import_loads_no_scipy():
    assert _scipy_modules_after("import thpsolve.cli") == "[]"


def test_basis_dump_loads_no_scipy(config_path, tmp_path):
    code = ("from thpsolve.cli import main\n"
            f"assert main(['basis-dump', {config_path!r}, '--n', '3', "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0")
    assert _scipy_modules_after(code) == "[]"
