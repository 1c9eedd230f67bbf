"""Command-line frontend.

Subcommands:

* ``solve <config>``      -- run the full pipeline on a declarative config
* ``validate-example``    -- solve the exact reference problem and check it
* ``basis-dump <config>`` -- write the basis functions phi_n as CSV

Exit codes: 0 success, 1 validation failure, 2 config error, 3 numeric
failure.  The config grammar is documented in docs/config.md.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import expr
from .assemble import FitResult, ProblemSpec
from .errors import ConfigurationError, SolverError
from .optimize import OptimizerSettings
from .pipeline import Workspace, prepare, solve_free_boundary
from .special import exact_benchmark
from .thp import solution_eval

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_X_KEYS = {"q", "g1", "gamma11", "gamma12"}
_T_KEYS = {"g2", "g3", "gamma21", "gamma22", "flux", "initial_boundary"}
_INT_KEYS = {"mesh_points", "n", "n_x", "n_t", "k", "max_iterations"}
_FLOAT_KEYS = {"l", "l_domain", "t_final"}


class RunConfig:
    """Parsed config file: problem data plus discretization settings."""

    def __init__(self):
        self.exprs: dict = {}
        self.numbers: dict = {}
        self.g3_table = None
        self.stefan = True

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        cfg = cls()
        text = Path(path).read_text()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected 'key = value', got {raw!r}"
                )
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.lower()
            try:
                cfg._assign(key, value, path)
            except ConfigurationError:
                raise
            except Exception as exc:
                raise ConfigurationError(f"{path}:{lineno}: {exc}") from exc
        return cfg

    def _assign(self, key: str, value: str, path: str):
        if key in _X_KEYS:
            self.exprs[key] = expr.parse(value, "x")
        elif key in _T_KEYS:
            self.exprs[key] = expr.parse(value, "t")
        elif key in _INT_KEYS:
            self.numbers[key] = int(value)
        elif key in _FLOAT_KEYS:
            self.numbers[key] = float(value)
        elif key == "g3_file":
            data = np.loadtxt(value, delimiter=",", dtype=float, ndmin=2)
            self.g3_table = (data[:, 0], data[:, 1])
        elif key == "stefan":
            self.stefan = value.lower() in ("on", "true", "yes", "1")
        else:
            raise ConfigurationError(f"unknown config key {key!r} in {path}")

    def num(self, key: str, default):
        return self.numbers.get(key, default)

    def build_spec(self) -> ProblemSpec:
        if not self.stefan:
            raise ConfigurationError(
                "the flux (melt-rate) condition on the free boundary is "
                "mandatory; 'stefan = off' is not solvable"
            )
        if "q" not in self.exprs:
            raise ConfigurationError("config must define the potential q")
        for key in ("l", "l_domain", "t_final"):
            if key not in self.numbers:
                raise ConfigurationError(f"config must define {key}")
        g3 = self.exprs.get("g3")
        n_t = self.num("n_t", 100)
        t_final = self.numbers["t_final"]
        if g3 is None and self.g3_table is not None:
            times, values = self.g3_table
            expected = np.linspace(0.0, t_final, n_t + 1)
            if len(times) != len(expected) or np.max(np.abs(times - expected)) > 1e-9:
                raise ConfigurationError(
                    "g3_file times must match the equidistant collocation "
                    f"grid of {n_t + 1} points on [0, {t_final}]"
                )
            g3 = values
        if g3 is None:
            raise ConfigurationError(
                "config must define the Dirichlet data on the free boundary "
                "(g3 or g3_file)"
            )
        return ProblemSpec(
            q=self.exprs["q"],
            L=self.numbers["l_domain"],
            l=self.numbers["l"],
            T=t_final,
            gamma11=self.exprs.get("gamma11"),
            gamma12=self.exprs.get("gamma12"),
            gamma21=self.exprs.get("gamma21"),
            gamma22=self.exprs.get("gamma22"),
            g1=self.exprs.get("g1"),
            g2=self.exprs.get("g2"),
            g3=g3,
            flux_data=self.exprs.get("flux"),
        )


def _fit_initial_boundary(source_expr, l: float, T: float, K: int) -> np.ndarray:
    """Project an initial-guess expression s(t) onto the monomial shape
    functions; s(0) must equal the anchor l."""
    s0 = source_expr(0.0)
    if abs(s0 - l) > 1e-8 * max(1.0, abs(l)):
        raise ConfigurationError(
            f"initial boundary guess has s(0) = {s0}, expected l = {l}"
        )
    ts = np.linspace(0.0, T, 101)
    target = source_expr(ts) - l
    powers = ts[:, None] ** np.arange(1, K + 1)
    coeffs, *_ = np.linalg.lstsq(powers, target, rcond=None)
    return coeffs


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, header: list, rows: np.ndarray):
    """Write a 2-D float array under a header line, every value as
    ``%.17g`` (the same text as ``_fmt``), with one format per row."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows.tolist())


def _solution_grid(work: Workspace, fit: FitResult) -> np.ndarray:
    """Rows (x, t, Re u) on 50 times x 50 points from x = 0 to the fitted
    boundary, t-major; evaluated one time at a time to keep the basis
    arrays small."""
    blocks = []
    for t in np.linspace(0.0, work.spec.T, 50):
        x = np.linspace(0.0, float(fit.boundary.s_eval(t)), 50)
        u = solution_eval(work.table, fit.a, x, t).real
        blocks.append(np.column_stack([x, np.full(50, t), u]))
    return np.concatenate(blocks)


def _write_outputs(out_dir: Path, work: Workspace, fit: FitResult,
                   solution_rows: np.ndarray):
    """Write the four result files; ``solution_rows`` is the
    ``_solution_grid`` of the fit."""
    out_dir.mkdir(parents=True, exist_ok=True)
    t_grid = work.grid.t
    s_vals = np.atleast_1d(fit.boundary.s_eval(t_grid))
    _write_csv(out_dir / "boundary.csv", ["t", "s"], np.column_stack([t_grid, s_vals]))

    a_real = fit.a.real
    with open(out_dir / "coefficients.txt", "w") as fh:
        fh.write("# basis coefficients a_n\n")
        for n, a in enumerate(a_real):
            fh.write(f"a_{n} = {a:.8e}\n")
        fh.write("# boundary coefficients b_j (s(t) = l + sum b_j t^j)\n")
        fh.write(f"l = {fit.boundary.l:.8f}\n")
        for j, b in enumerate(fit.b, start=1):
            fh.write(f"b_{j} = {b:.8f}\n")

    with open(out_dir / "residuals.txt", "w") as fh:
        names = ("initial", "lateral", "dirichlet", "flux")
        for i, (name, norm, mx) in enumerate(
                zip(names, fit.residual_norms, fit.residual_maxima), start=1):
            fh.write(f"I_{i} ({name}): norm = {norm:.8e}  max = {mx:.8e}\n")
        fh.write(f"F = {fit.F:.8e}\n")

    _write_csv(out_dir / "solution.csv", ["x", "t", "u"], solution_rows)


def cmd_solve(args) -> int:
    cfg = RunConfig.load(args.config)
    spec = cfg.build_spec()
    mesh_points = args.mesh if args.mesh is not None else cfg.num("mesh_points", 2001)
    degree = args.N if args.N is not None else cfg.num("n", 12)
    work = prepare(spec, mesh_points=mesh_points, degree=degree,
                   n_x=cfg.num("n_x", 100), n_t=cfg.num("n_t", 100))
    k = args.K if args.K is not None else cfg.num("k", 6)
    initial_b = None
    guess = None
    if args.seed_boundary is not None:
        guess = expr.parse(args.seed_boundary, "t")
    elif "initial_boundary" in cfg.exprs:
        guess = cfg.exprs["initial_boundary"]
    if guess is not None:
        initial_b = _fit_initial_boundary(guess, spec.l, spec.T, k)
    settings = OptimizerSettings(K=k, max_iterations=cfg.num("max_iterations", 400),
                                 initial_b=initial_b)
    trace = None
    if args.verbose:
        print("stage,iteration,objective," +
              ",".join(f"b_{j}" for j in range(1, k + 1)))

        def trace(stage, it, value, b):
            print(f"{stage},{it},{_fmt(value)}," + ",".join(_fmt(v) for v in b))

    fit = solve_free_boundary(work, settings, trace=trace)
    _write_outputs(Path(args.out), work, fit, _solution_grid(work, fit))
    print(f"converged: F = {fit.F:.6e}; outputs in {args.out}")
    return EXIT_OK


def cmd_validate_example(args) -> int:
    t_start = time.time()
    n_t = 100
    bench = exact_benchmark(np.linspace(0.0, 1.0, n_t + 1))
    spec = bench.spec
    mesh_points = args.mesh if args.mesh is not None else 2001
    degree = args.N if args.N is not None else 12
    k = args.K if args.K is not None else 6
    work = prepare(spec, mesh_points=mesh_points, degree=degree, n_t=n_t)
    fit = solve_free_boundary(work, OptimizerSettings(K=k))
    elapsed = time.time() - t_start

    checks = []

    def check(name, ok, detail):
        checks.append((name, bool(ok), detail))

    a = fit.a.real
    published = {0: (1.00000201, 1e-3), 2: (-0.50002066, 1e-3),
                 4: (1.0 / 24.0, 2e-3), 6: (-1.0 / 720.0, 5e-4)}
    for n, (ref, tol) in published.items():
        if n < len(a):
            check(f"a_{n} vs reference", abs(a[n] - ref) <= tol,
                  f"got {a[n]:.8e}, want {ref:.8e} +/- {tol:g}")
        else:
            check(f"a_{n} vs reference", False, f"basis degree {degree} < {n}")

    ts = np.linspace(0.0, 1.0, 1001)
    s_err = max(abs(float(fit.boundary.s_eval(t)) - bench.exact_s(t)) for t in ts)
    check("boundary max error <= 1e-2", s_err <= 1e-2, f"max error {s_err:.3e}")

    solution_rows = _solution_grid(work, fit)
    u_err = max(abs(u - bench.exact_u(x, t))
                for x, t, u in solution_rows.tolist())
    check("solution max error <= 1e-2", u_err <= 1e-2, f"max error {u_err:.3e}")

    for i, mx in enumerate(fit.residual_maxima, start=1):
        check(f"condition {i} residual max <= 1e-2", mx <= 1e-2, f"max {mx:.3e}")

    check("runtime <= 60 s", elapsed <= 60.0, f"{elapsed:.1f} s")

    _write_outputs(Path(args.out), work, fit, solution_rows)
    width = max(len(name) for name, _, _ in checks)
    failures = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        failures += not ok
        print(f"{status}  {name:<{width}}  {detail}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed "
          f"({elapsed:.1f} s)")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def cmd_basis_dump(args) -> int:
    cfg = RunConfig.load(args.config)
    spec = cfg.build_spec()
    mesh_points = args.mesh if args.mesh is not None else cfg.num("mesh_points", 2001)
    degree = args.N if args.N is not None else cfg.num("n", 12)
    if args.n_max < 0:
        raise ConfigurationError(f"--n must be nonnegative, got {args.n_max}")
    if args.n_max > degree:
        raise ConfigurationError(f"--n {args.n_max} exceeds basis degree {degree}")
    work = prepare(spec, mesh_points=mesh_points, degree=degree,
                   n_t=cfg.num("n_t", 100))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    phi = work.table.values[:, 0, :args.n_max + 1]
    indices = range(args.n_max + 1)
    _write_csv(out_dir / "phi.csv",
               ["x"] + [f"re_phi_{n}" for n in indices] + [f"im_phi_{n}" for n in indices],
               np.column_stack([work.table.mesh.nodes, phi.real, phi.imag]))
    print(f"wrote {out_dir / 'phi.csv'}")
    return EXIT_OK


def _add_common(parser):
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--N", type=int, default=None, help="basis degree override")
    parser.add_argument("--K", type=int, default=None,
                        help="boundary polynomial degree override")
    parser.add_argument("--mesh", type=int, default=None,
                        help="mesh point count override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thpsolve",
        description="Free boundary solver for u_xx - q(x)u = u_t",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a configured problem")
    p_solve.add_argument("config")
    p_solve.add_argument("--seed-boundary", default=None,
                         help="initial boundary guess, expression in t")
    _add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_val = sub.add_parser("validate-example",
                           help="solve the exact reference problem and verify it")
    _add_common(p_val)
    p_val.set_defaults(func=cmd_validate_example)

    p_dump = sub.add_parser("basis-dump", help="write basis functions as CSV")
    p_dump.add_argument("config")
    p_dump.add_argument("--n", dest="n_max", type=int, required=True,
                        help="highest basis index to dump")
    _add_common(p_dump)
    p_dump.set_defaults(func=cmd_basis_dump)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
