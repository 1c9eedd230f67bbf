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
from functools import partial
from pathlib import Path

import numpy as np

from . import expr
from .assemble import InnerSolver, ProblemSpec, solve_linear
from .boundary import BoundaryModel
from .errors import (ConfigurationError, ExpressionEvalError, SolverError,
                     require_count)
from .optimize import DEFAULT_K
from .pipeline import DEFAULT_DEGREE, Solution, prepare, solve_free_boundary
from .special import exact_benchmark

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# config key -> reader of its value: the one list of config keys
_READERS = {
    **dict.fromkeys(("q", "g1", "gamma11", "gamma12"),
                    partial(expr.parse, variable_name="x")),
    **dict.fromkeys(("g2", "g3", "gamma21", "gamma22", "flux", "initial_boundary"),
                    partial(expr.parse, variable_name="t")),
    **dict.fromkeys(("mesh_points", "n", "n_x", "n_t", "k", "max_iterations"), int),
    **dict.fromkeys(("l", "l_domain", "t_final"), float),
    # the first two columns of a CSV file: times, then values
    "g3_file": lambda path: np.loadtxt(path, delimiter=",", ndmin=2,
                                       encoding="utf-8-sig")[:, [0, 1]].T,
}
# keyword argument -> (config key, flag) for prepare, InnerSolver and
# minimize_boundary
_PREPARE_KEYS = {"mesh_points": ("mesh_points", "mesh"), "degree": ("n", "N")}
_SOLVER_KEYS = {"n_x": ("n_x", None), "n_t": ("n_t", None)}
_SEARCH_KEYS = {"K": ("k", "K"), "max_iterations": ("max_iterations", None)}


def _chosen(keys: dict, args, values: dict) -> dict:
    """The keyword arguments in ``keys`` that a flag or a config value
    sets, the flag first; the rest keep the library's defaults."""
    out = {}
    for name, (key, flag) in keys.items():
        value = getattr(args, flag) if flag else None
        value = values.get(key) if value is None else value
        if value is not None:
            out[name] = value
    return out


def load_config(path: str) -> dict:
    """The value of each key a config file sets, as read by the key's
    reader.  A leading byte-order mark is not part of the text."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text: {exc}") from exc
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
        if key not in _READERS or key in values:
            why = "given twice" if key in values else "unknown config key"
            raise ConfigurationError(f"{path}:{lineno}: {key}: {why}")
        if key == "g3_file":     # a relative path is beside the config
            value = Path(path).parent / value
        try:
            values[key] = _READERS[key](value)
        except Exception as exc:
            raise ConfigurationError(f"{path}:{lineno}: {key}: {exc}") from exc
    return values


def build_spec(values: dict) -> ProblemSpec:
    """The problem a config's ``values`` define."""
    if "q" not in values:
        raise ConfigurationError("config must define the potential q")
    for key in ("l", "l_domain", "t_final"):
        if key not in values:
            raise ConfigurationError(f"config must define {key}")
    if "g3" in values and "g3_file" in values:
        raise ConfigurationError(
            "g3 and g3_file are mutually exclusive; give one of them")
    g3 = values.get("g3")
    if "g3_file" in values:
        g3 = partial(_read_g3_file, *values["g3_file"], values["t_final"])
    if g3 is None:
        raise ConfigurationError(
            "config must define the Dirichlet data on the free boundary "
            "(g3 or g3_file)"
        )
    return ProblemSpec(
        q=values["q"], L=values["l_domain"], l=values["l"], T=values["t_final"],
        g1=values.get("g1"), g2=values.get("g2"), g3=g3,
        flux_data=values.get("flux"),
        **{key: values[key] for key in ("gamma11", "gamma12", "gamma21",
                                        "gamma22") if key in values},
    )


def _read_g3_file(times: np.ndarray, values: np.ndarray, T: float,
                  points: np.ndarray) -> np.ndarray:
    """The ``values`` of a g3_file, asked at exactly its ``times``: each of
    ``points`` within 1e-9 T of its time (so a NaN time fails), or a
    ConfigurationError that gives the size of the grid that asked."""
    if np.shape(points) != times.shape or not np.all(np.abs(points - times) <= 1e-9 * T):
        raise ConfigurationError(
            "g3_file times must match the equidistant collocation "
            f"grid of {np.size(points)} points on [0, {T}]")
    return values


def _fit_initial_boundary(source_expr, l: float, T: float, K: int,
                          name: str) -> np.ndarray:
    """Project an initial-guess expression s(t) onto the monomial shape
    functions; s(0) must equal the anchor l.  Each refusal, and a guess that
    cannot be evaluated on [0, T], is a ConfigurationError naming ``name``."""
    ts = np.linspace(0.0, T, 101)
    try:
        s0 = source_expr(0.0)
        if abs(s0 - l) > 1e-8 * max(1.0, abs(l)):
            raise ConfigurationError(
                f"initial boundary guess has s(0) = {s0}, expected l = {l}")
        shape = BoundaryModel(l, np.zeros(K)).shape(ts)
        b = solve_linear(shape, source_expr(ts) - l)[0]
        if not np.all(np.isfinite(b)):
            raise ConfigurationError(f"initial boundary guess projects onto "
                                     f"non-finite coefficients {b.tolist()}")
        return b
    except (ConfigurationError, ExpressionEvalError) as exc:
        raise ConfigurationError(f"{name}: {exc}") from exc
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError(f"{name} cannot be projected: {exc}") from exc


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# values per _format_cells call: a float64 temporary of 8192 values is
# 64 KiB, below glibc's 128 KiB mmap threshold, so it is not mapped and
# page-faulted in again at every allocation (in calls of 16384 values the
# function took 1.4-3x as long per value)
_FORMAT_VALUES = 8192
# bytes per value in _write_csv's row layout: %.17g is at most 24
# characters, then the separator
_CELL = 25
# 10**k for 0 <= k <= 20 is an exact double; its halves split by 2**27 + 1
_SPLIT = 2.0 ** 27 + 1.0
_P10 = np.array([float(10 ** k) for k in range(21)])
_P10_HI = _SPLIT * _P10 - (_SPLIT * _P10 - _P10)
_P10_LO = _P10 - _P10_HI
# the doubles nearest 10**E, E = -4 .. 17: each is >= 10**E and the double
# below it < 10**E, so for 1e-4 <= |x| < 1e17 the entries <= |x| number E + 5
# with E = floor(log10 |x|).  A binade [2**b, 2**(b + 1)) holds at most one
# power of ten: _BINADES[b + 14] counts the entries <= 2**b, and comparing
# |x| with the next entry counts the one that may follow
_POWERS = np.array([float(f"1e{e}") for e in range(-4, 18)])
_BINADES = np.searchsorted(_POWERS, np.ldexp(1.0, np.arange(-14, 57)), side="right")


def _quad_table() -> np.ndarray:
    """Entry g is 0 <= g < 10**4 as four ASCII digits in one uint32, and
    entry g + 10**4 the same with its trailing zeros as NUL padding."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    quads[..., 0] = digit[:, None, None, None]
    quads[..., 1] = digit[:, None, None]
    quads[..., 2] = digit[:, None]
    quads[..., 3] = digit
    quads[1, :, :, :, 0, 3] = 0
    quads[1, :, :, 0, 0, 2:] = 0
    quads[1, :, 0, 0, 0, 1:] = 0
    quads[1, 0, 0, 0, 0] = 0
    return quads.view(np.uint32).ravel()


_QUADS = _quad_table()


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple:
    """(hi, lo) with hi + lo == a * 10**k exactly: Dekker's TwoProduct."""
    hi = a * _P10.take(k)
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    b_hi, b_lo = _P10_HI.take(k), _P10_LO.take(k)
    lo = a_hi * b_hi
    lo -= hi
    lo += a_hi * b_lo
    lo += a_lo * b_hi
    lo += a_lo * b_lo
    return hi, lo


def _format_cells(values: np.ndarray, cells: np.ndarray):
    """Write ``'%.17g' % x`` for each x of the 1-D float64 array ``values``
    into the NUL-filled rows of the uint8 array ``cells``
    (``len(values)`` x ``_CELL``), leaving their last byte.

    For 1e-4 <= |x| < 1e17 the 17 digits are N = |x| * 10**k rounded half
    to even, k = 16 - E, from an exact product, E = floor(log10 |x|) counted
    in ``_POWERS``; the rows are laid out by E, in the fixed notation Python
    uses for -4 <= E <= 16.  Zeros are ``0`` and ``-0``.  Python formats
    every other value (smaller, larger, subnormal, inf, nan) one at a time."""
    a = np.abs(values)
    in_range = (a >= 1e-4) & (a < 1e17)
    fast = np.flatnonzero(in_range)
    af = a.take(fast)
    e = _BINADES.take((af.view(np.int64) >> 52) - (1023 - 14))
    e += af >= _POWERS.take(e)     # E + 5
    hi, lo = _scaled(af, 21 - e)
    # N never rounds up to 10**17: that needs |x| within 5e-18 (relative)
    # below 10**(E + 1), and the doubles below 1e-3 .. 1e17 all lie at least
    # 8.3e-17 below it.  hi >= 1e16 > 2**53 is an even integer, so rounding
    # lo half to even rounds hi + lo half to even
    n = hi.astype(np.int64)
    n += np.rint(lo).astype(np.int64)
    e = (e - 5).astype(np.int8)
    order = np.argsort(e, kind="stable")
    e = e.take(order)
    n = n.take(order)
    fast = fast.take(order)
    # the leading digit, then four groups of four through _QUADS
    top = (n // 100_000_000).astype(np.int32)
    n -= top * np.int64(100_000_000)
    low = n.astype(np.int32)
    lead = top // 100_000_000
    top -= lead * 100_000_000
    lead += ord("0")
    groups = []
    for half in (top, low):
        upper = half // 10000
        half -= upper * 10000
        groups += [upper, half]
    quads = np.empty((len(n), 4), np.uint32)
    strip = np.full(len(n), 10000, np.int32)   # while every later group is 0
    for i in (3, 2, 1, 0):
        quads[:, i] = _QUADS.take(groups[i] + strip)
        strip *= groups[i] == 0
    digits = quads.view(np.uint8)
    text = np.zeros((len(n), _CELL), np.uint8)
    text[:, 0] = np.signbit(values.take(fast)).view(np.uint8) * np.uint8(ord("-"))
    counts = np.bincount(e + 4, minlength=21)     # E from -4 to 16
    stop = 0
    for exp in np.flatnonzero(counts) - 4:
        start, stop = stop, stop + counts[exp + 4]
        t, d, d0 = text[start:stop], digits[start:stop], lead[start:stop]
        if exp >= 0:
            # integer digits (a padded zero is "0"), then the point and
            # the fraction if any digit follows it
            t[:, 1] = d0
            np.bitwise_or(d[:, :exp], ord("0"), out=t[:, 2:exp + 2])
            if exp < 16:
                t[:, exp + 2] = (d[:, exp] != 0) * np.uint8(ord("."))
                t[:, exp + 3:19] = d[:, exp:]
        else:
            t[:, 1:2 - exp] = ord("0")
            t[:, 2] = ord(".")
            t[:, 2 - exp] = d0
            t[:, 3 - exp:19 - exp] = d
    cells.view(f"V{_CELL}")[fast] = text.view(f"V{_CELL}")
    zero = np.flatnonzero(a == 0)
    sign = np.signbit(values.take(zero))
    cells[zero, 0] = np.where(sign, ord("-"), ord("0"))
    cells[zero, 1] = sign * ord("0")
    rest = np.flatnonzero(~in_range & (a != 0))
    texts = ("%.17g " * len(rest) % tuple(values.take(rest).tolist())).split()
    cells[rest, :-1] = np.array(texts, f"S{_CELL - 1}").view(np.uint8).reshape(-1, _CELL - 1)


def _write_csv(path: Path, header: list, rows: np.ndarray):
    """Write a 2-D float array under a header line, every value as
    ``%.17g`` (the same text as ``_fmt``).  A block of rows, at most
    ``_FORMAT_VALUES`` values, is formatted by one ``_format_cells`` call
    into NUL-padded cells of ``_CELL`` bytes, each ending in its separator,
    and written without the padding."""
    n_cols = rows.shape[1]
    block_rows = max(_FORMAT_VALUES // n_cols, 1)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(rows), block_rows):
            values = rows[start:start + block_rows].ravel()
            cells = np.zeros((len(values), _CELL), np.uint8)
            _format_cells(values, cells)
            cells[:, -1] = ord(",")
            cells[n_cols - 1::n_cols, -1] = ord("\n")
            fh.write(cells.tobytes().translate(None, b"\0"))


def _write_outputs(out_dir: Path, solution: Solution):
    """Write the four result files of ``solution``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    fit = solution.fit
    _write_csv(out_dir / "boundary.csv", ["t", "s"],
               np.column_stack([fit.t, solution.s_eval(fit.t)]))

    with open(out_dir / "coefficients.txt", "w") as fh:
        fh.write("# basis coefficients a_n (u = sum a_n H_n)\n")
        for n, a in enumerate(fit.a):
            fh.write(f"a_{n} = {_fmt(a)}\n")
        fh.write("# spectral shift c (H_n carries e^(c t); phi_n are those of q + c)\n")
        fh.write(f"shift = {_fmt(solution.table.f.shift)}\n")
        fh.write("# boundary coefficients b_j (s(t) = l + sum b_j t^j)\n")
        fh.write(f"l = {_fmt(fit.boundary.l)}\n")
        for j, b in enumerate(fit.b, start=1):
            fh.write(f"b_{j} = {_fmt(b)}\n")

    with open(out_dir / "residuals.txt", "w") as fh:
        rows = zip(fit.blocks, fit.residual_norms, fit.residual_maxima)
        for i, (name, norm, mx) in enumerate(rows, start=1):
            fh.write(f"I_{i} ({name}): norm = {norm:.8e}  max = {mx:.8e}\n")
        fh.write(f"F = {fit.F:.8e}\n")

    _write_csv(out_dir / "solution.csv", ["x", "t", "u"], solution.grid)


def _search(args, spec: ProblemSpec, values: dict) -> Solution:
    """Solve ``spec`` as solve and validate-example both do: flags override
    the config ``values``, and ``--seed-boundary`` their ``initial_boundary``."""
    search = _chosen(_SEARCH_KEYS, args, values)
    K = search.get("K", DEFAULT_K)
    require_count("K", K, 1)
    guess, name = values.get("initial_boundary"), "initial_boundary"
    if args.seed_boundary is not None:
        name = "--seed-boundary"
        try:
            guess = _READERS["initial_boundary"](args.seed_boundary)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{name}: {exc}") from exc
    if guess is not None:
        search["initial_b"] = _fit_initial_boundary(guess, spec.l, spec.T, K,
                                                    name)
    table = prepare(spec, **_chosen(_PREPARE_KEYS, args, values))
    solver = InnerSolver(spec, table, **_chosen(_SOLVER_KEYS, args, values))
    trace = None
    if args.verbose:
        print("iteration,objective," +
              ",".join(f"b_{j}" for j in range(1, K + 1)))

        def trace(it, value, b):
            print(f"{it},{_fmt(value)}," + ",".join(_fmt(v) for v in b))

    return solve_free_boundary(solver, **search, trace=trace)


def cmd_solve(args) -> int:
    values = load_config(args.config)
    solution = _search(args, build_spec(values), values)
    _write_outputs(Path(args.out), solution)
    print(f"converged: F = {solution.fit.F:.6e}; outputs in {args.out}")
    return EXIT_OK


def cmd_validate_example(args) -> int:
    t_start = time.perf_counter()
    bench = exact_benchmark()
    solution = _search(args, bench.spec, {})
    x, t, u = solution.grid.T     # the runtime covers the solution grid
    elapsed = time.perf_counter() - t_start

    checks = []

    def check(name, ok, detail):
        checks.append((name, bool(ok), detail))

    a = solution.fit.a
    published = {0: (1.00000201, 1e-3), 2: (-0.50002066, 1e-3),
                 4: (1.0 / 24.0, 2e-3), 6: (-1.0 / 720.0, 5e-4)}
    for n, (ref, tol) in published.items():
        if n < len(a):
            check(f"a_{n} vs reference", abs(a[n] - ref) <= tol,
                  f"got {a[n]:.8e}, want {ref:.8e} +/- {tol:g}")
        else:
            check(f"a_{n} vs reference", False,
                  f"basis degree {solution.table.degree} < {n}")

    ts = np.linspace(0.0, 1.0, 1001)
    s_err = np.max(np.abs(solution.s_eval(ts) - bench.exact_s(ts)))
    check("boundary max error <= 1e-2", s_err <= 1e-2, f"max error {s_err:.3e}")

    u_err = np.max(np.abs(u - bench.exact_u(x, t)))
    check("solution max error <= 1e-2", u_err <= 1e-2, f"max error {u_err:.3e}")

    for i, mx in enumerate(solution.fit.residual_maxima, start=1):
        check(f"condition {i} residual max <= 1e-2", mx <= 1e-2, f"max {mx:.3e}")

    check("runtime <= 60 s", elapsed <= 60.0, f"{elapsed:.1f} s")

    _write_outputs(Path(args.out), solution)
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    passed = sum(ok for _, ok, _ in checks)
    print(f"{passed}/{len(checks)} checks passed ({elapsed:.1f} s)")
    return EXIT_OK if passed == len(checks) else EXIT_VALIDATION


def cmd_basis_dump(args) -> int:
    values = load_config(args.config)
    spec = build_spec(values)
    if args.n_max < 0:
        raise ConfigurationError(f"--n must be nonnegative, got {args.n_max}")
    chosen = _chosen(_PREPARE_KEYS, args, values)
    degree = chosen.get("degree", DEFAULT_DEGREE)
    if 0 <= degree < args.n_max:     # prepare refuses a negative degree
        raise ConfigurationError(f"--n {args.n_max} exceeds basis degree {degree}")
    # the counts are checked as the solve would, though no solver is built
    for name, count in _chosen(_SOLVER_KEYS, args, values).items():
        require_count(name, count, 1)
    table = prepare(spec, **chosen)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    phi = table.values[:args.n_max + 1, 0].T
    indices = range(args.n_max + 1)
    # phi_n of the shifted potential q + c (the paper's phi_n when q >= 0);
    # the im_phi columns are all zero and kept for the file format
    _write_csv(out_dir / "phi.csv",
               ["x"] + [f"re_phi_{n}" for n in indices] + [f"im_phi_{n}" for n in indices],
               np.column_stack([table.mesh.nodes, phi, np.zeros_like(phi)]))
    print(f"wrote {out_dir / 'phi.csv'}")
    return EXIT_OK


def _add_common(parser, search: bool):
    """Flags of every command, plus --K for those that search a boundary."""
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--N", type=int, default=None, help="basis degree override")
    if search:
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
    p_solve.add_argument("--verbose", action="store_true",
                         help="stream the search trace as CSV")
    _add_common(p_solve, search=True)
    p_solve.set_defaults(func=cmd_solve)

    p_val = sub.add_parser("validate-example",
                           help="solve the exact reference problem and verify it")
    _add_common(p_val, search=True)
    p_val.set_defaults(func=cmd_validate_example, seed_boundary=None,
                       verbose=False)    # read by _search, set by no flag here

    p_dump = sub.add_parser("basis-dump", help="write basis functions as CSV")
    p_dump.add_argument("config")
    p_dump.add_argument("--n", dest="n_max", type=int, required=True,
                        help="highest basis index to dump")
    _add_common(p_dump, search=False)
    p_dump.set_defaults(func=cmd_basis_dump)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
