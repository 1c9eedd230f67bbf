"""Write the output files and streams of the benchmark's commands, so that
two source trees can be compared byte for byte with ``diff -r``.

usage: python3 tools/outputs.py SRC OUT

Runs the thpsolve package under SRC (the directory that holds ``thpsolve``)
with BLAS pinned to one thread, one fresh interpreter per command, and
writes into OUT one directory per run with the command's output files and
its ``stdout``, ``stderr`` and ``exit`` code:

- ``reference``: ``validate-example --N 12 --K 6 --mesh 2001``;
- ``manufactured-<slope>``: ``solve --verbose`` on the docs/config.md
  example at each of the benchmark's 11 initial-boundary slopes;
- ``gamma``: ``solve --verbose`` on that example at its documented slope,
  with all four condition weights set to values other than the defaults
  (the data of the same exact solution u = 1 + x^2 + 2t);
- ``basis``: ``basis-dump --n 2`` on the benchmark's basis config.

The configs come from perfbench/workloads.py, which this reads and does not
change; they are written to OUT/inputs.  The path OUT is written ``<out>``
in the streams, and validate-example's run time ``<time> s``, so that two
runs of the same program write the same bytes.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True     # leave perfbench/ as it is

import workloads  # noqa: E402  (from perfbench/, after the path is set)

# the docs example with every weight of the initial and lateral conditions
# given: 2 u(x, 0) + u_x(x, 0) and u(0, t) of u = 1 + x^2 + 2t
GAMMA_LINES = {
    "g1": "g1 = 2*(1 + x^2) + 2*x\ngamma11 = 2\ngamma12 = 1\n",
    "g2": "g2 = 1 + 2*t\ngamma21 = 1\ngamma22 = 0\n",
}


def _gamma_config() -> str:
    """The docs example at seed 0 with its g1 and g2 lines replaced by
    GAMMA_LINES."""
    lines = workloads.manufactured_config(0).splitlines(keepends=True)
    return "".join(GAMMA_LINES.get(line.split("=", 1)[0].strip(), line)
                   for line in lines)


def _runs(inputs: Path) -> dict:
    """Run name -> thpsolve arguments, the output directory left out."""
    inputs.mkdir(parents=True, exist_ok=True)
    runs = {"reference": ["validate-example", "--N", "12", "--K", "6",
                          "--mesh", "2001"]}
    for seed in range(len(workloads.SLOPES)):
        slope = workloads.manufactured_slope(seed)
        config = inputs / f"manufactured-{slope:g}.cfg"
        config.write_text(workloads.manufactured_config(seed))
        runs[f"manufactured-{slope:g}"] = ["solve", str(config), "--verbose"]
    config = inputs / "gamma.cfg"
    config.write_text(_gamma_config())
    runs["gamma"] = ["solve", str(config), "--verbose"]
    config = inputs / "basis.cfg"
    config.write_text(workloads.BASIS_CONFIG)
    runs["basis"] = ["basis-dump", str(config), "--n",
                     str(workloads.BASIS_DUMPED)]
    return runs


def _mask(text: str, out: Path) -> str:
    text = text.replace(str(out), "<out>")
    return re.sub(r"\b\d+\.\d s\b", "<time> s", text)


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n", 2)[1], file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "thpsolve" / "cli.py").is_file():
        print(f"outputs: no thpsolve package under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for name, args in _runs(out / "inputs").items():
        run_dir = out / name
        run = subprocess.run(
            [sys.executable, "-m", "thpsolve.cli", *args, "--out", str(run_dir)],
            env=env, capture_output=True, text=True)
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "stdout").write_text(_mask(run.stdout, out))
        (run_dir / "stderr").write_text(_mask(run.stderr, out))
        (run_dir / "exit").write_text(f"{run.returncode}\n")
        print(f"{name}: exit {run.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
