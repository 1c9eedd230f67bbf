"""docs/config.md states the discretization defaults; they live in the
signatures of pipeline.prepare, InnerSolver and minimize_boundary, and the
docs must not drift.  The README's Python examples must run as written."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import thpsolve
from thpsolve import InnerSolver, minimize_boundary, prepare
from thpsolve.cli import _READERS

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "docs" / "config.md"
README = ROOT / "README.md"

# config key -> default held by the library
_PREPARE = inspect.signature(prepare).parameters
_SOLVER = inspect.signature(InnerSolver).parameters
_SEARCH = inspect.signature(minimize_boundary).parameters
LIBRARY_DEFAULTS = {
    "mesh_points": _PREPARE["mesh_points"].default,
    "n": _PREPARE["degree"].default,
    "n_x": _SOLVER["n_x"].default,
    "n_t": _SOLVER["n_t"].default,
    "k": _SEARCH["K"].default,
    "max_iterations": _SEARCH["max_iterations"].default,
}


def _numbers_table() -> dict:
    """Key -> default column of the docs' "Numbers" table, one entry per
    key of a row like ``| `n_x`, `n_t` | int | ... | 100 |``."""
    text = DOCS.read_text().split("Numbers:", 1)[1].split("\n\n", 2)[1]
    table = {}
    for row in text.splitlines()[2:]:
        cells = [c.strip() for c in row.strip().strip("|").split("|")]
        for key in re.findall(r"`(\w+)`", cells[0]):
            table[key] = cells[-1]
    return table


@pytest.mark.parametrize("key", sorted(LIBRARY_DEFAULTS))
def test_docs_state_library_default(key):
    assert _numbers_table()[key] == str(LIBRARY_DEFAULTS[key])
    # the example's discretization block says "defaults shown"
    example = DOCS.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    value = re.search(rf"^{key}\s*=\s*(\d+)", example, re.M).group(1)
    assert int(value) == LIBRARY_DEFAULTS[key]


def test_docs_list_every_config_key():
    # the keys of the three key tables and the g3_file bullet are the keys
    # the config reader accepts
    text = DOCS.read_text()
    keys = set(_numbers_table()) | set(re.findall(r"^- `(\w+) = ", text, re.M))
    for heading in ("Expressions in `x`", "Expressions in `t`"):
        rows = text.split(heading, 1)[1].split("\n\n", 2)[1]
        for row in rows.splitlines()[2:]:
            keys |= set(re.findall(r"`(\w+)`", row.split("|")[1]))
    assert keys == set(_READERS)


def test_readme_python_examples_run(tmp_path):
    # each block in a fresh interpreter that turns every warning into an error
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(Path(thpsolve.__file__).parents[1]))
    for code in blocks:
        run = subprocess.run([sys.executable, "-W", "error", "-c", code],
                             cwd=tmp_path, env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr


def test_readme_layout_lists_every_module():
    # the Layout block names each module of src/thpsolve but the package
    # marker, once, and nothing else
    block = re.search(r"^## Layout\n\n```\n(.*?)^```", README.read_text(),
                      re.S | re.M).group(1)
    header, *rows = block.splitlines()
    assert header == "src/thpsolve/"
    listed = sorted(row.split()[0] for row in rows)
    modules = sorted(path.name for path in (ROOT / "src" / "thpsolve").glob("*.py")
                     if path.name != "__init__.py")
    assert listed == modules
