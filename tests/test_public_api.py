"""The package's public names: every one that __all__ lists is importable,
and each is imported from its submodule only when first used, so the verbs
that need no numeric module start without numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aliquot

NUMERIC = ["numpy", "aliquot.alpha", "aliquot.beta", "aliquot.means", "aliquot.numerics",
           "aliquot.primes"]


def test_every_exported_name_resolves():
    assert len(set(aliquot.__all__)) == len(aliquot.__all__)
    missing = [name for name in aliquot.__all__ if not hasattr(aliquot, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from aliquot import *", namespace)
    assert set(aliquot.__all__) <= set(namespace)


def test_dir_lists_every_exported_name():
    assert set(aliquot.__all__) <= set(dir(aliquot))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        aliquot.no_such_name


def numeric_modules_after(code: str, cwd: Path) -> list[str]:
    """The NUMERIC modules that a fresh interpreter holds after running code."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {NUMERIC!r} if m in sys.modules]))"
    src = str(Path(aliquot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("code", [
    "import aliquot",
    "from aliquot import TrajectoryRecord, factorize, ParameterError",
    "import aliquot.cli; aliquot.cli.build_parser()",
    "from aliquot import cli; assert cli.run(['trace', '12', '--out', 'out']) == 0",
    "from aliquot import cli; assert cli.run(['--version']) == 0",
    "from aliquot import cli; assert cli.run(['trace', '--help']) == 0",
    "from aliquot import cli; assert cli.run(['trace', '1.5']) == 1",
], ids=["package", "arith-names", "parser", "trace", "version", "help", "usage-error"])
def test_start_without_numpy(tmp_path, code):
    assert numeric_modules_after(code, tmp_path) == []


@pytest.mark.parametrize("argv, absent", [
    (["lambda", "--N", "1e4", "--J", "2", "--Nj", "1e4"], ["aliquot.means"]),
    (["means", "--N", "1e3"], ["aliquot.alpha", "aliquot.beta"]),
], ids=["lambda", "means"])
def test_numeric_verb_loads_numpy(tmp_path, argv, absent):
    code = f"from aliquot import cli; assert cli.run({argv + ['--out', 'out']!r}) == 0"
    assert numeric_modules_after(code, tmp_path) == [m for m in NUMERIC if m not in absent]
