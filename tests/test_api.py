import os
import pathlib
import subprocess
import sys

import docmix

SRC = pathlib.Path(docmix.__file__).resolve().parent.parent
# The OpenBLAS setting and, on Linux, the OS thread count a fresh
# interpreter sees after ``import docmix``.
PROBE = """import os, sys
import docmix
print(os.environ.get("OPENBLAS_NUM_THREADS"))
print(len(os.listdir("/proc/self/task")) if sys.platform == "linux" else 1)
"""


def probe(**preset) -> list[str]:
    """PROBE's output in a fresh interpreter whose environment has no
    OPENBLAS_NUM_THREADS but for ``preset``: this process set the
    variable when it imported docmix."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", PROBE], env={**env, **preset},
                          capture_output=True, text=True, check=True).stdout.split()


def test_every_exported_name_resolves():
    assert len(set(docmix.__all__)) == len(docmix.__all__)
    assert [name for name in docmix.__all__ if not hasattr(docmix, name)] == []
    namespace = {}
    exec("from docmix import *", namespace)
    assert set(docmix.__all__) <= set(namespace)


def test_import_pins_openblas_to_one_thread():
    assert probe() == ["1", "1"]  # no BLAS thread beside the main one
    assert probe(OPENBLAS_NUM_THREADS="2")[0] == "2"  # the caller's own setting wins
