"""Start-up cost: importing qmlab loads no module that only some commands use."""

import os
import subprocess
import sys

from qmlab.analysis import parallel_map

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
LAZY = ("multiprocessing", "dataclasses", "inspect")


def test_import_loads_no_lazy_module():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qmlab.cli, qmlab.analysis\n"
         f"print(sorted(m for m in {LAZY!r} if m in sys.modules))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True)
    assert proc.stdout == "[]\n", proc.stdout + proc.stderr


def test_parallel_map_imports_its_pool_when_it_starts_one():
    assert parallel_map(abs, [-3, 1, -4, 1, -5], workers=2) == [3, 1, 4, 1, 5]
