"""Test set-up: import kpwave from the checkout's src/ and the benchmark's
own modules from this directory; temporary files go under .bench_out/."""

import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)


@pytest.fixture(scope="module")
def work(request):
    d = ROOT / ".bench_out" / "tests" / request.module.__name__
    d.mkdir(parents=True, exist_ok=True)
    yield d
    shutil.rmtree(d, ignore_errors=True)
