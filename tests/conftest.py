import gc
import importlib.util
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from flagless import _ed25519_pykernel as pykernel
from flagless import ed25519

REPO = Path(__file__).resolve().parents[1]
KERNELS = ["compiled", "pure"]
# modules whose tests must close every descriptor they open
FD_GUARDED = {"test_held_bytes.py", "test_ledger_file.py", "test_service.py"}


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled kernel, built from the C source in this tree by
    `setup.py build_ext` into a temporary directory (nothing is written
    under src/), whether or not an in-place build exists.

    Skips only when no C compiler is found; a source that does not compile
    fails every test that uses it.
    """
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler ({compiler}) to build the compiled kernel")
    out = tmp_path_factory.mktemp("ckernel")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", out, "--build-temp", out / "temp"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    built = list(out.glob("flagless/_ed25519_ckernel.*"))
    assert build.returncode == 0 and built, build.stdout + build.stderr
    spec = importlib.util.spec_from_file_location("flagless._ed25519_ckernel", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _kernel(request):
    if request.param == "compiled":
        return request.getfixturevalue("compiled_kernel")
    return pykernel


@pytest.fixture(params=KERNELS)
def kernel(request):
    """Group-arithmetic kernel under test (pure, and compiled from the C source)."""
    return _kernel(request)


@pytest.fixture(params=KERNELS)
def backend(request, monkeypatch):
    """Route the whole package through one specific kernel."""
    monkeypatch.setattr(ed25519, "_kernel", _kernel(request))
    return request.param


@pytest.fixture
def rng():
    return random.Random(0xF1A6)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture(autouse=True)
def no_descriptor_leak(request):
    """Fail a test of an `FD_GUARDED` module that ends with more open
    descriptors than it began with.  Does nothing where there is no
    /proc/self/fd to count."""
    if request.path.name not in FD_GUARDED or not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = _open_fds()
    yield
    if _open_fds() > before:
        gc.collect()  # a host dropped without close releases its file when collected
        after = _open_fds()
        assert after <= before, f"{after - before} file descriptor(s) left open"
