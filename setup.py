"""Build script for the optional compiled group-arithmetic kernel.

The package is fully functional without the extension (a pure-Python
kernel is selected at import time), so a failed compile downgrades to a
warning instead of aborting the install.  The kernel is one hand-written
C file, src/flagless/_ed25519_ckernel.c, written against the CPython C
API; it needs a C compiler with `unsigned __int128` (GCC or Clang on a
64-bit target) and nothing else.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, broken toolchain, ...
            print(
                "WARNING: could not build the compiled ed25519 kernel "
                f"({exc!r}); falling back to the pure-Python kernel",
                file=sys.stderr,
            )


setup(
    ext_modules=[
        Extension(
            "flagless._ed25519_ckernel",
            ["src/flagless/_ed25519_ckernel.c"],
            extra_compile_args=["-O3"],
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
