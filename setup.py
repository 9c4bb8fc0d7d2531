"""Build script: compiles the optional permutation kernel extension.

The package is pure Python; the Cython extension only accelerates the
hot closure loop.  If the toolchain is missing the build
falls back to the pure kernels silently.
"""
import os

from setuptools import setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # toolchain missing: pure fallback is fine
            print(f"warning: skipping speed extension build ({exc})")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: skipping {ext.name} ({exc})")


ext_modules = []
if not os.environ.get("TAMECOUNT_NO_EXT"):
    try:
        from Cython.Build import cythonize

        ext_modules = cythonize(
            ["src/tamecount/_kernels/_speed.pyx"],
            language_level=3,
        )
    except ImportError:
        pass

setup(ext_modules=ext_modules, cmdclass={"build_ext": OptionalBuildExt})
