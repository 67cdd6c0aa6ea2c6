import os

from setuptools import Extension, setup

# The compiled edit-distance kernel is optional: finhyp.distance falls back to
# the pure-Python twin when the extension is absent. With Cython the kernel is
# built from the .pyx; without it, from the Cython-generated .c shipped next to
# it. Set FINHYP_PURE_PYTHON=1 at build time to skip compilation entirely.
ext_modules = []
if os.environ.get("FINHYP_PURE_PYTHON") != "1":
    try:
        from Cython.Build import cythonize
    except ImportError:
        ext_modules = [
            Extension("finhyp._editdist", ["src/finhyp/_editdist.c"], optional=True)
        ]
    else:
        ext_modules = cythonize(
            [
                Extension(
                    "finhyp._editdist",
                    ["src/finhyp/_editdist.pyx"],
                    optional=True,
                )
            ],
            language_level=3,
        )

setup(ext_modules=ext_modules)
