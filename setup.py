"""Legacy shim so `pip install -e .` works without the `wheel` package.

The one piece of real metadata here ships the C source of the KERNELS
registry's ``native`` backend with the package: ``repro.core.native``
compiles ``_native.c`` with the system C compiler on first use (there is
no build step at install time) and the registry falls back to the
pure-python kernels on hosts without one.
"""
from setuptools import setup

setup(
    package_data={"repro.core": ["_native.c"]},
)
