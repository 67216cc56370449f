"""Packaging for the COPSE reproduction (see DESIGN.md for the layout)."""

import os
import re

from setuptools import find_packages, setup

_HERE = os.path.abspath(os.path.dirname(__file__))


def _read_version() -> str:
    """Single-source the version from ``repro.__version__``."""
    init_path = os.path.join(_HERE, "src", "repro", "__init__.py")
    with open(init_path) as handle:
        match = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.M)
    if not match:
        raise RuntimeError("cannot find __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="copse-repro",
    version=_read_version(),
    description=(
        "Reproduction of COPSE (PLDI 2021): vectorized secure evaluation "
        "of decision forests, with a batched secure-inference service"
    ),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    extras_require={
        # pytest-timeout backs pytest.ini's ``timeout = 300``; without
        # it conftest.py falls back to a SIGALRM enforcer (and asserts
        # at configure time that one of the two is actually active).
        "test": ["pytest", "pytest-timeout", "hypothesis"],
    },
    entry_points={
        "console_scripts": ["repro=repro.cli:main"],
    },
)
