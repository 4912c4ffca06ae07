"""Packaging entry point.

The offline environment ships setuptools without the ``wheel`` package, so
PEP-660 editable installs (``pip install -e .``) cannot build a wheel.  This
script enables the legacy editable path::

    python setup.py develop

and declares the ``repro`` console script (equivalent to
``python -m repro``).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION = re.search(
    r'__version__\s*=\s*"([^"]+)"',
    Path(__file__).with_name("src").joinpath("repro", "version.py").read_text(),
).group(1)

setup(
    name="repro-cim-autonomy",
    version=_VERSION,
    description=(
        "Reproduction of Darabi et al., 'Navigating the Unknown: "
        "Uncertainty-Aware Compute-in-Memory Autonomy of Edge Robotics' "
        "(DATE 2024)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["repro=repro.api.cli:main"]},
)
