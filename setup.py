"""Legacy setuptools shim.

Allows ``pip install -e . --no-build-isolation --no-use-pep517`` to work on
offline machines that have setuptools but not the ``wheel`` package (PEP 660
editable installs need wheel; the legacy ``setup.py develop`` path does not).
All project metadata lives in ``pyproject.toml``.
"""

from setuptools import setup

setup()
