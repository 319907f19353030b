"""Setup shim for environments without the ``wheel`` package.

The project metadata lives in pyproject.toml.  Building it through
pip (``pip install -e .``) needs ``wheel`` or setuptools >= 70; where
neither is available offline, ``python setup.py develop`` installs the
same editable package through this file.
"""

from setuptools import setup

setup()
