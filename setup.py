"""Legacy setup shim so editable installs work without the `wheel` package."""
from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(
        where="src", exclude=["*.egg-info", "*.egg-info.*"]
    ),
    install_requires=["numpy>=1.21"],
    python_requires=">=3.10",
)
