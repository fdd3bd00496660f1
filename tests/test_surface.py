"""The package's export list matches what it binds, and its version has
one source."""

import inspect
from pathlib import Path

import pytest
from setuptools.config.pyprojecttoml import read_configuration

import sympspec


def test_all_lists_exactly_the_public_names():
    bound = {
        name for name, value in vars(sympspec).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(sympspec.__all__) == len(set(sympspec.__all__))
    assert set(sympspec.__all__) == bound | {"__version__"}
    for name in sympspec.__all__:
        assert getattr(sympspec, name) is not None


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_pyproject_reads_its_version_from_the_package():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = read_configuration(pyproject)["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == sympspec.__version__
