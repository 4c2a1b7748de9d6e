"""The mutation probe, opt-in: ``python -m pytest -m mutants``.

The default run deselects the ``mutants`` marker (``pyproject.toml``), since
the probe starts one pytest process per mutant.
"""

import pytest

import mutation_probe


@pytest.mark.mutants
def test_every_mutant_is_killed_by_its_semantic_tests():
    assert mutation_probe.survivors() == []
