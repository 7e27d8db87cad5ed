"""The documented examples of the text-analysis modules run as written."""

import doctest
import importlib

import pytest

MODULES = [
    "repro.nlp.tokenize",
    "repro.nlp.naive_bayes",
    "repro.core.quality",
    "repro.core.novelty",
    "repro.core.texts",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    # ``repro.nlp.tokenize`` the package attribute is the function, so
    # the module is looked up by name.
    results = doctest.testmod(importlib.import_module(name))
    assert results.failed == 0
    assert results.attempted > 0
