"""The session's warning filters (``pyproject.toml``): a DeprecationWarning
or RuntimeWarning is an error, except the one that hypothesis's failure
report raises while importing a third-party module."""

import warnings

import pytest


@pytest.mark.parametrize("category", [DeprecationWarning, RuntimeWarning])
def test_a_package_warning_fails(category):
    with pytest.raises(category, match="old call"):
        warnings.warn_explicit("old call", category, "decoder.py", 1, module="promptner.decoder")


def test_the_third_party_deprecation_is_ignored():
    with warnings.catch_warnings(record=True) as caught:
        warnings.warn_explicit("mypy_extensions.TypedDict is deprecated, and will be removed in "
                               "a future version.", DeprecationWarning, "mypy_extensions.py", 61,
                               module="mypy_extensions")
    assert caught == []
