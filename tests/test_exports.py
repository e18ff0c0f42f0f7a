"""Every name a package exports resolves, so no export outlives its code."""

import pytest

import teeguard
import teeguard.sense


@pytest.mark.parametrize("package", [teeguard, teeguard.sense], ids=lambda p: p.__name__)
def test_all_names_resolve(package):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
