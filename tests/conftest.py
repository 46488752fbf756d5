"""Shared fixtures.  The first-principles oracles live in ``first_principles``."""

from __future__ import annotations

import sys

import pytest

from dicbound.channels import builtin_channel


@pytest.fixture(scope="session")
def xor2():
    return builtin_channel("xor2")


@pytest.fixture(scope="session")
def shift2_221():
    return builtin_channel("shift2", [2, 2, 1])


@pytest.fixture(scope="session")
def shift2_331():
    return builtin_channel("shift2", [3, 3, 1])


@pytest.fixture(scope="session")
def shift2_332():
    return builtin_channel("shift2", [3, 3, 2])


@pytest.fixture(scope="session")
def concat3():
    return builtin_channel("concat3")


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` replaces that function on every dicbound
    module that binds it, so calls through ``from .x import f`` names count
    too, and returns the list of argument tuples its calls append to."""

    def install(module, name):
        real = getattr(module, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "dicbound" and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
        return calls

    return install
