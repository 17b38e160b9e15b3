"""The package's public names: each module lists its own, and ``subens``
republishes them."""

import subens
from subens import operators, scenario, states, subensemble

MODULES = (operators, scenario, states, subensemble)


def test_each_public_name_is_listed_once_by_its_module():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed)) == 36
    assert subens.__all__ == sorted(listed)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(subens, name) is getattr(module, name)
