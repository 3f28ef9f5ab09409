"""The package's export list names exactly its public objects."""

import types

import treesynth


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, obj in vars(treesynth).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert len(set(treesynth.__all__)) == len(treesynth.__all__)
    assert set(treesynth.__all__) == public
    namespace: dict = {}
    exec("from treesynth import *", namespace)
    assert set(treesynth.__all__) <= set(namespace)
