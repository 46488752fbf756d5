from collections import Counter

import dicbound


def test_every_exported_name_resolves_once():
    # a name left in __all__ after its object is gone breaks
    # `from dicbound import *`
    assert [name for name, n in Counter(dicbound.__all__).items() if n > 1] == []
    assert [name for name in dicbound.__all__ if not hasattr(dicbound, name)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from dicbound import *", namespace)
    assert set(dicbound.__all__) <= namespace.keys()
