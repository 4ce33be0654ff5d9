import quip


def test_all_names_resolve_once_and_star_import():
    names = quip.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(quip, name) is not None, name
    namespace: dict = {}
    exec("from quip import *", namespace)
    assert set(names) <= set(namespace)
    for name in names:
        assert namespace[name] is getattr(quip, name)
