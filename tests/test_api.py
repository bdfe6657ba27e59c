import docmix


def test_every_exported_name_resolves():
    assert len(set(docmix.__all__)) == len(docmix.__all__)
    assert [name for name in docmix.__all__ if not hasattr(docmix, name)] == []
    namespace = {}
    exec("from docmix import *", namespace)
    assert set(docmix.__all__) <= set(namespace)
