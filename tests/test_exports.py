import stokesmg


def test_every_exported_name_resolves():
    missing = [name for name in stokesmg.__all__ if not hasattr(stokesmg, name)]
    assert missing == []
