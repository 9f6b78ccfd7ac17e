import vtmigsim


def test_every_public_name_resolves():
    assert [name for name in vtmigsim.__all__ if not hasattr(vtmigsim, name)] == []
