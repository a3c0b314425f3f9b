import spgrid


def test_every_exported_name_resolves_once():
    assert len(spgrid.__all__) == len(set(spgrid.__all__))
    missing = [name for name in spgrid.__all__ if not hasattr(spgrid, name)]
    assert missing == []
