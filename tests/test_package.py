import types

import permartingale


def test_all_exports_resolve_and_are_not_modules():
    assert len(permartingale.__all__) == len(set(permartingale.__all__))
    for name in permartingale.__all__:
        value = getattr(permartingale, name)
        assert not isinstance(value, types.ModuleType), name
    assert "verify" in permartingale.__all__
    assert "inequalities" not in permartingale.__all__
