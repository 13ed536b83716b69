import fracsaddle


def test_all_exports_resolve():
    missing = [name for name in fracsaddle.__all__ if not hasattr(fracsaddle, name)]
    assert missing == []
