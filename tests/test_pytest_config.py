"""The test suite's own settings: a misspelt marker fails collection."""


def test_strict_markers_is_on(pytestconfig):
    # pytest's marker check reads the ini value; a --strict-markers flag in
    # addopts leaves it unset, so a misspelt mark would only warn
    assert pytestconfig.getini("strict_markers") is True
