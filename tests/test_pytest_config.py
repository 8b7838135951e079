"""The test suite's own settings: strict mode, so a misspelt marker fails collection."""


def test_strict_markers_is_on(pytestconfig):
    # ``strict`` turns on strict_config, strict_markers, strict_xfail and
    # strict_parametrization_ids, and with no strict_markers key the marker
    # check reads it; a --strict-markers flag in addopts leaves the ini
    # values unset, so a misspelt mark would only warn
    assert pytestconfig.getini("strict") is True
