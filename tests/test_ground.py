import pytest

from chaoscast.config import PipelineConfig
from chaoscast.errors import ConfigError, PanelFormatError
from chaoscast.ground import make_ground_panel

HEADER = "station,year,season,value\n"


@pytest.mark.parametrize("text, error, message", [
    ("", PanelFormatError, "empty file"),
    ("station,year,value\n", PanelFormatError, ":1: expected header station,year,season,value"),
    (HEADER + "st00,1950,winter\n", PanelFormatError, "line 2: expected 4 fields, got 3"),
    (HEADER + "st00,1950,monsoon,1.0\n", PanelFormatError,
     "line 2: cannot parse 'st00,1950,monsoon,1.0'"),
    (HEADER + "# no rows\n\n", PanelFormatError, "no data rows"),
    (HEADER + "xx,1950,winter,1.0\n", PanelFormatError,
     "station 'xx' has no configured site mapping"),
    (HEADER + "st00,1950,winter,1.0\nst00,1950,Winter,2.0\n", PanelFormatError,
     "line 3 duplicates (station=st00, year=1950, season=winter) from line 2"),
    (HEADER + "st00,1950,winter,1.0\n", ConfigError,
     "ground file covers 1 seasons, schedule needs 49"),
], ids=["empty", "bad-header", "field-count", "unparseable", "no-rows", "unmapped-station",
        "duplicate", "shorter-than-the-schedule"])
def test_a_ground_file_error_names_its_fault(tmp_path, text, error, message):
    path = tmp_path / "ground.csv"
    path.write_text(text)
    cfg = PipelineConfig.from_dict({"seed": 7, "ground": {"mode": "file", "path": str(path)}})
    with pytest.raises(error) as err:
        make_ground_panel(cfg, library=[])
    assert message in str(err.value)
