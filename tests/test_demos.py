import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_beam_metrics_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "03_beam_metrics.py"), run_name="__main__")
    out = capsys.readouterr().out
    rows = [line.split("|") for line in out.splitlines() if line.lstrip().startswith(("1 |", "64 |"))]
    assert [float(x) for x in rows[0][1:3]] == [1.0, 1.0]  # oracle scorer at K=1
    assert [float(x) for x in rows[-1][1:]] == [1.0, 1.0, 1.0, 1.0]  # every scorer at K=C


def test_synthetic_scenes_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "01_synthetic_scenes.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "labels in use:" in out
    rows = out.split("every 2nd column):\n", 1)[1].splitlines()
    assert len(rows) == 20  # one text row per grid row of the default 20 x 200 grid
    assert sum(row.count("V") for row in rows) == 1


def test_grid_preprocessing_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "02_grid_preprocessing.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "cell (9, 0) = 1 " in out
    assert "occupied cells = 1 " in out
    assert "cell holding all three = -1 " in out
    assert out.count("identical: True") == 2
    assert "rolled match: True" in out
    assert "tensor shape (1, 1, 10, 10), dtype float32" in out
    assert "equals the code grid: True" in out
