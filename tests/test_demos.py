import re
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
    assert "tensor shape (1, 1, 10, 10), dtype int8" in out
    assert "equals the code grid: True" in out


def test_centralized_training_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "04_centralized_training.py"), run_name="__main__")
    out = capsys.readouterr().out
    sweep = out.split("K | top-K accuracy | throughput ratio\n", 1)[1].split("\n\n", 1)[0]
    rows = [[float(x) for x in line.split("|")] for line in sweep.splitlines()]
    assert [int(k) for k, _, _ in rows] == list(range(1, 11))  # the sweep reaches K=10
    for col in (1, 2):
        curve = [row[col] for row in rows]
        assert curve == sorted(curve) and 0 <= curve[0] and curve[-1] <= 1
    assert rows[-1][1] > 10 / 64  # better than 10 random guesses among 64 pairs


def test_federated_rounds_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "05_federated_rounds.py"), run_name="__main__")
    out = capsys.readouterr().out
    n = int(re.search(r"(\d+) trainable parameters", out)[1])
    vehicles = int(re.search(r"^(\d+) vehicles", out, re.M)[1])
    rounds = [[int(x) for x in (row[0], row[4], row[5])]
              for row in (line.split("|") for line in out.splitlines())
              if len(row) == 6 and row[0].strip().isdigit()]
    assert [r for r, _, _ in rounds] == list(range(1, len(rounds) + 1))
    for r, o_dl, o_ul in rounds:
        assert (o_dl, o_ul) == (r * n, vehicles * r * n)
    assert f"={len(rounds) * n} down and" in out
    assert f"={vehicles * len(rounds) * n} up." in out


def test_complexity_accounting_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "06_complexity_accounting.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "parameters:     7,738   (reference compact design: 7,462)" in out
    assert "input  20 x 200:  7,738 parameters, 1,430,302 flops" in out
