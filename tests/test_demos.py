import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_beam_metrics_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "03_beam_metrics.py"), run_name="__main__")
    out = capsys.readouterr().out
    rows = [line.split("|") for line in out.splitlines() if line.lstrip().startswith(("1 |", "64 |"))]
    assert [float(x) for x in rows[0][1:3]] == [1.0, 1.0]  # oracle scorer at K=1
    assert [float(x) for x in rows[-1][1:]] == [1.0, 1.0, 1.0, 1.0]  # every scorer at K=C
