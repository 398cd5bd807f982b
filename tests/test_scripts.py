import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestEpsilonLadder:
    def test_prints_one_finite_row_per_alpha_and_epsilon(self, monkeypatch, capsys):
        ladder = load_script("epsilon_ladder")
        monkeypatch.setattr(sys, "argv", [
            "epsilon_ladder.py", "--n", "201", "--extent", "10",
            "--alpha", "1.0", "--epsilon", "0.05", "--epsilon", "0.1"])
        ladder.main()
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split() for line in lines[1:] if line.strip()]
        # one epsilon = 0 anchor row per angle, with no quadrature values
        anchors = [r for r in rows if r[3] == "-"]
        assert len(anchors) == 1 and float(anchors[0][1]) == 0.0 and anchors[0][4] == "-"
        ladder_rows = np.array([[float(v) for v in r] for r in rows if r[3] != "-"])
        assert ladder_rows.shape == (2, 5)
        assert ladder_rows[:, :2].tolist() == [[1.0, 0.1], [1.0, 0.05]]
        assert np.all(np.isfinite(ladder_rows))
        # the closed form is exact in epsilon, so its residual falls with epsilon
        assert ladder_rows[1, 2] < ladder_rows[0, 2]

    @pytest.mark.parametrize("eps", ["0", "nan", "inf"])
    def test_rejects_a_zero_epsilon(self, monkeypatch, capsys, eps):
        # the quadrature needs a damped chirplet; epsilon = 0 is the anchor row,
        # and nan passed an `epsilon <= 0` guard to a traceback
        ladder = load_script("epsilon_ladder")
        monkeypatch.setattr(sys, "argv", ["epsilon_ladder.py", "--epsilon", "0.1", "--epsilon", eps])
        with pytest.raises(SystemExit) as exc:
            ladder.main()
        assert exc.value.code == 2
        assert "--epsilon values must be > 0" in capsys.readouterr().err

    def test_a_library_value_error_is_a_usage_error(self, monkeypatch, capsys):
        # lam^2 + 1 overflows at epsilon = 1e200; this was an OverflowError traceback
        ladder = load_script("epsilon_ladder")
        monkeypatch.setattr(sys, "argv", [
            "epsilon_ladder.py", "--n", "101", "--extent", "5", "--epsilon", "1e200"])
        with pytest.raises(SystemExit) as exc:
            ladder.main()
        assert exc.value.code == 2
        assert "lam^2 + 1 leaves the float range" in capsys.readouterr().err
