"""The rule by which ``tools/bench_pairs.py`` shows a gain."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# ten pairs in which the change is faster in every pair, by far more than
# the spread of the parent's runs
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
FASTER = [v - 10 for v in PARENT]


def sides(parent, change):
    return {"parent": parent, "change": change}


class TestGainShown:
    def test_a_clear_gain_with_no_as_measured_figures_is_shown(self):
        assert bench_pairs.gain_shown(sides(PARENT, FASTER), None, lower_is_better=True)

    def test_a_clear_gain_the_as_measured_figures_share_is_shown(self):
        measured = sides([v * 1.5 for v in PARENT], [v * 1.5 for v in FASTER])
        assert bench_pairs.gain_shown(sides(PARENT, FASTER), measured, lower_is_better=True)

    @pytest.mark.parametrize("moved", ["slower", "level"])
    def test_no_gain_is_shown_where_the_as_measured_medians_do_not_move_with_it(self, moved):
        # the calibration moved the reading: the uncalibrated runs of the
        # change are slower than the parent's, or level with them
        raw = [v * 1.5 for v in PARENT]
        change = [v + 20 for v in raw] if moved == "slower" else list(raw)
        measured = sides(raw, change)
        assert not bench_pairs.gain_shown(sides(PARENT, FASTER), measured, lower_is_better=True)
        line = bench_pairs.summary("lams_step_us", sides(PARENT, FASTER), measured, True)
        assert "change better in 10/10" in line and "gain shown" not in line
        assert "gain shown" in bench_pairs.summary("lams_step_us", sides(PARENT, FASTER), None, True)

    def test_the_direction_follows_the_metric(self):
        # higher is better for a rate: lower figures are no gain, higher are
        assert not bench_pairs.gain_shown(sides(PARENT, FASTER), None, lower_is_better=False)
        higher = sides(FASTER, PARENT)
        assert bench_pairs.gain_shown(higher, higher, lower_is_better=False)

    def test_too_few_wins_or_too_small_a_gap_shows_no_gain(self):
        eight_wins = FASTER[:8] + [v + 20 for v in PARENT[8:]]
        assert not bench_pairs.gain_shown(sides(PARENT, eight_wins), None, lower_is_better=True)
        within_spread = [v - 0.1 for v in PARENT]
        assert not bench_pairs.gain_shown(sides(PARENT, within_spread), None, lower_is_better=True)
