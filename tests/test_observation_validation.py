"""Bad observation files fail at load time with a usage error naming path:line."""

import pytest

from agglearn.cli import main

PAIR = '{"xs": [[0.1, 0.2], [0.3, 0.4]], "z": 1, "task": "pairwise"}'
LLP = '{"xs": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], "z": [2, 1], "task": "llp"}'

# case -> (a good line, the bad line written third)
BAD_LINES = {
    "malformed_json": (PAIR, '{"xs": [[0.1, 0.2], [0.3, 0.4]], "z": 1'),
    "missing_z": (PAIR, '{"xs": [[0.1, 0.2], [0.3, 0.4]], "task": "pairwise"}'),
    "missing_xs": (PAIR, '{"z": 1, "task": "pairwise"}'),
    "missing_task": (PAIR, '{"xs": [[0.1, 0.2], [0.3, 0.4]], "z": 1}'),
    "binary_z_out_of_range": (PAIR, '{"xs": [[0.1, 0.2], [0.3, 0.4]], "z": 7, "task": "pairwise"}'),
    "nan_feature": (PAIR, '{"xs": [[NaN, 0.2], [0.3, 0.4]], "z": 1, "task": "pairwise"}'),
    "ragged_features": (PAIR, '{"xs": [[0.1, 0.2], [0.3]], "z": 1, "task": "pairwise"}'),
    "mixed_feature_widths": (PAIR, '{"xs": [[0.1, 0.2, 0.5], [0.3, 0.4, 0.6]], "z": 1, "task": "pairwise"}'),
    "negative_count": (LLP, '{"xs": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], "z": [4, -1], "task": "llp"}'),
    "counts_off_group_size": (LLP, '{"xs": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], "z": [1, 1], "task": "llp"}'),
    "pairwise_group_of_three": (PAIR, '{"xs": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], "z": 1, "task": "pairwise"}'),
    "bag_of_one": ('{"xs": [[0.1, 0.2], [0.3, 0.4]], "z": 1, "task": "mil"}', '{"xs": [[0.1, 0.2]], "z": 1, "task": "mil"}'),
}


@pytest.mark.parametrize("case", sorted(BAD_LINES))
def test_bad_line_is_a_usage_error_naming_the_line(tmp_path, capsys, case):
    good, bad = BAD_LINES[case]
    path = tmp_path / "obs.jsonl"
    path.write_text("\n".join([good, good, bad, good]) + "\n")
    code = main(["train", "--obs", str(path), "--k", "2", "--epochs", "1", "--out-dir", str(tmp_path)])
    assert code == 1
    assert f"{path}:3:" in capsys.readouterr().err
