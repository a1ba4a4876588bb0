"""Random observation lines either load or fail with a ``path:line`` error.

Lines are drawn as JSON documents, near-valid observations with random
fields, and raw text. ``load_observations`` must never raise anything but
a ValueError whose message starts with the file path and the line number.
"""

import json
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from agglearn.data import load_observations
from agglearn.tasks import TASKS

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)
NUMBERS = st.one_of(st.floats(-1e6, 1e6), st.integers(-10, 10))
RARELY = st.sampled_from([False] * 4 + [True])
ODD_NUMBERS = st.sampled_from([10**400, float("nan"), float("inf"), True, None, "1"])


@st.composite
def observation_lines(draw):
    """Mostly well-formed lines; at times a ragged, odd or arbitrary field,
    a label that does not fit, or a missing key."""
    kind = draw(st.one_of(st.sampled_from(sorted(TASKS)), JSON))
    m, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    xs = [draw(st.lists(NUMBERS, min_size=d, max_size=d)) for _ in range(m)]
    if draw(RARELY):
        xs[-1][-1] = draw(ODD_NUMBERS)
    if draw(RARELY):
        xs = draw(st.sampled_from([xs[:1] + [xs[0][:-1]], draw(JSON)]))
    if isinstance(kind, str) and kind in TASKS and TASKS[kind].counts:
        cuts = sorted(draw(st.lists(st.integers(0, m), min_size=1, max_size=3)))
        z = [b - a for a, b in zip([0, *cuts], [*cuts, m])]
    else:
        z = draw(st.integers(0, 1))
    if draw(RARELY):
        z = draw(st.one_of(st.integers(-2, 3), st.lists(st.integers(-1, 4), max_size=4), JSON))
    doc = {"xs": xs, "z": z, "task": kind}
    if draw(RARELY):
        del doc[draw(st.sampled_from(sorted(doc)))]
    return json.dumps(doc)


LINES = st.one_of(
    observation_lines(),
    observation_lines(),
    observation_lines(),
    JSON.map(json.dumps),
    st.text(max_size=30),
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
# a feature too large for float64 once raised OverflowError without the path,
# and nesting deeper than the interpreter's recursion limit RecursionError
@example(lines=[json.dumps({"xs": [[10**400, 0.5]], "z": 1, "task": "pairwise"})])
@example(lines=['{"xs": ' + "[" * 100_000 + "]" * 100_000 + ', "z": 1, "task": "pairwise"}'])
@given(lines=st.lists(LINES, min_size=1, max_size=3))
def test_lines_load_or_fail_naming_path_and_line(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("fuzz") / "obs.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        observations = load_observations(path)
    except ValueError as exc:
        message = str(exc)
        if message == f"no observations in {path}":
            assert all(not line.strip() for line in lines)
        else:
            assert re.match(re.escape(f"{path}:") + r"\d+: ", message), message
    else:
        assert 1 <= len(observations) <= len(lines)
