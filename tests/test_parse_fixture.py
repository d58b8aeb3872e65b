"""Parsed tasks and parse errors stay as pinned.

`tests/parse_fixture.py` writes the fixture; a change that moves a parsed
task or an error message on purpose rewrites it and lists what moved.
"""

import json

import parse_fixture


def test_parsed_tasks_and_errors_match_the_fixture():
    want = json.loads(parse_fixture.FIXTURE.read_text())
    got = parse_fixture.all_outcomes()
    for part in ("tasks", "mutants"):
        assert list(got[part]) == list(want[part]), part
        moved = [(key, want[part][key], value) for key, value in got[part].items()
                 if value != want[part][key]]
        assert not moved, moved[:5]


def test_mutants_reach_errors_and_tasks():
    # the corpus exercises both outcomes, and errors at many positions
    outcomes = list(json.loads(parse_fixture.FIXTURE.read_text())["mutants"].values())
    errors = [text for text in outcomes if ".pddl:" in text]
    assert len(errors) >= 200 and len(set(errors)) >= 150
    assert len(outcomes) - len(errors) >= 50
