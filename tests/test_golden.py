"""The outputs of every shipped config against the bytes recorded in
tests/golden/ (re-record with tests/record_golden.py)."""

import itertools

from record_golden import (CONFIGS, GOLDEN, SEEDS, read_texts, run_id,
                           run_outputs)


def _first_difference(got, want):
    """(line number, got line, recorded line) of the first line that
    differs, a missing line as None; None when the texts agree."""
    lines = itertools.zip_longest(got.splitlines(keepends=True),
                                  want.splitlines(keepends=True))
    return next(((k, a, b) for k, (a, b) in enumerate(lines, start=1)
                 if a != b), None)


def test_config_outputs_match_the_record(tmp_path):
    runs = [(config, seed) for config in CONFIGS for seed in SEEDS]
    assert len(runs) == 28
    recorded = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
    assert recorded == sorted(run_id(c, s) for c, s in runs)
    problems = []
    for config, seed in runs:
        name = run_id(config, seed)
        workdir = tmp_path / name
        workdir.mkdir()
        got = run_outputs(config, seed, workdir)
        want = read_texts(GOLDEN / name)
        for file in sorted(set(got) | set(want)):
            if file not in got or file not in want:
                problems.append("%s/%s: %s" % (name, file, "not written"
                                               if file in want
                                               else "not recorded"))
            elif diff := _first_difference(got[file], want[file]):
                problems.append("%s/%s line %d: got %r, recorded %r"
                                % ((name, file) + diff))
    assert not problems, "\n".join(problems)
