"""Every command of tools/compare_cli.py's corpus, run in this interpreter
through the tool's own runner (``entry``): each exits with the code that the
tool's code map (tools/cli_exit_codes.json) gives it, prints no traceback
and no warning other than the stability heuristic's, and prints a report
that is strict JSON.  No stdout or CSV bit is pinned here: the tool pins
those against a parent commit, and some CSV bits differ between numpy's
SIMD loop sets."""

import json
import os
import sys
import warnings

from test_point_values import compare_cli

CLI = compare_cli()


def test_every_corpus_command_exits_as_the_code_map_says(tmp_path):
    with open(CLI.EXIT_CODES, encoding="utf-8") as fp:
        pairs = json.load(fp, object_pairs_hook=list)
    codes = dict(pairs)
    corpus = CLI.commands(str(tmp_path))
    assert len(codes) == len(pairs), "a key is listed twice in the code map"
    assert sorted(codes) == sorted(corpus), (
        f"missing from the code map: {sorted(corpus.keys() - codes.keys())}; "
        f"not in the corpus: {sorted(codes.keys() - corpus.keys())}"
    )
    before = (list(sys.path), dict(os.environ), list(warnings.filters))
    bad = []
    for key, argv in corpus.items():
        got = CLI.entry(key, argv, str(tmp_path / "snapshots.csv"))
        if got["code"] != codes[key]:
            bad.append(f"{key}: exit {got['code']}, expected {codes[key]} ({got['error']})")
        if got["traceback"]:
            bad.append(f"{key}: traceback")
        if got["strict_json"] is False:
            bad.append(f"{key}: stdout is not strict JSON")
        bad += [f"{key}: warning {w}" for w in got["warnings"]]
    assert (list(sys.path), dict(os.environ), list(warnings.filters)) == before
    assert not bad, "\n".join(bad)
