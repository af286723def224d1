"""The benchmark's tracer wraps public names of the package by rebinding
them; deleting or renaming one of those names breaks `--trace 1`.  This test
fails in that case."""

import importlib.util
from pathlib import Path

import quadrics.cli
from quadrics.cli import main

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_restores_it(capsys):
    spans = _spans_module()
    tracer = spans.Tracer()
    original_main = quadrics.cli.main
    try:
        tracer.install()
        assert quadrics.cli.main is not original_main
        assert quadrics.cli.main(["count", "--n", "1", "--field", "2"]) == 0
        # count reads raw tuples; transport --all enumerates the 6 points
        assert quadrics.cli.main(["transport", "--n", "1", "--field", "2", "--all"]) == 0
        # --trace 1 must still see the group checks' entry points
        assert quadrics.cli.main(["verify", "homogeneous", "--n", "1", "--field", "3"]) == 0
        assert quadrics.cli.main(["verify", "similitude", "--n", "1", "--field", "3"]) == 0
    finally:
        tracer.uninstall()
    assert quadrics.cli.main is original_main is main
    assert {span[0] for span in tracer.spans} >= {"cli.main", "quadric.count_report"}
    entries = [s for s in tracer.spans if s[0] in spans.ENTRY_POINTS]
    assert list(dict.fromkeys(s[0] for s in entries)) == [
        "quadric.count_report", "transport.quadric_transport",
        "action.verify_homogeneous", "action.verify_similitude_orbit"]
    assert all(tracer.spans[s[3]][0] == "cli.main" and s[2] >= s[1] for s in entries)
    assert spans.layer_metrics(tracer.spans)["quadric.points"] == 6
    capsys.readouterr()
