"""tools/bench_layers.py: the BENCH record's schema, at its smallest size."""

import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_writer_records_every_layer_run_and_provenance_field(tmp_path, monkeypatch, capsys):
    tool = _tool()
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() prepends --src
    assert tool.main(["--label", "t", "--out", str(tmp_path), "--sizes", "4096",
                      "--repeat", "1"]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["label"] == "t" and record["repeat"] == 1
    assert set(record["provenance"]) == {"cores", "python", "numpy", "glibc", "dgtsv",
                                         "git_sha", "git_dirty"}
    assert record["calibration_s"] and all(c > 0 for c in record["calibration_s"])
    assert record["calibration_ref_s"] > 0
    assert record["table_s"] == min(record["table_samples_s"]) > 0
    cases = record["cases"]
    assert [(c["problem"], c["family"], c["layer_sides"], c["n"]) for c in cases] == [
        ("ex1", "bakhvalov", "both", 4096), ("ex2", "vulanovic", "left", 4096)]
    for case in cases:
        assert set(case["layers_s"]) == set(tool.LAYERS)
        assert set(case["end_to_end_s"]) == set(tool.RUNS)
        for name, best in {**case["layers_s"], **case["end_to_end_s"]}.items():
            assert best == min(case["samples_s"][name]) > 0, name
        # one call each of mesh, start and interpolation; a call per sweep of the rest
        assert len(case["samples_s"]["start"]) == 1
        assert len(case["samples_s"]["solve"]) == case["iterations"] >= 1
    assert capsys.readouterr().out.count("\n") == 3
