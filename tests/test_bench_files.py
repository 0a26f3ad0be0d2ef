"""The committed BENCH_*.json files, written by tools/bench_ab.py, against
BENCHMARK.json; and that tool's summary on made-up rows. Nothing here
reads or asserts a timing."""

import argparse
import importlib.util
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_tool():
    path = ROOT / "tools" / "bench_ab.py"
    spec = importlib.util.spec_from_file_location("bench_ab", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_some_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_names_what_the_benchmark_lists(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{report['label']}.json"
    workloads = {w["name"] for w in SPEC["workloads"]}
    sections = [("workloads", {m["name"] for m in SPEC["end_to_end"]})]
    if "per_layer" in report:
        sections.append(("per_layer", {m["name"] for m in SPEC["per_layer"]}))
    assert report["workloads"]
    for section, metrics in sections:
        for workload, entry in report[section].items():
            assert workload in workloads
            assert set(entry["summary"]) <= metrics, (section, workload)
            for row in entry["rows"]:
                assert row["first"] in ("base", "head")
                for side in ("base", "head"):
                    assert set(row[side]["metrics"]) <= metrics
    for workload, entry in report["workloads"].items():
        seeds = [row["seed"] for row in entry["rows"]]
        # one seed list for both sides: each row holds one pair
        assert seeds == report["seeds"], workload
        for row in entry["rows"]:
            assert set(row) == {"seed", "first", "base", "head"}
    for key in ("platform", "cpu_count", "numpy", "blas_thread_vars"):
        assert key in report["host"]


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_summary_is_the_tools_summary_of_its_rows(path):
    tool = load_tool()
    report = json.loads(path.read_text(encoding="utf-8"))
    metrics = {"workloads": {m["name"]: m for m in SPEC["end_to_end"]},
               "per_layer": {m["name"]: m for m in SPEC["per_layer"]}}
    for section in ("workloads", "per_layer"):
        for workload, entry in report.get(section, {}).items():
            assert entry["summary"] == tool.summarize(
                entry["rows"], metrics[section]), (section, workload)


def test_summary_of_made_up_rows():
    tool = load_tool()

    def row(seed, base, head):
        return {"seed": seed, "first": "base",
                "base": {"metrics": {"step_ms_p90": base}},
                "head": {"metrics": {"step_ms_p90": head}}}
    rows = [row(s, b, h) for s, (b, h) in enumerate(
        [(4.0, 3.5), (4.2, 3.6), (3.9, 3.9), (4.1, 4.4), (4.0, 3.4)])]
    summary = tool.summarize(
        rows, {"step_ms_p90": {"unit": "ms", "better": "lower"},
               "task_score": {"unit": "score", "better": "higher"}})
    assert set(summary) == {"step_ms_p90"}  # no rows, no entry
    entry = summary["step_ms_p90"]
    assert (entry["pairs"], entry["head_wins"], entry["base_wins"]) \
        == (5, 3, 1)  # the tie at 3.9 counts for neither
    assert entry["base"] == {"median": 4.0, "q1": 4.0, "q3": 4.1}
    assert entry["head"]["median"] == 3.6
    assert not entry["gain_rule_met"]  # 3 of 5 pairs is short of 9 in 10

    # one pair won by a wide gap, as a traced pair is: the rule needs 10
    one = tool.summarize([row(0, 4.0, 3.0)],
                         {"step_ms_p90": {"unit": "ms", "better": "lower"}})
    assert one["step_ms_p90"]["head_wins"] == 1
    assert not one["step_ms_p90"]["gain_rule_met"]
    ten = tool.summarize([row(s, 4.0 + s / 100, 3.0) for s in range(10)],
                         {"step_ms_p90": {"unit": "ms", "better": "lower"}})
    assert ten["step_ms_p90"]["gain_rule_met"]


def test_seed_ranges():
    tool = load_tool()
    assert tool.parse_seeds("901-903") == [901, 902, 903]
    assert tool.parse_seeds("7") == [7]
    with pytest.raises(argparse.ArgumentTypeError):
        tool.parse_seeds("5-3")


def test_a_run_with_incorrect_output_stops_the_tool(tmp_path):
    # a stub tree whose benchmark/run.py reports one failed check
    tool = load_tool()
    (tmp_path / "benchmark").mkdir()
    (tmp_path / "benchmark" / "run.py").write_text(textwrap.dedent("""\
        import json
        print(json.dumps({"correct": False, "attempted": 3, "failed": 1,
                          "metrics": {"wall_s": {"value": 1.0,
                                                 "unit": "s"}}}))
        """), encoding="utf-8")
    with pytest.raises(SystemExit) as stop:
        tool.run_pair({"base": str(tmp_path), "head": str(tmp_path)},
                      "finetune-grid", 7, 30, 0, base_first=True)
    message = str(stop.value.code)
    assert "the base side's finetune-grid run, seed 7" in message
    assert "1 of 3 checks failed" in message


def test_sigterm_removes_the_export_and_stops_the_run(tmp_path):
    # the tool, with git and the export stubbed, waits on a benchmark/run.py
    # that writes its pid and sleeps; SIGTERM must end both and leave no
    # bench_ab-* directory in the tool's TMPDIR
    pidfile, tmp = tmp_path / "run.pid", tmp_path / "tmp"
    tmp.mkdir()
    driver = textwrap.dedent(f"""\
        import os, sys
        sys.path.insert(0, {str(ROOT / "tools")!r})
        import bench_ab

        def export(rev, dest):
            os.makedirs(os.path.join(dest, "benchmark"))
            with open(os.path.join(dest, "benchmark", "run.py"), "w") as f:
                f.write("import os, time\\n"
                        "with open({str(pidfile)!r}, 'w') as f:\\n"
                        "    f.write(str(os.getpid()))\\n"
                        "time.sleep(60)\\n")

        bench_ab.export = export
        bench_ab.git = lambda *args: "0" * 40
        bench_ab.main(["--base", "x", "--label", "sigterm", "--workloads",
                       "pretrain-clm", "--seeds", "1"])
        """)
    tool = subprocess.Popen([sys.executable, "-c", driver],
                            env={**os.environ, "TMPDIR": str(tmp)},
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    run = None
    try:
        deadline = time.monotonic() + 60
        while not (pidfile.exists() and pidfile.read_text()):
            assert tool.poll() is None, tool.stderr.read()
            assert time.monotonic() < deadline
            time.sleep(0.05)
        run = int(pidfile.read_text())
        tool.send_signal(signal.SIGTERM)
        _, err = tool.communicate(timeout=60)
        assert "stopped by signal" in err
        assert not list(tmp.glob("bench_ab-*"))
        with pytest.raises(ProcessLookupError):
            os.kill(run, 0)
    finally:
        if tool.poll() is None:
            tool.kill()
            tool.communicate()
        if run is not None:
            try:
                os.kill(run, signal.SIGKILL)
            except ProcessLookupError:
                pass
