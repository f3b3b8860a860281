import json
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

from tplroute import cli, metrics
from tplroute.cli import main
from tplroute.layout import load_layout
from tplroute.negotiation import detect_conflicts

GEN_FLAGS = [
    "--width", "10", "--height", "10", "--layers", "2",
    "--num-nets", "3", "--pins-per-net", "3", "--congestion", "0.4",
]


def run_cli(args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "tplroute", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    assert main(["--mode", "generate", "--output", str(path), "--seed", "3", *GEN_FLAGS]) == 0
    return path


DEMO = Path(__file__).resolve().parent.parent / "data" / "demo_2net.json"


def test_bundled_demo_routes_deterministically(tmp_path):
    reports = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        assert main(["--mode", "route", "--input", str(DEMO), "--output", str(out)]) == 0
        report_path = Path(str(out) + ".report.json")
        assert report_path.exists()
        reports.append(report_path.read_bytes())
    assert reports[0] == reports[1]


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = main(["--mode", "generate", "--output", str(path), "--seed", "7", *GEN_FLAGS])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_generated_file_round_trips(instance_file):
    layout = load_layout(instance_file)
    assert len(layout.nets) == 3


def test_route_mode_outputs(tmp_path, instance_file, capsys):
    out = tmp_path / "run"
    assert main(["--mode", "route", "--input", str(instance_file), "--output", str(out)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed, "expected per-iteration JSON log lines"
    first = json.loads(printed[0])
    assert {"iter", "conflicts", "stitches", "rerouted"} <= set(first)

    report = json.loads((tmp_path / "run.report.json").read_text())
    assert {"conflicts", "stitches", "weighted_cost", "per_net", "wall_time_ms"} <= set(report)
    assert report["wall_time_ms"] is None  # byte determinism default

    routes = json.loads((tmp_path / "run.routes.json").read_text())
    assert routes["method"] == "router"
    for net in routes["nets"]:
        assert {"net_id", "paths", "vertex_colors", "stitches", "cost"} <= set(net)
        assert {"trad", "stitch", "color", "total"} <= set(net["cost"])
        for _, letter in net["vertex_colors"]:
            assert letter in ("R", "G", "B")


def test_baseline_mode_tagged(tmp_path, instance_file):
    out = tmp_path / "base"
    assert main(["--mode", "baseline", "--input", str(instance_file), "--output", str(out)]) == 0
    routes = json.loads((tmp_path / "base.routes.json").read_text())
    assert routes["method"] == "baseline"


def test_compare_mode(tmp_path, instance_file):
    out = tmp_path / "cmp"
    assert main(["--mode", "compare", "--input", str(instance_file), "--output", str(out)]) == 0
    payload = json.loads((tmp_path / "cmp.compare.json").read_text())
    assert {"baseline", "router", "rows"} <= set(payload)
    metrics = [row["metric"] for row in payload["rows"]]
    assert metrics == ["conflicts", "stitches", "weighted_cost"]
    for row in payload["rows"]:
        assert {"metric", "base", "ours", "improvement"} <= set(row)


def test_render_outputs_svg_per_layer(tmp_path, instance_file):
    out = tmp_path / "render"
    assert main(["--mode", "route", "--input", str(instance_file), "--output", str(out), "--render"]) == 0
    for layer in (0, 1):
        svg_path = tmp_path / f"render.layer{layer}.svg"
        assert svg_path.exists()
        root = ElementTree.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")


@pytest.mark.parametrize("mode, arms", [("route", 1), ("baseline", 1), ("compare", 2)])
def test_render_reuses_the_scored_conflicts(tmp_path, instance_file, monkeypatch, mode, arms):
    # route_all's own per-iteration scans go through negotiation's binding;
    # every scan after routing would go through metrics' or the CLI's.
    calls = []

    def counting(grid, rules):
        calls.append(1)
        return detect_conflicts(grid, rules)

    monkeypatch.setattr(metrics, "detect_conflicts", counting)
    monkeypatch.setattr(cli, "detect_conflicts", counting, raising=False)
    out = tmp_path / mode
    assert main(["--mode", mode, "--input", str(instance_file), "--output", str(out), "--render"]) == 0
    assert (tmp_path / f"{mode}.layer0.svg").exists()
    assert len(calls) == arms


def test_rule_overrides_apply(tmp_path, instance_file):
    out = tmp_path / "ov"
    code = main([
        "--mode", "route", "--input", str(instance_file), "--output", str(out),
        "--gamma", "99", "--max-iters", "1",
    ])
    assert code == 0
    report = json.loads((tmp_path / "ov.report.json").read_text())
    assert len(report["iterations"]) == 1


def test_error_json_on_missing_input(tmp_path):
    proc = run_cli(["--mode", "route", "--input", str(tmp_path / "nope.json"), "--output", str(tmp_path / "x")])
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "LayoutError"
    assert "message" in err


def test_error_json_on_wrong_json_type(tmp_path):
    data = json.loads(DEMO.read_text())
    data["nets"][0]["pins"] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    proc = run_cli(["--mode", "route", "--input", str(path), "--output", str(tmp_path / "x")])
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "LayoutError"
    assert "pins must be a list" in err["message"]


def test_error_json_on_too_deeply_nested_file(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    proc = run_cli(["--mode", "route", "--input", str(path), "--output", str(tmp_path / "x")], timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "LayoutError"
    assert "cannot parse" in err["message"]


def test_error_json_on_oversized_grid(tmp_path):
    data = json.loads(DEMO.read_text())
    data["grid"]["width"] = data["grid"]["height"] = 10**6
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    proc = run_cli(["--mode", "route", "--input", str(path), "--output", str(tmp_path / "x")], timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "LayoutError"
    assert "vertices" in err["message"]


def test_route_outputs_byte_identical_across_processes(tmp_path, instance_file):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        proc = run_cli(["--mode", "route", "--input", str(instance_file), "--output", str(out), "--render"])
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for suffix in (".report.json", ".routes.json", ".layer0.svg", ".layer1.svg"):
        a = Path(str(outs[0]) + suffix).read_bytes()
        b = Path(str(outs[1]) + suffix).read_bytes()
        assert a == b, f"{suffix} differs between identical runs"


def test_nan_rule_override_rejected(tmp_path):
    # A subprocess with a timeout, so a regression fails instead of hanging.
    out = tmp_path / "nan"
    proc = run_cli(
        ["--mode", "route", "--input", str(DEMO), "--output", str(out), "--alpha", "nan"],
        timeout=60,
    )
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "LayoutError"
    assert "alpha" in err["message"]
    assert not list(tmp_path.iterdir())


def test_run_demo_keeps_each_arm_under_its_own_prefix(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_demo.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--outdir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    routes = json.loads((tmp_path / "route.routes.json").read_text())
    assert routes["method"] == "router"
    report = json.loads((tmp_path / "route.report.json").read_text())
    comparison = json.loads((tmp_path / "compare.compare.json").read_text())
    assert report["stitches"] == comparison["router"]["stitches"]

def test_generate_rejects_bad_override_before_writing(tmp_path, capsys):
    path = tmp_path / "gen.json"
    code = main(["--mode", "generate", "--output", str(path), "--stitch-cost", "inf"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "LayoutError"
    assert not path.exists()
