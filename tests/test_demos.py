import os
import subprocess
import sys
from pathlib import Path

import pytest

from cournotprox.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


README = (ROOT / "README.md").read_text()


def readme_block(heading, lang):
    # the first ```lang block under the heading
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_library_tour_runs():
    code = readme_block("## Library tour", "python")
    assert "assert result.certificate == eps_certificate(" in code
    exec(compile(code, "README.md", "exec"), {})


def test_readme_config_file_example_runs(tmp_path):
    cfgfile = tmp_path / "example.cfg"
    cfgfile.write_text(readme_block("### Config file grammar", "ini"))
    out = tmp_path / "out"
    assert main(["--config", str(cfgfile), "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
    assert (out / "trace_log_n50_seed3.csv").exists()
