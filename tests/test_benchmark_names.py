"""The benchmark's layer tracer reads functions by name: renaming or
deleting one of them must fail here, not only in a traced benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import tracer
t = tracer.Tracer()
t.install()
print(json.dumps(tracer.coverage_problems(t)))
"""


# main's parser is built by an untraced first call; commands run after the
# tracer is installed must still be recorded, because main looks its handler
# up in COMMANDS at call time
SHARED_PARSER_SCRIPT = """
import contextlib
import io
import json
import philab.cli as cli
import tracer
built_at_import = cli._parser is not None
with contextlib.redirect_stdout(io.StringIO()):
    first = cli.main(["isolate", "--gen", "shattered:2", "--of", "1"])
    parser = cli._parser
    t = tracer.Tracer()
    t.install()
    second = cli.main(["isolate", "--gen", "shattered:2", "--of", "1"])
print(json.dumps({
    "built_at_import": built_at_import,
    "codes": [first, second],
    "reused": cli._parser is parser,
    "spans": sorted({span[0] for span in t.spans if span and span[0].startswith("cli.")}),
    "problems": tracer.coverage_problems(t),
}))
"""


def run_script(script: str):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracer_covers_every_metric_source():
    assert run_script(SCRIPT) == []


def test_tracer_sees_commands_run_through_an_existing_parser():
    result = run_script(SHARED_PARSER_SCRIPT)
    spans = result.pop("spans")
    assert "cli.cmd_isolate" in spans and "cli.build_parser" not in spans, spans
    assert result == {"built_at_import": False, "codes": [0, 0], "reused": True,
                      "problems": []}
