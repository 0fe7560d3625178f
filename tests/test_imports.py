"""What a fresh process imports: ``import fdkit`` loads no submodule, and
the command line loads only the modules its subcommand uses.

Each check runs in a new interpreter and reads ``sys.modules``, never a
timing, so it fails on the import that crept back, not on a slow machine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import fdkit

SRC = str(Path(fdkit.__file__).resolve().parent.parent)
HEAVY = ["fdkit.design", "fdkit.covers", "fdkit.instances", "fdkit.reductions"]

# Prints the modules the snippet loads beyond those loaded before it.
PROBE = """
import json, sys
before = set(sys.modules)
{snippet}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def loaded_by(snippet: str, cwd=None) -> set:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(snippet=snippet)],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_fdkit_loads_no_submodule():
    assert not {m for m in loaded_by("import fdkit") if m.startswith("fdkit.")}


def test_a_name_loads_the_modules_up_to_its_home():
    loaded = loaded_by("import fdkit\nfdkit.FDSet")
    assert {m for m in loaded if m.startswith("fdkit")} == {"fdkit", "fdkit.errors", "fdkit.fds"}


def test_import_cli_loads_no_dataclasses_and_no_search_module():
    loaded = loaded_by("import fdkit.cli")
    assert "fdkit.dsl" in loaded
    assert not loaded & {"dataclasses", *HEAVY}


def test_closure_leaves_design_unloaded_and_check_loads_it(tmp_path):
    (tmp_path / "chain.fd").write_text("fd A -> B\nfd B -> C\n")
    run = "from fdkit.cli import main\nmain({argv!r})"
    loaded = loaded_by(run.format(argv=["closure", "--of", "A", "--schema", "chain.fd"]), tmp_path)
    assert "fdkit.fds" in loaded and not loaded & set(HEAVY)
    loaded = loaded_by(run.format(argv=["check", "--nf", "bcnf", "--schema", "chain.fd"]), tmp_path)
    assert "fdkit.design" in loaded


def test_a_name_reads_its_home_module_on_every_access():
    # a name first read through the package while its home module holds a
    # stand-in (as a tracer installs) reads the original once it is put back
    loaded_by(
        "import fdkit.design as home\n"
        "original, home.synthesize_3nf = home.synthesize_3nf, len\n"
        "import fdkit\n"
        "assert fdkit.synthesize_3nf is len\n"
        "home.synthesize_3nf = original\n"
        "assert fdkit.synthesize_3nf is original"
    )


def test_a_name_whose_home_is_known_reads_it_on_every_access():
    # once a name has been read, its home is known and answers it at once;
    # a stand-in put there later, and the original put back, read through
    loaded_by(
        "import fdkit\n"
        "import fdkit.fds as home\n"
        "original = fdkit.FD\n"
        "assert fdkit._homes['FD'] is home\n"
        "home.FD = len\n"
        "assert fdkit.FD is len\n"
        "home.FD = original\n"
        "assert fdkit.FD is original and fdkit.FD is home.FD"
    )
