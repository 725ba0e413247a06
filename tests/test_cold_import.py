"""A fresh `import a4csl`, and one CLI command, load no module that only a
function of the package needs: `dataclasses` and its `inspect` are not
used at all, `json` and `pickle` only by the writers that call them.

Each check runs in a `python -I` subprocess and is compared with a bare
one, so the interpreter's site packages do not matter.  Nothing is timed.
"""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
DEFERRED = {"dataclasses", "inspect", "json", "pickle"}
LAYERS = {f"a4csl.{m}" for m in
          ("golden", "quaternion", "icosian", "lattice", "a4", "counting", "oracle")}


def loaded_after(code: str) -> set[str]:
    """The modules a fresh isolated interpreter holds after `code`, less
    those a bare one holds."""
    def modules(body: str) -> set[str]:
        script = (f"import sys\nsys.path.insert(0, {SRC!r})\n{body}\n"
                  "sys.stdout.write(' '.join(sys.modules))\n")
        proc = subprocess.run([sys.executable, "-I", "-c", script],
                              capture_output=True, text=True, check=True)
        return set(proc.stdout.split())

    return modules(code) - modules("pass")


def cli_command(*argv: str) -> str:
    return f"import os, a4csl.cli\na4csl.cli.main({list(argv) + ['--out']!r} + [os.devnull])"


def test_import_loads_every_layer_and_no_deferred_module():
    loaded = loaded_after("import a4csl")
    assert LAYERS <= loaded
    assert not loaded & DEFERRED


def test_a_text_command_loads_no_deferred_module():
    loaded = loaded_after(cli_command("count", "ssl", "--max", "3"))
    assert "a4csl.cli" in loaded
    assert not loaded & DEFERRED


def test_the_guard_sees_a_load():
    # the JSON writer imports json when it runs, and the guard notices
    loaded = loaded_after(cli_command("count", "ssl", "--max", "3", "--format", "json"))
    assert "json" in loaded
    assert not loaded & (DEFERRED - {"json"})
