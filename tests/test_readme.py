"""README's command examples run as shown.

Each ``rpodsim ...`` line in a plain code block of README.md must exit 0.
A ``$ rpodsim ...`` line must also print exactly the lines shown under it.
"""

import re
import shlex
from pathlib import Path

from rpodsim.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """(argv, expected stdout lines or None) for every command in README's
    plain code blocks, with backslash continuations joined."""
    examples, text = [], README.read_text(encoding="utf-8")
    for lang, body in re.findall(r"^```(\w*)\n(.*?)^```", text, re.M | re.S):
        if lang:
            continue
        shown = None  # the output lines under the block's last `$` command
        for line in re.sub(r"\\\n\s*", "", body).splitlines():
            if line.startswith(("rpodsim ", "$ rpodsim ")):
                shown = [] if line.startswith("$ ") else None
                examples.append((shlex.split(line.removeprefix("$ "))[1:], shown))
            elif shown is not None:
                shown.append(line)
    return examples


def test_readme_commands_run_as_shown(tmp_path, capsys):
    examples = _examples()
    assert len(examples) >= 4 and any(shown is not None for _, shown in examples)
    for argv, shown in examples:
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / Path(argv[i]).name)
        assert main(argv) == 0, argv
        stdout = capsys.readouterr().out
        if shown is not None:
            assert stdout.splitlines() == shown, argv
