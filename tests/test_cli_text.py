"""The command line's own text, pinned byte for byte: the stdout, stderr and
exit code of the help pages, --version, a missing or unknown command, and
one leftover-argument error and one bad-value error per subcommand, against
tests/data/cli_text.json.

argparse words these messages, and its wording changes between Python
versions, so the data hold the version they were captured with.  Running
this file as a script rewrites the data from the package on the path:

    PYTHONPATH=src python3 tests/test_cli_text.py
"""
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from dqdsim import cli

DATA = Path(__file__).resolve().parent / "data" / "cli_text.json"
WIDTH = "80"  # argparse wraps help to the terminal's width, read from COLUMNS

BAD_VALUES = {
    "spectrum": ["--mode", "exact"],
    "exchange-tilt": ["--charge-e", "minus"],
    "exchange-barrier": ["--seed", "1.5"],
    "noise-compare": ["--points", "abc"],
    "qfactor": ["--j-range"],
    "impurity-scan": ["--J-mhz", "x"],
    "near-impurity": ["--j-max", "GHz"],
    "potential-profile": ["--y-nm", "up"],
    "validate": ["--seed", "x"],
}


def invocations() -> list[list[str]]:
    calls = [["-h"], ["--version"], [], ["bogus"]]
    for name, bad in BAD_VALUES.items():
        calls += [[name, "-h"], [name, "--bogus", "stray"], [name, *bad]]
    return calls


def run(argv) -> dict:
    """main's stdout, stderr and exit code on argv, none of which runs a command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


@pytest.fixture(scope="module")
def pinned() -> dict:
    data = json.loads(DATA.read_text(encoding="utf-8"))
    if python_version() != data["python"]:
        pytest.skip(f"argparse text pinned on Python {data['python']}, not {python_version()}")
    return {tuple(c["argv"]): c for c in data["calls"]}


def test_every_subcommand_is_covered():
    assert list(BAD_VALUES) == list(cli._SUBCOMMANDS)


def test_the_data_hold_every_invocation():
    data = json.loads(DATA.read_text(encoding="utf-8"))
    assert [c["argv"] for c in data["calls"]] == invocations()


@pytest.mark.parametrize("argv", invocations(), ids=lambda argv: " ".join(argv) or "(none)")
def test_the_text_is_as_pinned(argv, pinned, monkeypatch):
    monkeypatch.setenv("COLUMNS", WIDTH)
    assert run(argv) == pinned[tuple(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = WIDTH
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({"python": python_version(),
                                "calls": [run(argv) for argv in invocations()]},
                               indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
