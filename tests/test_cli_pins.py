"""CLI pins: whole command lines and what they must print, one row each in
data/cli_pins.json.  A row gives the argv, any small input file the command
reads (written into its working directory first), the exit code, and any of:
the number of stdout lines (`lines`), the last stdout line (`last`), lines
stdout must hold (`has`), a stderr substring (`stderr`) and the SHA-256 of
stdout (`sha256`).  `why` says what the pin is for; `timeout` bounds the
console-script run in seconds.  A new pin is one more row.

The test below runs every row through `cli.main` in a fresh working
directory.  Run as a script, this module sends every row through the
`superpbw` console script on PATH instead, each in a fresh temporary
directory, and checks it the same way; the package need not be importable:

    pip install . && cd /tmp && python /path/to/tests/test_cli_pins.py
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "cli_pins.json")) as fh:
    PINS = json.load(fh)

KEYS = {"id", "why", "files", "argv", "timeout", "exit",
        "lines", "last", "has", "stderr", "sha256"}


def write_files(pin, cwd):
    for name, text in pin.get("files", {}).items():
        with open(os.path.join(cwd, name), "w") as fh:
            fh.write(text)


def mismatches(pin, code, out, err):
    """Each expectation of the pin that a run with this exit code, stdout
    and stderr misses, as text; an unknown key is one too."""
    bad = ["unknown key %r" % k for k in sorted(set(pin) - KEYS)]
    lines, count = out.splitlines(), out.count("\n")    # as `wc -l` counts
    digest = hashlib.sha256(out.encode()).hexdigest()
    if code != pin["exit"]:
        bad.append("exit %d, want %d" % (code, pin["exit"]))
    if "lines" in pin and count != pin["lines"]:
        bad.append("%d lines, want %d" % (count, pin["lines"]))
    if "last" in pin and lines[-1:] != [pin["last"]]:
        bad.append("last line %r, want %r" % ((lines or [""])[-1], pin["last"]))
    bad += ["no line %r" % line for line in pin.get("has", ()) if line not in lines]
    if "stderr" in pin and pin["stderr"] not in err:
        bad.append("stderr %r lacks %r" % (err, pin["stderr"]))
    if "sha256" in pin and digest != pin["sha256"]:
        bad.append("stdout sha256 %s, want %s" % (digest, pin["sha256"]))
    return bad


@pytest.mark.parametrize("pin", PINS, ids=[pin["id"] for pin in PINS])
def test_cli_pin(pin, tmp_path, monkeypatch, capsys):
    from superpbw.cli import main
    monkeypatch.chdir(tmp_path)
    write_files(pin, tmp_path)
    code = main(pin["argv"])
    out, err = capsys.readouterr()
    assert not mismatches(pin, code, out, err)


def run_console_script():
    """Every pin through the installed `superpbw`; 0 if all hold, else 1."""
    failed = 0
    for pin in PINS:
        with tempfile.TemporaryDirectory() as cwd:
            write_files(pin, cwd)
            try:
                proc = subprocess.run(["superpbw"] + pin["argv"], cwd=cwd, capture_output=True,
                                      text=True, timeout=pin.get("timeout"))
            except subprocess.TimeoutExpired:
                bad = ["no exit within %s s" % pin["timeout"]]
            else:
                bad = mismatches(pin, proc.returncode, proc.stdout, proc.stderr)
        if bad:
            failed += 1
            print("FAIL %s: %s" % (pin["id"], "; ".join(bad)))
    print("%d of %d CLI pins hold" % (len(PINS) - failed, len(PINS)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run_console_script())
