"""``python -m crossbifix`` as a process: how it ends.

Run as the process's own ``__main__``, the package ends with ``os._exit``
after the ``atexit`` handlers and the flushes of stdout and stderr. These
tests run it with stdout buffered, as it is whenever ``PYTHONUNBUFFERED`` is
unset and stdout is not a terminal, so that every byte still in the buffer
when the command returns must reach the file or the pipe.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from crossbifix import cli
from crossbifix.cli import main

SRC = os.path.dirname(os.path.dirname(cli.__file__))
ENV = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# The bytes of two commands' stdout: their length and sha256.
OUTPUTS = {
    "gen": (
        ["gen", "--q", "4", "--n", "11"],
        1_118_100,
        "aab53003b1313fe52633a2c7350ed4ecc6f55e8d2712476edb5d91c0d976dd48",
    ),
    "count": (
        ["count", "--q", "3", "--n", "30000"],
        14_308,
        "9b79135b9f52d2bb20c2548c8163d43779e6ebd78221e76e5c42ddd0c631bc95",
    ),
}


def crossbifix(*argv, env=ENV, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "crossbifix", *argv], env=env, capture_output=True, timeout=60, **kwargs
    )


@pytest.mark.parametrize("name", OUTPUTS)
def test_buffered_stdout_reaches_a_pipe_in_full(name):
    argv, size, digest = OUTPUTS[name]
    done = crossbifix(*argv)
    assert (done.returncode, done.stderr) == (0, b"")
    assert (len(done.stdout), hashlib.sha256(done.stdout).hexdigest()) == (size, digest)


@pytest.mark.parametrize("name", OUTPUTS)
def test_buffered_stdout_reaches_a_file_in_full(name, tmp_path):
    argv, size, digest = OUTPUTS[name]
    target = tmp_path / "out"
    with open(target, "wb") as fh:
        done = subprocess.run(
            [sys.executable, "-m", "crossbifix", *argv], env=ENV, stdout=fh, stderr=subprocess.PIPE, timeout=60
        )
    assert (done.returncode, done.stderr) == (0, b"")
    data = target.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--q", "3", "--n", "14"],
        ["gen", "--q", "3", "--n", "14", "--format", "json"],
        ["gen", "--q", "3", "--n", "12", "--set", "bifixfree"],
        ["baseline-gen", "--k", "2", "--q", "3", "--n", "16"],
    ],
)
def test_a_closed_pipe_is_one_error_with_buffered_stdout(argv):
    # the reader takes one line and closes the pipe; what is still in
    # stdout's buffer when the command returns cannot be flushed either,
    # and that is the same error, reported once
    proc = subprocess.Popen(
        [sys.executable, "-m", "crossbifix", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (2, b"error: [Errno 32] Broken pipe\n")


# One command line for each command, all writing to stdout.
TO_STDOUT = {
    "count": ["count", "--q", "3", "--n", "5"],
    "gen": ["gen", "--q", "3", "--n", "5"],
    "baseline-gen": ["baseline-gen", "--k", "2", "--q", "3", "--n", "6"],
    "verify": ["verify", "--in", "-", "--q", "3"],
    "table": ["table", "--q", "3", "--n", "3..8"],
}


def closed_stdout(*argv):
    """``python -m crossbifix`` run with its standard output closed, as by
    the shell's ``>&-``, and its stdin empty."""
    return crossbifix(*argv, input=b"", preexec_fn=lambda: os.close(1))


@pytest.mark.parametrize("name", TO_STDOUT)
def test_a_closed_stdout_is_one_error(name):
    assert set(TO_STDOUT) == set(cli._COMMANDS)
    done = closed_stdout(*TO_STDOUT[name])
    assert (done.returncode, done.stdout, done.stderr) == (2, b"", b"error: stdout is closed\n")


@pytest.mark.parametrize("name", ["gen", "baseline-gen", "table"])
def test_out_writes_its_file_with_stdout_closed(name, tmp_path):
    target = tmp_path / "out"
    done = closed_stdout(*TO_STDOUT[name], "--out", str(target))
    assert (done.returncode, done.stderr) == (0, b"")
    assert target.read_bytes() == crossbifix(*TO_STDOUT[name]).stdout != b""


def closed_stdin(*argv):
    """``python -m crossbifix`` run with its standard input closed, as by
    the shell's ``<&-``."""
    return crossbifix(*argv, preexec_fn=lambda: os.close(0))


@pytest.mark.parametrize("mode", ["set", "nonexpandable"])
def test_verify_of_a_closed_stdin_is_one_error(mode):
    done = closed_stdin("verify", "--in", "-", "--q", "3", "--mode", mode)
    assert (done.returncode, done.stdout, done.stderr) == (2, b"", b"error: stdin is closed\n")


def test_verify_reads_its_file_with_stdin_closed(tmp_path):
    words = tmp_path / "words"
    words.write_bytes(crossbifix("gen", "--q", "3", "--n", "9").stdout)
    done = closed_stdin("verify", "--in", str(words), "--q", "3", "--mode", "nonexpandable")
    assert (done.returncode, done.stderr) == (0, b"")
    assert b'\n  "ok": true,\n' in done.stdout


@pytest.mark.parametrize("name", ["count", "gen", "baseline-gen", "table"])
def test_commands_that_read_no_input_run_with_stdin_closed(name):
    done = closed_stdin(*TO_STDOUT[name])
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == crossbifix(*TO_STDOUT[name]).stdout != b""


def test_atexit_handlers_run_before_the_process_ends(tmp_path):
    # a handler that site registers, writing to the buffered stdout after
    # the command's own output
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, sys\natexit.register(lambda: sys.stdout.write('atexit ran\\n'))\n", encoding="utf-8"
    )
    env = {**ENV, "PYTHONPATH": os.pathsep.join([str(tmp_path), ENV["PYTHONPATH"]])}
    done = crossbifix("count", "--q", "3", "--n", "5", env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"16\natexit ran\n", b"")


def test_a_profiled_run_still_prints_its_profile():
    # cProfile runs the package outside the interpreter's own __main__, so
    # the command returns to it and the profile is printed after its output
    done = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "crossbifix", "count", "--q", "3", "--n", "5"],
        env=ENV,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(b"16\n") and b"function calls" in done.stdout


def test_every_handler_returns_an_exit_code(tmp_path, capsys):
    # os._exit takes only an int: each command's handler returns 0, 1 or 2
    words = tmp_path / "words"
    words.write_text("1100\n1120\n", encoding="ascii")
    argvs = [
        ["count", "--q", "3", "--n", "5"],
        ["count", "--q", "2", "--n", "5"],
        ["gen", "--q", "3", "--n", "5"],
        ["gen", "--q", "3", "--n", "5", "--limit", "1"],
        ["baseline-gen", "--k", "2", "--q", "3", "--n", "5"],
        ["baseline-gen", "--k", "4", "--q", "3", "--n", "5"],
        ["verify", "--in", str(words), "--q", "3"],
        ["verify", "--in", str(words), "--q", "3", "--mode", "nonexpandable"],
        ["verify", "--in", str(tmp_path / "missing"), "--q", "3"],
        ["table", "--q", "3", "--n", "3..8"],
        ["table", "--q", "3", "--n", "3..8", "--limit", "5"],
    ]
    codes = {}
    for argv in argvs:
        code = main(argv)
        assert type(code) is int, (argv, code)
        codes.setdefault(argv[0], set()).add(code)
    capsys.readouterr()
    assert set(codes) == set(cli._COMMANDS)
    assert set().union(*codes.values()) == {0, 1, 2}
