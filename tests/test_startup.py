"""Each command-line process loads only the modules its command runs, and
``gen --format json`` holds no more than the text form does.

Every command runs in a fresh interpreter through ``runpy``, as
``python -m crossbifix`` runs it, and the modules it leaves in
``sys.modules`` are compared with those of a bare interpreter, so that what
``site`` loads in a given environment does not count.
"""

import ast
import os
import subprocess
import sys

import pytest

from crossbifix import cli
from crossbifix.codeset import construct_cbfs

SRC = os.path.dirname(os.path.dirname(cli.__file__))
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
    "PYTHONDONTWRITEBYTECODE": "1",
}
CBFS_3_6 = construct_cbfs(3, 6).to_text()

# Each command, its stdin and the package modules it loads besides
# crossbifix.cli. Counting (count, table) loads neither the walk (motzkin,
# walk) nor words; verify loads neither counting nor the walk; only gen
# and baseline-gen load the word-list writer and the walk, whose state table
# of S(k, q, n) lives in motzkin; only the JSON forms and verify
# load the JSON writer, and no command loads the API edge (codeset) or the
# brute-force references (oracle).
SIZES = {"crossbifix.sizes", "crossbifix.counting"}
WORDLIST = {"crossbifix.wordlist", "crossbifix.words", "crossbifix.counting"}
WALK = {"crossbifix.motzkin", "crossbifix.walk"} | WORDLIST
BIFIX_FREE = {"crossbifix.bifixfree"} | WORDLIST
BASELINE = {"crossbifix.baseline"} | WALK
VERIFY = {"crossbifix.verify", "crossbifix.bifixfree", "crossbifix.words", "crossbifix.jsontext"}
JSON = {"crossbifix.jsontext"}
COMMANDS = {
    "count": (["count", "--q", "3", "--n", "9"], None, SIZES),
    "count-S": (["count", "--q", "3", "--n", "9", "--set", "S"], None, SIZES | {"crossbifix.baseline"}),
    "count-motzkin": (["count", "--q", "3", "--n", "9", "--set", "motzkin"], None, SIZES),
    "gen": (["gen", "--q", "3", "--n", "6"], None, WALK),
    "gen-json": (["gen", "--q", "3", "--n", "6", "--format", "json"], None, WALK | JSON),
    "gen-A": (["gen", "--q", "12", "--n", "4", "--set", "A"], None, WALK),
    "gen-motzkin": (
        ["gen", "--q", "3", "--n", "6", "--set", "motzkin", "--format", "json"],
        None,
        WALK | JSON,
    ),
    "gen-elevated": (["gen", "--q", "3", "--n", "6", "--set", "elevated"], None, WALK),
    "gen-bifixfree": (["gen", "--q", "3", "--n", "6", "--set", "bifixfree"], None, BIFIX_FREE),
    "gen-bifixfree-json": (
        ["gen", "--q", "3", "--n", "6", "--set", "bifixfree", "--format", "json"],
        None,
        BIFIX_FREE | JSON,
    ),
    "verify": (["verify", "--in", "-", "--q", "3"], CBFS_3_6, VERIFY),
    "verify-nonexpandable": (["verify", "--in", "-", "--q", "3", "--mode", "nonexpandable"], CBFS_3_6, VERIFY),
    "verify-all-witnesses": (
        ["verify", "--in", "-", "--q", "3", "--mode", "nonexpandable", "--all-witnesses"],
        CBFS_3_6,
        VERIFY,
    ),
    "table": (["table", "--q", "3..4", "--n", "3..8"], None, SIZES | {"crossbifix.baseline"}),
    "table-json": (
        ["table", "--q", "3..4", "--n", "3..8", "--format", "json"],
        None,
        SIZES | {"crossbifix.baseline"} | JSON,
    ),
    "baseline-gen": (["baseline-gen", "--k", "2", "--q", "3", "--n", "6"], None, BASELINE),
    "baseline-gen-json": (["baseline-gen", "--k", "2", "--q", "3", "--n", "6", "--format", "json"], None, BASELINE | JSON),
}
# Modules that no gen or verify process may load.
API_EDGE = {"crossbifix.codeset", "crossbifix.oracle"}


def loaded_modules(script, stdin=None):
    """The modules a fresh interpreter holds after ``script`` and not before
    it, with the script's stdout. The last stderr line lists them, written
    without loading a module."""
    before = "import sys\nbare = set(sys.modules)\n"
    after = "sys.stderr.write('\\n' + repr(sorted(set(sys.modules) - bare)))\n"
    done = subprocess.run(
        [sys.executable, "-c", before + script + after],
        input=stdin,
        env=ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stderr.rsplit("\n", 1)[1])), done.stdout


@pytest.mark.parametrize("name", COMMANDS)
def test_commands_load_only_what_they_run(name):
    argv, stdin, modules = COMMANDS[name]
    script = (
        "import runpy\n"
        f"sys.argv = ['crossbifix', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('crossbifix', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    loaded, out = loaded_modules(script, stdin)
    assert out
    package = {module for module in loaded if module.startswith("crossbifix.")}
    assert package == {"crossbifix.cli"} | modules
    assert not package & API_EDGE
    assert not loaded & {"argparse", "csv", "dataclasses", "gettext", "inspect", "json", "locale"}


@pytest.mark.parametrize("name", COMMANDS)
def test_commands_load_no_typing_where_site_has_not(name):
    # under python -S no site module has loaded typing, as on an interpreter
    # whose site loads none; typing would bring in re and enum
    argv, stdin, _ = COMMANDS[name]
    script = (
        "import runpy, sys\n"
        f"sys.argv = ['crossbifix', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('crossbifix', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "sys.stderr.write('\\n' + repr(sorted({'typing', 're', 'enum'} & set(sys.modules))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], input=stdin, env=ENV, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0 and done.stdout, done.stderr
    assert done.stderr.rsplit("\n", 1)[1] == "[]"


def test_a_refused_argv_exits_2_with_the_argparse_message():
    done = subprocess.run(
        [sys.executable, "-m", "crossbifix", "count", "--q", "x", "--n", "5"],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: crossbifix count [-h] --q Q --n N")
    assert done.stderr.endswith("\ncrossbifix count: error: argument --q: expected an integer, got 'x'\n")


def test_importing_the_cli_loads_neither_argparse_nor_re():
    # re counts only where site has not loaded it already, as a bare
    # interpreter has not
    loaded, _ = loaded_modules("import crossbifix.cli\n")
    assert not loaded & {"argparse", "gettext", "locale", "re"}


def test_no_gen_or_verify_loads_the_api_edge():
    # every --set of gen and every verify mode, in both formats or with
    # every witness, run in one fresh process so the union is checked
    sets = ("cbfs", "A", "B", "C", "motzkin", "elevated", "bifixfree")
    variants = [["gen", "--q", "4", "--n", "5", "--set", name] for name in sets]
    variants += [argv + ["--format", "json"] for argv in variants]
    variants += [["gen", "--q", "12", "--n", "4", "--set", name] for name in ("cbfs", "motzkin", "bifixfree")]
    modes = [["--mode", "set"], ["--mode", "nonexpandable"], ["--mode", "nonexpandable", "--all-witnesses"]]
    inputs = {"1100\n1120\n": 3, "1100\n1000\n": 3, "1010\n": 3, "10,11\n": 12}
    script = "import io\nfrom crossbifix.cli import main\nreal = sys.stdin\n"
    for argv in variants:
        script += f"assert main({argv!r}) == 0\n"
    for text, q in inputs.items():
        for mode in modes:
            script += f"sys.stdin = io.StringIO({text!r})\n"
            script += f"assert main(['verify', '--in', '-', '--q', '{q}', *{mode!r}]) in (0, 1, 2)\n"
    loaded, out = loaded_modules(script + "sys.stdin = real\n")
    assert out and not loaded & API_EDGE


def test_importing_the_package_loads_none_of_its_modules():
    loaded, _ = loaded_modules("import crossbifix\n")
    assert "crossbifix" in loaded and not {name for name in loaded if name.startswith("crossbifix.")}
    loaded, _ = loaded_modules("from crossbifix import count_cbfs\n")
    assert {name for name in loaded if name.startswith("crossbifix.")} == {"crossbifix.counting"}


def test_counting_imports_nothing_from_the_package():
    path = os.path.join(os.path.dirname(cli.__file__), "counting.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        names = [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("crossbifix"), (node.module, names)
        else:
            assert not any(name.startswith("crossbifix") for name in names), names


# Runs argv and prints its exit code and peak RSS. The peak a process
# reports covers the address space its exec replaced, so the command is
# started from this small process rather than from the test run.
SPAWN = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "proc.returncode = os.waitstatus_to_exitcode(status)\n"
    "print(proc.returncode, usage.ru_maxrss)\n"
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB, as Linux reports it")
def test_gen_json_peaks_within_5_mb_of_the_text():
    peaks = {}
    for fmt in ("text", "json"):
        command = [sys.executable, "-m", "crossbifix", "gen", "--q", "4", "--n", "11", "--format", fmt]
        spawn = [sys.executable, "-c", SPAWN, *command]
        done = subprocess.run(spawn, env=ENV, capture_output=True, text=True, timeout=60)
        code, peaks[fmt] = map(int, done.stdout.split())
        assert code == 0, done.stderr
    assert peaks["json"] < peaks["text"] + 5 * 1024, peaks


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB, as Linux reports it")
def test_table_refuses_a_long_range_in_the_memory_of_a_short_one():
    # both lengths are above --limit, so both are refused before any count
    peaks = {}
    for lengths in ("3..20", "3..2000000"):
        command = [sys.executable, "-m", "crossbifix", "table", "--q", "3", "--n", lengths, "--limit", "10"]
        spawn = [sys.executable, "-c", SPAWN, *command]
        done = subprocess.run(spawn, env=ENV, capture_output=True, text=True, timeout=60)
        code, peaks[lengths] = map(int, done.stdout.split())
        assert code == 2 and done.stderr.endswith("above --limit 10\n"), done.stderr
    assert peaks["3..2000000"] < peaks["3..20"] + 5 * 1024, peaks


def test_iter_cbfs_streams_its_first_words_far_past_the_listing_range():
    # each word of a first visit leaves the walk at once, so the first
    # words of CBFS(3, 60) wait for no subtree to be listed
    script = (
        "from itertools import islice\n"
        "from crossbifix.codeset import iter_cbfs\n"
        "print(sum(1 for _ in islice(iter_cbfs(3, 60), 1000)))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stdout) == (0, "1000\n"), done.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB, as Linux reports it")
def test_gen_of_ten_million_words_peaks_within_8_mb_of_a_small_set():
    # CBFS(3, 19) holds 10,035,338 words, CBFS(3, 9) 210; the writer holds
    # a piece of about 64 KiB, whatever the set's size
    peaks = {}
    for n in ("9", "19"):
        command = [sys.executable, "-m", "crossbifix", "gen", "--q", "3", "--n", n, "--limit", "20000000"]
        spawn = [sys.executable, "-c", SPAWN, *command]
        done = subprocess.run(spawn, env=ENV, capture_output=True, text=True, timeout=120)
        code, peaks[n] = map(int, done.stdout.split())
        assert code == 0, done.stderr
    assert peaks["19"] < peaks["9"] + 8 * 1024, peaks


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB, as Linux reports it")
def test_baseline_gen_peaks_within_8_mb_of_a_small_set():
    # S(2, 3, 17) holds 2,035,968 words and an interior space of 3^13, S(2, 3, 6)
    # 16 words; the walk holds its states and a block of lines, not the interiors
    peaks = {}
    for n in ("6", "17"):
        command = [sys.executable, "-m", "crossbifix", "baseline-gen", "--k", "2", "--q", "3", "--n", n]
        spawn = [sys.executable, "-c", SPAWN, *command]
        done = subprocess.run(spawn, env=ENV, capture_output=True, text=True, timeout=120)
        code, peaks[n] = map(int, done.stdout.split())
        assert code == 0, done.stderr
    assert peaks["17"] < peaks["6"] + 8 * 1024, peaks


def test_baseline_gen_refuses_a_huge_interior_space_at_once():
    # 3^(10^8 - 3) has 158 million bits; the refusal takes the power only as
    # far as the cap's bit length
    command = [sys.executable, "-m", "crossbifix", "baseline-gen", "--k", "1", "--q", "3", "--n", "100000000"]
    done = subprocess.run(command, env=ENV, capture_output=True, text=True, timeout=10)
    message = "error: interior space 3^99999997 exceeds the cap of 10000000; raise max_space to force\n"
    assert (done.returncode, done.stdout, done.stderr) == (2, "", message)
