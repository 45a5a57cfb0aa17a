"""Generate and replay the CLI corpus: every invocation in ``argvs.txt``
with its expected stdout, stderr and exit code, kept in ``expected.json``.

    PYTHONPATH=src python tests/cli_corpus/generate.py

rewrites ``expected.json`` from the ``spintomo`` on the path. A case runs
through ``spintomo.cli.main`` in this process, with its streams captured,
unless it is ``--help`` or a closed pipe (a line ending in ``| head -n N``
or ``| head -c N``): those run in a fresh interpreter, the pipe cases with
stdout closed after that much is read. Every case runs in a scratch
directory that :func:`prepare` fills with the state files of ``states/``
and ``deep.json``, an array nested deeper than the JSON decoder recurses,
with ``COLUMNS=80`` so that argparse wraps its text the same way on any
terminal. The in-process cases run with ``time.perf_counter`` stopped, so
that selftest's runtime budgets do not fail on a loaded host; the
wall-clock figures of the selftest lines on stderr are masked as well. An
output longer than :data:`DIGEST_BYTES` is kept as its SHA-256, its line
count and its first lines. ``tests/test_cli_corpus.py`` replays the corpus
and compares it with :func:`compare`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shlex
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np

HERE = Path(__file__).resolve().parent
ARGVS = HERE / "argvs.txt"
EXPECTED = HERE / "expected.json"

#: Outputs longer than this are kept as a digest, not as text.
DIGEST_BYTES = 64 * 1024
#: Lines of a digested output kept as text.
HEAD_LINES = 8
#: Tolerance of a number when the recorded Python or numpy version differs.
NUMBER_TOL = 1e-12
#: Fresh interpreters running at once.
WORKERS = 4

_TIMING = re.compile(r"^(  criterion \d+ took |selftest wall clock )\d+\.\d+ s$", re.M)
_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def read_argvs(path: Path = ARGVS) -> list:
    """The corpus lines, comments and blank lines dropped."""
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def prepare(directory: Path) -> None:
    """Fill ``directory`` with the state files the corpus names."""
    for state in (HERE / "states").iterdir():
        shutil.copyfile(state, directory / state.name)
    (directory / "deep.json").write_text("[" * 100_000 + "]" * 100_000)


@lru_cache(maxsize=None)
def _package_env() -> dict:
    """The environment of a fresh interpreter, this package first on its path."""
    import spintomo
    src = str(Path(spintomo.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, COLUMNS="80")


def _in_process(argv: list, directory: Path) -> tuple:
    from spintomo.cli import main
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(directory)
    os.environ["COLUMNS"] = "80"
    try:
        # a stopped clock: selftest's runtime budgets pass however loaded the host is
        with mock.patch("time.perf_counter", return_value=0.0), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's help and usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, out.getvalue(), err.getvalue()


def _fresh_process(argv: list, head: list, directory: Path) -> tuple:
    command = [sys.executable, "-m", "spintomo.cli", *argv]
    if not head:
        proc = subprocess.run(command, capture_output=True, cwd=directory, env=_package_env(),
                              timeout=120)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()
    # `| head -n N` or `| head -c N`: read that much, then close the pipe
    _, flag, count = head
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=directory, env=_package_env())
    try:
        if flag == "-n":
            first = b"".join(proc.stdout.readline() for _ in range(int(count)))
        else:
            first = proc.stdout.read(int(count))
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    return code, first.decode(), err.decode()


def _split(line: str) -> tuple:
    """(argv, the words after a ``|``, if the line has one)."""
    argv = shlex.split(line)
    return (argv[:argv.index("|")], argv[argv.index("|") + 1:]) if "|" in argv else (argv, [])


def _fresh(line: str) -> bool:
    argv, head = _split(line)
    return bool(head) or "--help" in argv


def run(line: str, directory: Path) -> tuple:
    """(exit code, stdout, stderr) of one corpus line, timings masked."""
    argv, head = _split(line)
    if _fresh(line):
        code, out, err = _fresh_process(argv, head, directory)
    else:
        code, out, err = _in_process(argv, directory)
    return code, out, _TIMING.sub(r"\1<seconds> s", err)


def run_all(lines: list, directory: Path) -> list:
    """:func:`run` of every line; the fresh interpreters run a few at a time."""
    fresh = [i for i, line in enumerate(lines) if _fresh(line)]
    _package_env()  # read os.environ before the in-process cases set COLUMNS
    with ThreadPoolExecutor(WORKERS) as pool:
        pending = {i: pool.submit(run, lines[i], directory) for i in fresh}
        results = [None if i in pending else run(line, directory) for i, line in enumerate(lines)]
        for i, future in pending.items():
            results[i] = future.result()
    return results


def _text(text: str):
    """A recorded output: its lines, or a digest when it is long."""
    if len(text.encode()) <= DIGEST_BYTES:
        return text.split("\n")
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "lines": text.count("\n"),
            "head": text.split("\n")[:HEAD_LINES]}


def record(lines: list, results: list) -> dict:
    cases = []
    for line, (code, out, err) in zip(lines, results):
        parser = out.startswith("usage: ") or err.startswith("usage: ")
        cases.append({"argv": line, "exit": code, "parser": parser,
                      "stdout": _text(out), "stderr": _text(err)})
    return {**versions(), "cases": cases}


def render(corpus: dict) -> str:
    return json.dumps(corpus, indent=1, ensure_ascii=False) + "\n"


def _numbers_close(want: str, got: str) -> bool:
    # the same text between the numbers, the numbers to NUMBER_TOL
    want, got = _NUMBER.split(want), _NUMBER.split(got)
    if len(want) != len(got) or want[::2] != got[::2]:
        return False
    return all(abs(float(a) - float(b)) <= NUMBER_TOL * max(1.0, abs(float(a)), abs(float(b)))
               for a, b in zip(want[1::2], got[1::2]))


def _close(want, text: str) -> bool:
    if isinstance(want, dict):  # a digest: its line count and first lines
        return (want["lines"] == text.count("\n") and _numbers_close(
            "\n".join(want["head"]), "\n".join(text.split("\n")[:HEAD_LINES])))
    return _numbers_close("\n".join(want), text)


def compare(case: dict, result: tuple, exact: bool) -> list:
    """The ways a replayed result differs from its case, none when it matches.

    ``exact`` (the recorded Python and numpy versions are the running ones)
    compares every byte. Otherwise a number may move by :data:`NUMBER_TOL`,
    relative above 1, and argparse's own text (help and usage errors) need
    only start with ``usage: spintomo``, since its wording changes between
    Python versions.
    """
    code, out, err = result
    problems = [] if code == case["exit"] else [f"exit code {code}, expected {case['exit']}"]
    for name, text in (("stdout", out), ("stderr", err)):
        want = case[name]
        if exact:
            same = want == _text(text)
        elif case["parser"] and isinstance(want, list) and want[0].startswith("usage: "):
            same = text.startswith("usage: spintomo")
        else:
            same = _close(want, text)
        if not same:
            problems.append(f"{name} differs")
    return problems


def main() -> None:
    import tempfile
    lines = read_argvs()
    with tempfile.TemporaryDirectory() as directory:
        prepare(Path(directory))
        corpus = record(lines, run_all(lines, Path(directory)))
    EXPECTED.write_text(render(corpus), encoding="utf-8")
    print(f"{EXPECTED}: {len(lines)} cases, Python {corpus['python']}, numpy {corpus['numpy']}")


if __name__ == "__main__":
    main()
