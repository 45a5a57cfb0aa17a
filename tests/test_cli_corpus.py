"""Replay of the checked-in CLI corpus (tests/cli_corpus): every invocation
gives its recorded exit code, stdout and stderr. Bytes are compared when
the recorded Python and numpy versions are the running ones; otherwise
numbers may move by 1e-12 (see :func:`cli_corpus.generate.compare`)."""

import json

import pytest

from cli_corpus import generate as corpus

LINES = corpus.read_argvs()
RECORDED = json.loads(corpus.EXPECTED.read_text(encoding="utf-8"))
EXACT = {key: RECORDED[key] for key in ("python", "numpy")} == corpus.versions()


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_corpus")
    corpus.prepare(directory)
    return corpus.run_all(LINES, directory)


def test_the_corpus_holds_every_line():
    assert [case["argv"] for case in RECORDED["cases"]] == LINES


@pytest.mark.parametrize("index", range(len(LINES)), ids=LINES)
def test_replay(replayed, index):
    assert corpus.compare(RECORDED["cases"][index], replayed[index], EXACT) == []


def test_the_generator_reproduces_the_corpus(replayed):
    if not EXACT:
        pytest.skip("recorded under another Python or numpy version")
    assert corpus.render(corpus.record(LINES, replayed)) == corpus.EXPECTED.read_text(
        encoding="utf-8")


def test_other_versions_allow_roundoff_only():
    case = {"exit": 0, "parser": False, "stdout": ['{"value": 0.375}', ""], "stderr": [""]}
    roundoff = (0, '{"value": 0.37500000000000006}\n', "")
    assert corpus.compare(case, roundoff, exact=False) == []
    assert corpus.compare(case, roundoff, exact=True) == ["stdout differs"]
    assert corpus.compare(case, (0, '{"value": 0.3751}\n', ""), exact=False) == ["stdout differs"]
    assert corpus.compare(case, (0, '{"valve": 0.375}\n', ""), exact=False) == ["stdout differs"]
    assert corpus.compare(case, (1, '{"value": 0.375}\n', ""), exact=False) == [
        "exit code 1, expected 0"]
