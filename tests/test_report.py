"""The analyze report: the streaming writer against the dict-and-json.dumps
report it replaced, the lexer property that lets it skip escaping, and the
memory it takes on a deep call chain."""

from __future__ import annotations

import io
import json
import random
import tracemalloc
from contextlib import redirect_stdout

import pytest
from hypothesis import given, strategies as st

from argprof import LexError, parse_program, run_analysis
from argprof.cli import main, write_report
from argprof.parse import tokenize
from helpers import (
    FIXTURES,
    chain_source,
    fixture_names,
    gen_program_source,
    one_call_chain_source,
    reference_report,
    wide_source,
)


def _sources(group: str) -> list[str]:
    if group == "fixtures":
        return [(FIXTURES / name).read_text() for name in fixture_names()]
    if group == "corpus":  # the test-07 corpus
        rng = random.Random(0xBEEF)
        return [gen_program_source(rng) for _ in range(200)]
    if group == "chain":
        return [chain_source(k) for k in range(1, 7)]
    if group == "wide":
        return [wide_source(random.Random(seed), 8 + seed, 40 + 40 * seed) for seed in range(5)]
    return [
        "% no predicates\n",
        ":- pred go().\ngo().\n",
        ":- pred go().\n:- pred app(in,in,out).\ngo() :- X <= nil, app(X,X,Z).\n"
        "app(X,Y,Z) :- X => nil, Z := Y.\n",
    ]


def _analyze_stdout(source: str, as_json: bool, monkeypatch) -> str:
    monkeypatch.setattr("sys.stdin", io.StringIO(source))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["analyze", "-"] + (["--json"] if as_json else [])) == 0
    return out.getvalue()


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
@pytest.mark.parametrize("group", ["fixtures", "corpus", "chain", "wide", "edge"])
def test_report_matches_reference_report(group, as_json, monkeypatch):
    for source in _sources(group):
        expected = reference_report(parse_program(source), as_json)
        assert _analyze_stdout(source, as_json, monkeypatch) == expected


def test_report_of_an_arity_0_predicate_has_empty_lists(monkeypatch):
    report = json.loads(_analyze_stdout(_sources("edge")[1], True, monkeypatch))
    (entry,) = report["predicates"]
    assert entry["modes"] == [] and entry["permutation"] == []
    assert entry["profile"] == [] and entry["ordered"] == []


def _lexable_tokens(text: str):
    """The token texts of ``text``, or of its prefix before the first
    character the lexer rejects."""
    try:
        return tokenize(text).texts
    except LexError as exc:
        lines = text.split("\n")
        offset = sum(len(line) + 1 for line in lines[: exc.line - 1]) + exc.col - 1
        return tokenize(text[:offset]).texts


@given(st.text(st.one_of(st.sampled_from("az_AZ09 (),.%\n"), st.characters())))
def test_lexer_names_need_no_json_escaping(text):
    for token in _lexable_tokens(text):
        if token[:1].islower() or token[:1].isdigit():  # a name or an integer
            assert json.dumps(token)[1:-1] == token


class _Discard:
    def writelines(self, parts) -> None:
        for _ in parts:
            pass

    def write(self, text: str) -> None:
        pass

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_report_of_a_deep_one_call_chain_stays_small(as_json):
    # The longest op is about 3.0 M characters; joining the report, as the
    # dict-and-json.dumps writer did, peaked near 49 MiB.
    program = parse_program(one_call_chain_source(18))
    env, trace = run_analysis(program)
    tracemalloc.start()
    try:
        write_report(_Discard(), program, env, trace, as_json)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_distinct_reason_of_a_deep_one_call_chain_stays_small(tmp_path):
    # The reason, the differing profiles of p17 and p18, is 9.0 M
    # characters, nearly all of them in psi strings kept on their ops
    # (about 8.7 MiB). Joining it into one string to print it peaked at
    # 23 MiB.
    path = tmp_path / "chain.lp"
    path.write_text(one_call_chain_source(18))
    tracemalloc.start()
    try:
        with redirect_stdout(_Discard()):
            assert main(["compare", str(path), "p17", "p18"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20
