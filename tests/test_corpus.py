"""Corpus ingestion, grouping, and the stratified split."""

import inspect
import io
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupnb import corpus
from groupnb.corpus import (
    GroupedCorpus,
    GroupingConfig,
    Label,
    OpcodeHistogram,
    SampleRecord,
    assign_group,
    parse_corpus,
    partition_by_group,
    serialize_sample,
    split_train_test,
    tokenize_disassembly,
    trainable_groups,
)
from groupnb.errors import (
    GroupNBError,
    IntegrityError,
    InvalidConfigError,
    ParseError,
    SizeRangeError,
)
from groupnb.engine import train_bundle
from groupnb.synth import SyntheticSpec, generate_synthetic

from helpers import grouped, make_sample, two_class_group


def _mutated_lines() -> list[str]:
    """Corpus lines with every field and count replaced by values of every JSON type, or deleted."""
    doc = {"id": "a", "label": "malware", "size_bytes": 4000, "opcodes": {"mov": 3, "add": 1}}
    replacements = [None, True, False, "", "x", "MOV", [], [1], [[1]], {}, {"mov": 1},
                    {"mov": [1]}, {"": 1}, {"MOV": True}, 1.5, -1, 0, 2**64, 10**400, 1e308,
                    float("nan"), float("inf")]
    huge = "9" * 5000  # past the int-to-str digit limit
    lines = ["[]", "[[1]]", "null", '"a"', "1e999", huge,
             '{"id": "a", "label": "benign", "size_bytes": %s, "opcodes": {}}' % huge]
    paths = [(key,) for key in doc] + [("opcodes", op) for op in doc["opcodes"]]
    for path in paths:
        for value in replacements + [KeyError]:
            mutated = json.loads(json.dumps(doc))
            parent = mutated if len(path) == 1 else mutated["opcodes"]
            if value is KeyError:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            lines.append(json.dumps(mutated))
    return lines


def _outcome(parse, lines, allow_unlabeled=False):
    """Records with their entries in order, or the error's type, text and line."""
    try:
        records = parse(lines, allow_unlabeled=allow_unlabeled)
    except GroupNBError as exc:
        return "error", type(exc), str(exc), getattr(exc, "line_no", None)
    return "ok", records, [list(r.histogram.entries.items()) for r in records]


def _oracle_parse(stream, allow_unlabeled=False):
    """parse_corpus as one json.loads and one OpcodeHistogram.from_counts call per line."""
    if isinstance(stream, str):
        stream = stream.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    records, seen = [], set()
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"invalid JSON: {exc.msg}") from None
        except RecursionError:
            raise ParseError(line_no, "invalid JSON: nested too deeply") from None
        except ValueError as exc:  # an integer past the int-to-str digit limit
            raise ParseError(line_no, f"invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ParseError(line_no, "record must be a JSON object")
        rid = obj.get("id")
        if not isinstance(rid, str) or not rid:
            raise ParseError(line_no, "missing or empty 'id'")
        if rid in seen:
            raise IntegrityError(f"duplicate id {rid!r} at line {line_no}")
        labels = {"malware": Label.MALWARE, "benign": Label.BENIGN}
        if "label" not in obj and allow_unlabeled:
            label = Label.UNKNOWN
        elif "label" not in obj:
            raise ParseError(line_no, "missing 'label'")
        elif isinstance(obj["label"], str) and obj["label"] in labels:
            label = labels[obj["label"]]
        else:
            raise ParseError(line_no, f"unknown label {obj['label']!r}")
        size = obj.get("size_bytes")
        if type(size) is not int or size < 0:
            raise ParseError(line_no, "'size_bytes' must be a non-negative integer")
        if not isinstance(obj.get("opcodes"), dict):
            raise ParseError(line_no, "'opcodes' must be an object")
        try:
            histogram = OpcodeHistogram.from_counts(obj["opcodes"])
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        seen.add(rid)
        records.append(SampleRecord(rid, label, size, histogram))
    return records


def _oracle_fold(counts):
    """OpcodeHistogram.from_counts' entries, one entry at a time: check, fold case, merge, drop zeros."""
    entries = {}
    for mnemonic, count in counts.items():
        if type(mnemonic) is not str or mnemonic == "":
            raise ValueError(f"opcode mnemonic must be a non-empty string, got {mnemonic!r}")
        if type(count) is not int or count < 0:
            raise ValueError(f"count for {mnemonic!r} must be a non-negative integer, got {count!r}")
        if count > 0:
            key = mnemonic.lower()
            if key == mnemonic:
                key = mnemonic
            entries[key] = entries.get(key, 0) + count
    for key in entries:
        if entries[key] >= 2**1024 - 2**970:  # the least int that float() rounds past the largest
            raise ValueError(f"count for {key!r} is too large to convert to float")
    return entries


def _spy_from_counts(monkeypatch):
    """The counts of every OpcodeHistogram.from_counts call from here on, in call order."""
    calls = []
    build = OpcodeHistogram.from_counts
    monkeypatch.setattr(OpcodeHistogram, "from_counts",
                        classmethod(lambda cls, counts: calls.append(counts) or build(counts)))
    return calls


def _line(sid, opcodes):
    return json.dumps({"id": sid, "label": "malware", "size_bytes": 10, "opcodes": opcodes})


def _block_spy():
    """A stand-in for _decode_block, and the list where it notes whether each block decoded as one."""
    joint = []
    decode_block = corpus._decode_block

    def spy(lines):
        docs = decode_block(lines)
        joint.append(docs is not None)
        return docs

    return spy, joint


def _strings_per_name(records):
    """Each mnemonic of the histograms -> how many distinct key objects stand for it."""
    ids: dict[str, set[int]] = {}
    for record in records:
        for key in record.histogram.entries:
            ids.setdefault(key, set()).add(id(key))
    return {name: len(objects) for name, objects in ids.items()}


class TestOpcodeHistogram:
    def test_canonical_form(self):
        h = OpcodeHistogram.from_counts({"MOV": 2, "mov": 1, "jmp": 4, "add": 0})
        assert h.entries == {"mov": 3, "jmp": 4}
        assert sum(h.entries.values()) == 7
        assert h.entries.get("mov") == 3
        assert h.entries.get("absent", 0) == 0

    @pytest.mark.parametrize("bad", [{"": 1}, {3: 1}, {"mov": -1}, {"mov": True}, {"mov": 1.5}])
    def test_rejects_malformed_entries(self, bad):
        with pytest.raises(ValueError):
            OpcodeHistogram.from_counts(bad)

    @staticmethod
    def _outcome(build, counts):
        try:
            entries = build(counts)
        except ValueError as exc:
            return "error", str(exc)
        return "ok", list(entries.items())

    @pytest.mark.parametrize(
        "counts",
        [
            {},
            {"mov": 3, "jmp": 1},
            {"MOV": 2, "mov": 1},
            {"mov": 1, "Jmp": 2, "jmp": 0},
            {"mov": 0, "jmp": 0},
            {"mov": 1, "jmp": True},
            {"mov": False},
            {"mov": 1, "jmp": 2.0},
            {"mov": 1, "jmp": -3},
            {"mov": 1, "": 2},
            {"mov": 1, 7: 2},
            {"mov": 1, None: 2},
            {"mov": None},
            {"mov": "3"},
            {"İ": 1},
            {"i̇": 1, "İ": 2},
            {"Σ": 1, "σ": 1},
            {"aΣ": 1, "aς": 2},
            {"σ": 1, "ς": 2},
            {"mov": 2**1024},
            {"mov": 2**1023, "MOV": 2**1023},
            {"mov": 2**1023, "jmp": 2**1023},
            {"mov": 2**1024, "jmp": -1},
            {"mo\0v": 1, "M\0OV": 2},
        ],
    )
    def test_bulk_path_matches_the_loop(self, counts):
        """Identical entries (order included) or identical exception text."""
        build = lambda c: OpcodeHistogram.from_counts(c).entries  # noqa: E731
        assert self._outcome(build, counts) == self._outcome(_oracle_fold, counts)

    def test_bulk_path_matches_the_loop_on_random_mutations(self):
        rng = np.random.default_rng(5)
        pool = ["mov", "MOV", "jmp", "Jmp", "add", "xor", "İ", "Σ", "ς", "", 3]
        odd_counts = [0, -1, True, False, 1.0, 2**1023, 2**1024, None]
        for _ in range(400):
            counts = {}
            for _ in range(int(rng.integers(0, 6))):
                key = pool[int(rng.integers(len(pool)))]
                if rng.random() < 0.2:
                    value = odd_counts[int(rng.integers(len(odd_counts)))]
                else:
                    value = int(rng.integers(1, 2**40))
                counts[key] = value
            build = lambda c: OpcodeHistogram.from_counts(c).entries  # noqa: E731
            assert self._outcome(build, counts) == self._outcome(_oracle_fold, counts), counts

    def test_a_lowercase_mnemonic_keeps_the_callers_string(self):
        mov = "mov"
        entries = OpcodeHistogram.from_counts({mov: 1, "ADD": 2}).entries
        assert entries == {"mov": 1, "add": 2}
        assert [*entries][0] is mov

    def test_count_too_large_for_a_float_is_rejected(self):
        with pytest.raises(ValueError, match="'mov' is too large"):
            OpcodeHistogram.from_counts({"MOV": 2**1023, "mov": 2**1023})
        assert OpcodeHistogram.from_counts({"mov": 2**1023}).entries == {"mov": 2**1023}


class TestParseCorpus:
    def test_maps_fields_directly(self):
        line = '{"id":"a","label":"malware","size_bytes":4000,"opcodes":{"mov":3}}'
        (record,) = parse_corpus(line)
        assert record.id == "a"
        assert record.label is Label.MALWARE
        assert record.size_bytes == 4000
        assert record.histogram.entries == {"mov": 3}

    def test_empty_input(self):
        assert parse_corpus("") == []
        assert parse_corpus([]) == []

    def test_duplicate_id_names_the_offender(self):
        lines = [
            '{"id":"a","label":"malware","size_bytes":1,"opcodes":{"x":1}}',
            '{"id":"a","label":"benign","size_bytes":2,"opcodes":{"y":1}}',
        ]
        with pytest.raises(IntegrityError, match="'a'"):
            parse_corpus(lines)

    def test_blank_lines_and_unknown_keys_ignored(self):
        text = (
            "\n"
            '{"id":"a","label":"benign","size_bytes":7,"opcodes":{"mov":1},"notes":"x"}\n'
            "   \n"
        )
        (record,) = parse_corpus(text)
        assert record.id == "a"

    def test_malformed_json_carries_line_number(self):
        lines = ['{"id":"a","label":"benign","size_bytes":7,"opcodes":{}}', "{nope"]
        with pytest.raises(ParseError) as err:
            parse_corpus(lines)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("opener", ["[", "{\"a\": "])
    def test_nesting_past_the_recursion_limit_is_a_parse_error(self, opener):
        lines = ['{"id":"a","label":"benign","size_bytes":7,"opcodes":{}}', opener * 100_000]
        with pytest.raises(ParseError, match="^line 2: invalid JSON: nested too deeply$"):
            parse_corpus(lines)

    @pytest.mark.parametrize(
        "line",
        [
            '{"label":"benign","size_bytes":7,"opcodes":{}}',
            '{"id":"","label":"benign","size_bytes":7,"opcodes":{}}',
            '{"id":"a","label":"spyware","size_bytes":7,"opcodes":{}}',
            '{"id":"a","label":"benign","size_bytes":-1,"opcodes":{}}',
            '{"id":"a","label":"benign","size_bytes":1.5,"opcodes":{}}',
            '{"id":"a","label":"benign","size_bytes":7,"opcodes":[]}',
            '{"id":"a","label":"benign","size_bytes":7,"opcodes":{"mov":-2}}',
            '["id","a"]',
        ],
    )
    def test_rejects_malformed_records(self, line):
        with pytest.raises(ParseError):
            parse_corpus(line)

    @pytest.mark.parametrize(
        "opcodes",
        ['{"mov": %d}' % 2**1024, '{"mov": 1%s}' % ("0" * 400), '{"mov": %s}' % ("9" * 5000)],
    )
    def test_count_beyond_float_range_is_a_parse_error(self, opcodes):
        lines = [
            '{"id":"a","size_bytes":7,"opcodes":{"mov":1}}',
            '{"id":"b","size_bytes":7,"opcodes":%s}' % opcodes,
        ]
        with pytest.raises(ParseError) as err:
            parse_corpus(lines, allow_unlabeled=True)
        assert err.value.line_no == 2

    def test_only_package_errors_escape(self):
        """Every field and count replaced by values of every JSON type, or deleted."""
        for line in _mutated_lines():
            for allow_unlabeled in (False, True):
                try:
                    parse_corpus(line, allow_unlabeled=allow_unlabeled)
                except GroupNBError:
                    pass

    @pytest.mark.parametrize("line, kind", [
        (None, "NoneType"), (5, "int"), (_line("b", {"mov": 1}).encode(), "bytes"),
    ])
    def test_a_line_that_is_not_text_is_a_parse_error(self, line, kind):
        """At its line, after the errors of the lines before it."""
        with pytest.raises(ParseError, match=f"^line 2: line is not text, got {kind}$"):
            parse_corpus([_line("a", {"mov": 1}), line])
        with pytest.raises(ParseError, match="^line 1: invalid JSON: "):
            parse_corpus(["{nope", line])

    @pytest.mark.parametrize("block_chars", [1, 1 << 20], ids=["block_per_line", "one_block"])
    @pytest.mark.parametrize("char, reason", [
        ("\udcff", "byte 0xff is not valid UTF-8"),
        ("\udc80", "byte 0x80 is not valid UTF-8"),
        ("\udc7f", "lone surrogate U+DC7F is not valid UTF-8"),
        ("\ud800", "lone surrogate U+D800 is not valid UTF-8"),
    ], ids=["stand_in_ff", "stand_in_80", "below_stand_ins", "high"])
    def test_a_line_holding_a_lone_surrogate_is_a_parse_error(self, tmp_path, monkeypatch,
                                                              block_chars, char, reason):
        """In a str, a list or a file read with surrogateescape; after an earlier line's error.

        A surrogate that stands in for a byte names that byte, as the CLI's
        text for a file that is not UTF-8 does.
        """
        monkeypatch.setattr(corpus, "_BLOCK_CHARS", block_chars)

        def error_of(stream):
            with pytest.raises(ParseError) as err:
                parse_corpus(stream)
            return str(err.value)

        unlabeled = '{"id": "u", "size_bytes": 1, "opcodes": {}}'
        for middle, error in (("", f"line 3: {reason}"), (unlabeled, "line 2: missing 'label'")):
            lines = [_line("a", {"mov": 1}), middle, _line("b", {"mov": 1}).replace('"b"', f'"b{char}"')]
            text = "".join(line + "\n" for line in lines)
            assert error_of(text) == error
            assert error_of([line + "\n" for line in lines]) == error
            if 0xDC80 <= ord(char) <= 0xDCFF:  # a stand-in: the file holds the byte it stands for
                path = tmp_path / "corpus.jsonl"
                path.write_bytes(text.encode("utf-8", "surrogateescape"))
                with open(path, encoding="utf-8", errors="surrogateescape") as fp:
                    assert error_of(fp) == error

    def test_unlabeled_records_gated_by_flag(self):
        line = '{"id":"a","size_bytes":7,"opcodes":{"mov":1}}'
        with pytest.raises(ParseError, match="label"):
            parse_corpus(line)
        (record,) = parse_corpus(line, allow_unlabeled=True)
        assert record.label is Label.UNKNOWN

    def test_round_trip_random_records(self):
        rng = np.random.default_rng(11)
        pool = ["mov", "jmp", "add", "xor", "call", "ret", "push", "pop"]
        for case in range(30):
            samples = []
            for i in range(int(rng.integers(1, 8))):
                ops = {
                    op: int(rng.integers(1, 50))
                    for op in rng.choice(pool, size=int(rng.integers(1, 5)), replace=False)
                }
                label = Label.MALWARE if rng.integers(2) else Label.BENIGN
                samples.append(make_sample(f"s{case}-{i}", label, int(rng.integers(0, 512000)), ops))
            text = "\n".join(serialize_sample(s) for s in samples)
            assert parse_corpus(text) == samples


class TestSharedNames:
    """parse_corpus keys every histogram of one call by one string per mnemonic."""

    @staticmethod
    def _assert_same(corpora):
        for lines in corpora:
            for allow in (False, True):
                got = _outcome(parse_corpus, lines, allow)
                assert got == _outcome(_oracle_parse, lines, allow), lines

    def test_one_string_per_distinct_mnemonic(self):
        samples = generate_synthetic(SyntheticSpec(6, 8, 40, 0.5, 3))
        records = parse_corpus("\n".join(map(serialize_sample, samples)))
        assert records == samples
        keys = [key for r in records for key in r.histogram.entries]
        assert len(keys) > 10 * len({*keys})  # names repeat across samples
        assert len({*map(id, keys)}) == len({*keys})

    def test_folded_names_use_the_shared_strings(self):
        records = parse_corpus([_line("a", {"mov": 1, "add": 2}), _line("b", {"MOV": 3, "Add": 1}),
                                _line("c", {"Mov": 1, "mov": 2, "xor": 1}),
                                _line("d", {"xor": 4, "ADD": 0})])
        assert [r.histogram.entries for r in records] == [
            {"mov": 1, "add": 2}, {"mov": 3, "add": 1}, {"mov": 3, "xor": 1}, {"xor": 4}]
        keys = [key for r in records for key in r.histogram.entries]
        assert len({*map(id, keys)}) == len({*keys}) == 3

    def test_mutations_match_one_from_counts_per_line(self):
        """Each mutated line alone, and after a clean line that makes its names known."""
        clean = _line("c", {"mov": 5, "add": 6})
        corpora = [[line] for line in _mutated_lines()]
        corpora += [[clean, line] for line in _mutated_lines()]
        self._assert_same(corpora)

    @pytest.mark.parametrize("corpus_lines", [
        [_line("a", {"mov": 1}), _line("b", {"MOV": 2}), _line("c", {"mOv": 1, "mov": 1})],
        [_line("a", {"mov": 1, "add": 1}), _line("b", {"add": 2, "Mov": 2, "xor": 1})],
        [_line("a", {"mov": 1, "add": 1}), _line("b", {"mov": 0, "add": 3}),
         _line("c", {"mov": 0}), _line("d", {"xor": 0, "jmp": 2}), _line("e", {"sub": 0})],
        [_line("a", {"mov": 1, "add": 1}), _line("b", {"mov": 2, "add": -1})],
        [_line("a", {"mov": 1, "add": 1}), _line("b", {"mov": 2, "add": 1.5})],
        [_line("a", {"mov": 1, "add": 1}), _line("b", {"mov": True, "add": 1})],
        [_line("a", {"mov": 1, "add": 1}), _line("b", {"mov": None})],
        [_line("a", {"mov": 1, "add": 1}), _line("b", {"mov": 2**1023, "add": 2**1023})],
        [_line("a", {"mov": 1, "add": 1}), _line("b", {"mov": 10**400})],
        [_line("a", {"mov": 1, "add": 1}), _line("b", {"mov": 1, "xor": -1})],
        [_line("a", {"mov": 1}), _line("b", {"add": 1}), _line("c", {"mov": 2}),
         _line("d", {"mov": 1, "": 1})],
        [_line("a", {"mov": 1}), _line("b", {"add": 1}), _line("c", {"": 1, "mov": 2})],
        [_line("a", {"mov": 1}), _line("b", {}), _line("c", {"mov": 1}), _line("d", {})],
        [_line("a", {}), _line("b", {"mov": 1})],
        [_line("a", {"mov": 1, "add": 1}), _line("b", {"mov": 2, "xor": 1}), _line("c", {"xor": 3})],
    ], ids=["case_after_lowercase", "mixed_case_and_new", "zero_counts", "negative_known",
            "float_known", "bool_known", "null_known", "sum_past_float_known", "huge_known",
            "bad_count_new", "empty_name_line_4", "empty_name_first", "empty_opcodes",
            "empty_opcodes_first", "new_name_later"])
    def test_ordered_cases_match_one_from_counts_per_line(self, corpus_lines):
        got = _outcome(parse_corpus, corpus_lines)
        if got[0] == "ok":  # one key object per distinct mnemonic
            keys = [key for r in got[1] for key in r.histogram.entries]
            assert len({*map(id, keys)}) == len({*keys})
        self._assert_same([corpus_lines])

    def test_each_call_starts_a_new_table(self):
        first = parse_corpus(_line("a", {"mov": 1}))
        second = parse_corpus(_line("a", {"mov": 1}))
        assert [*first[0].histogram.entries][0] is not [*second[0].histogram.entries][0]


# Flaws a record line may carry: (field, raw JSON value), the value None
# deleting the field; ("opcodes", name, count) adds an opcode entry.
# Case variants of a name are not flaws: they fold.
_HUGE = "9" * 5000  # past the int-to-str digit limit
_FLAWS = [("id", '""'), ("id", "7"), ("id", None), ("label", '"spyware"'), ("label", "null"),
          ("label", None), ("size_bytes", "-1"), ("size_bytes", "1.5"), ("size_bytes", "true"),
          ("size_bytes", None), ("opcodes", "null"), ("opcodes", None), ("x", "NaN")]
_FLAWS += [("opcodes", name, "1") for name in ('"MOV"', '"Add"', '""')]
_FLAWS += [("opcodes", '"mov"', count) for count in (
    "0", "-2", "1.5", "1e2", "true", "null", "NaN", "-Infinity", '"3"', "{}", str(2**1024))]
# Rough flaws also stop a block from being decoded as one: "[", a
# character JSON does not allow around a document, or a huge integer.
# The bracket flaws leave the record valid.
_BRACKETS = [("id", '"f[1]"'), ("x", "[1, 2]"), ("x", '"["')]
_ROUGH_FLAWS = _BRACKETS + [("size_bytes", _HUGE), ("opcodes", '"mov"', _HUGE), ("opcodes", "[]"),
                            ("lead", "\ufeff"), ("lead", "\x0c"), ("lead", "\xa0"), ("trail", "\x0c")]
_RAW_LINES = ["", "   ", "{}"]
_ROUGH_LINES = ["\x0c", "[]", "[1]", '"a"', "null", "1e999", "{nope", "{", "}", '{"a":' * 2000]
# Runs of lines whose joined text decodes to the same count of other
# documents: a line of two documents, then a pair that merges into one
# (the comma lands in a nested object, or in a nested array).
_OPEN = '{"id":"q","label":"benign","size_bytes":1,"opcodes":{"mov":1},"x":'
_MERGE_RUNS = st.sampled_from([
    ['{"id":"y"},{"id":"z"}', _OPEN + '{"a":1', '"b":2}}'],
    ['{"id":"y"},{"id":"z"}', _OPEN + "[1", '{"b":2}]}'],
    [_OPEN + '{"a":1', '  {"b":2}}', '{"id":"y"} , {"id":"z"}'],
    [_OPEN + "[1", '"b"]}', '{"id":"y"},{"id":"z"}'],
])


@st.composite
def _record_line(draw, flaws):
    """A record line, often valid; it may carry one flaw, case variants and JSON whitespace."""
    names = st.sampled_from(['"mov"', '"add"', '"xor"', '"jmp"', '"MOV"'])
    ops = draw(st.lists(st.tuples(names, st.sampled_from(["1", "7", "0", str(2**1023)])),
                        max_size=5))
    fields = {"lead": draw(st.sampled_from(["", " ", "\t"])),
              "id": draw(st.sampled_from([f'"{c}"' for c in "abcdefghijklmnopqrstuvwxyz"])),
              "label": draw(st.sampled_from(['"malware"', '"benign"'])),
              "size_bytes": draw(st.sampled_from(["10", "0", "4000"])),
              "trail": draw(st.sampled_from(["", " "]))}
    flaw = draw(st.sampled_from([None] * 3 + flaws))
    if flaw and len(flaw) == 3:
        ops.append(flaw[1:])
    elif flaw:
        fields[flaw[0]] = flaw[1]
    fields.setdefault("opcodes", "{%s}" % ",".join(map(":".join, ops)))
    lead, trail = fields.pop("lead"), fields.pop("trail")
    items = draw(st.permutations([f'"{key}":{value}' for key, value in fields.items()
                                  if value is not None]))
    return lead + "{" + ("," + draw(st.sampled_from(["", " ", "\t"]))).join(items) + "}" + trail


@st.composite
def _corpus_input(draw, modes=("flawed", "rough")):
    """(stream, block bound) with the bound near the size of a prefix of the lines.

    A clean input holds valid records and blank lines, so its blocks are
    decoded as one; a bracketed one adds bracket flaws, so some blocks are
    decoded line by line. A flawed one adds record-level flaws, a "{}"
    line and merge runs; a rough one adds rough flaws and lines too.
    """
    mode = draw(st.sampled_from(modes))
    flaws = {"clean": [], "bracketed": _BRACKETS, "flawed": _FLAWS,
             "rough": _FLAWS + _ROUGH_FLAWS}[mode]
    raw = {"clean": _RAW_LINES[:2], "bracketed": _RAW_LINES[:2], "flawed": _RAW_LINES,
           "rough": _RAW_LINES + _ROUGH_LINES}[mode]
    runs = [_record_line(flaws).map(lambda line: [line])] * 4
    runs.append(st.sampled_from(raw).map(lambda line: [line]))
    if mode in ("flawed", "rough"):
        runs += [_MERGE_RUNS] * 2
    lines = [line for run in draw(st.lists(st.one_of(runs), max_size=10)) for line in run]
    if draw(st.booleans()):  # every id unique, so no line is a duplicate
        lines = [line.replace('"id":"', f'"id":"{i}-', 1) for i, line in enumerate(lines)]
    cut = draw(st.integers(0, len(lines)))
    bound = sum(len(line) for line in lines[:cut] if line.strip()) + draw(st.integers(-1, 1))
    ending = draw(st.sampled_from(["list", "\n", "\r\n", "\r"]))
    stream = lines if ending == "list" else ending.join(lines) + draw(st.sampled_from(["", ending]))
    return stream, max(1, bound)


class TestBlockDecode:
    """Blocks of lines decoded by one json.loads call give the records of one call per line."""

    @staticmethod
    def _padded(sid, chars):
        """A labeled record line of exactly ``chars`` characters."""
        line = _line(sid, {"mov": 1, "add": 2})[:-1] + ', "pad": ""}'
        assert chars >= len(line)
        return line[:-2] + "x" * (chars - len(line)) + '"}'

    def test_kept_dicts_and_one_key_string_per_mnemonic(self, monkeypatch):
        decoded = []

        def spy(text):
            decoded.append(json.loads(text))
            return decoded[-1]

        monkeypatch.setattr(corpus, "_decode_json", spy)
        lines = [_line("a", {"mov": 1, "add": 2, "xor": 3})]
        lines += [_line(f"s{i}", {"mov": i + 1, "xor": 2}) for i in range(20)]
        records = parse_corpus(lines)
        (docs,) = decoded  # one call for the whole block
        assert all(r.histogram.entries is doc["opcodes"] for r, doc in zip(records[1:], docs[1:]))
        keys = [key for r in records for key in r.histogram.entries]
        assert len({*map(id, keys)}) == len({*keys}) == 3
        assert records == _oracle_parse(lines)

    def test_lines_decoded_alone_are_kept_on_the_readers_strings(self, monkeypatch):
        """One line holding "[" sends its block line by line; those dicts are kept, not rebuilt."""
        decoded = []
        monkeypatch.setattr(corpus, "_decode_json", lambda text, hook=None: decoded.append(text)
                            or json.loads(text, object_pairs_hook=hook))
        lines = [_line(f"s{i}", {"mov": i + 1, "xor": 2}) for i in range(20)]
        lines.insert(10, _line("f[1]", {"mov": 1, "add": 2}))
        records = parse_corpus(lines)
        assert decoded == lines  # no joined block, one call per line
        keys = [key for r in records for key in r.histogram.entries]
        assert len({*map(id, keys)}) == len({*keys}) == 3
        assert records == _oracle_parse(lines)

    def test_every_block_line_by_line_keeps_each_dict_of_known_names(self, monkeypatch):
        """With a "[" line in every block, each line of known names keeps its decoded dict."""
        decoded = []

        def spy(text, hook=None):
            decoded.append(json.loads(text, object_pairs_hook=hook))
            return decoded[-1]

        monkeypatch.setattr(corpus, "_decode_json", spy)
        monkeypatch.setattr(corpus, "_BLOCK_CHARS", 3 * len(_line("s00", {"mov": 1, "xor": 2})))
        lines = [_line(f"s{i:02}" if i % 3 else f"[{i:02}", {"mov": i + 1, "xor": 2})
                 for i in range(12)]
        records = parse_corpus(lines)
        assert len(decoded) == len(lines)  # four blocks, each decoded line by line
        assert all(r.histogram.entries is doc["opcodes"] for r, doc in zip(records[1:], decoded[1:]))
        keys = [key for r in records for key in r.histogram.entries]
        assert len({*map(id, keys)}) == len({*keys}) == 2
        assert records == _oracle_parse(lines)

    def test_mixed_input_at_most_one_string_per_block_plus_one(self, monkeypatch):
        """Blocks decoded as one, then blocks line by line, with a folded line in each part."""
        spy, joint = _block_spy()
        monkeypatch.setattr(corpus, "_decode_block", spy)
        monkeypatch.setattr(corpus, "_BLOCK_CHARS", 3 * len(_line("s00", {"mov": 1, "add": 2})))
        ops = [{"mov": 1, "add": 2}, {"MOV": 2, "add": 1}, {"mov": 3, "add": 3}]
        lines = [_line(f"s{i:02}", ops[i % 3]) for i in range(6)]
        lines += [_line(f"[{i:02}" if i % 3 == 0 else f"s{i:02}", ops[i % 3]) for i in range(6, 12)]
        records = parse_corpus(lines)
        assert joint == [True, True, False, False]
        assert records == _oracle_parse(lines)
        strings = _strings_per_name(records)
        assert strings.keys() == {"mov", "add"}
        assert max(strings.values()) <= sum(joint) + 1

    @pytest.mark.parametrize("first", ["[x]", "x"], ids=["alone", "joint"])
    def test_a_folded_line_then_known_lines(self, monkeypatch, first):
        """Lines decoded alone share the call's one string; a joint block adds at most its own."""
        spy, joint = _block_spy()
        monkeypatch.setattr(corpus, "_decode_block", spy)
        lines = [_line(first, {"MOV": 1}), _line("b", {"mov": 2}), _line("c", {"mov": 3})]
        records = parse_corpus(lines)
        assert records == _oracle_parse(lines)
        assert joint == [first == "x"]
        assert _strings_per_name(records) == {"mov": sum(joint) + 1}

    @pytest.mark.parametrize("line", [
        '{"id": "[a]", "label": "benign", "size_bytes": 10, "opcodes": {"mov": 1, "add": 2, "mov": 3}}',
        '{"id": "[a]", "label": "spyware", "size_bytes": 10, "opcodes": {"mov": 1}, "label": "malware"}',
        '{"size_bytes": 7, "id": "[a]", "label": "benign", "opcodes": {"xor": 1}, "size_bytes": 9}',
        '{"id": "[a]", "label": "benign", "size_bytes": 10, "opcodes": {"mov": 1}, "opcodes": {"MOV": 0, "add": 4}}',
        '{"id": "[a]", "label": "benign", "size_bytes": 10, "opcodes": {"mov": 1, "mov": -1}}',
    ], ids=["opcode", "label", "size_bytes", "opcodes", "bad_last"])
    def test_repeated_keys_in_a_line_decoded_alone(self, line):
        """The last of a repeated key wins, at the first one's place, as in plain json.loads."""
        lines = [_line("known", {"mov": 1, "add": 1, "xor": 1}), line]
        assert _outcome(parse_corpus, lines) == _outcome(_oracle_parse, lines)

    def test_at_most_one_string_per_block_plus_the_calls(self, monkeypatch):
        """A folded line is re-keyed by the call's string; a kept line keeps its block's."""
        monkeypatch.setattr(corpus, "_BLOCK_CHARS", 3 * len(_line("s0", {"mov": 1})))
        lines = [_line(f"s{i}", {"MOV" if i % 4 == 0 else "mov": i + 1}) for i in range(12)]
        records = parse_corpus(lines)
        assert records == _oracle_parse(lines)
        keys = [key for r in records for key in r.histogram.entries]
        assert len({*map(id, keys)}) <= 4 + 1  # four blocks of three lines
        assert records[1].histogram.entries.keys() == {"mov"}
        (kept,) = records[1].histogram.entries
        assert [*records[2].histogram.entries][0] is kept  # one string in a block's kept lines

    @pytest.mark.parametrize("delta", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize("tail", [
        [_line("p0", {"mov": 1})],
        ['{"id":"q","label":"benign","size_bytes":1,"opcodes":{"mov":1},"x":{"a":1', '"b":2}}'],
        [_line("q", {"MOV": 2, "xor": 1}), "[]"],
    ], ids=["duplicate_id", "merge_pair", "folded_then_array"])
    def test_the_real_block_bound(self, monkeypatch, delta, tail):
        """The first block ends with the line that brings it to _BLOCK_CHARS characters."""
        blocks = []
        decode_block = corpus._decode_block
        monkeypatch.setattr(corpus, "_decode_block", lambda lines: blocks.append(len(lines))
                            or decode_block(lines))
        third = corpus._BLOCK_CHARS // 3
        lines = [self._padded("p0", third), "", self._padded("p1", third),
                 self._padded("p2", corpus._BLOCK_CHARS - 2 * third + delta)] + tail
        got = _outcome(parse_corpus, lines)
        assert got == _outcome(_oracle_parse, lines)
        assert blocks[0] == (3 if delta >= 0 else 4)

    @pytest.mark.parametrize("nested", ['{"a":1', "[1"], ids=["object", "array"])
    def test_a_split_line_and_a_merged_pair_are_decoded_alone(self, nested):
        """Joined, these three lines decode to three documents, but not to theirs."""
        lines = ['{"id":"y"},{"id":"z"}', _OPEN + nested, '"b":2}}' if nested == '{"a":1' else
                 '{"b":2}]}']
        with pytest.raises(ParseError, match="^line 1: invalid JSON: Extra data$"):
            parse_corpus(lines)

    def test_stream_error_waits_for_the_lines_before_it(self):
        def stream():
            yield _line("a", {"mov": 1})
            yield '{"id": "b", "size_bytes": 1, "opcodes": {}}'
            raise ParseError(3, "byte 0xff is not valid UTF-8")

        with pytest.raises(ParseError, match="^line 2: missing 'label'$"):
            parse_corpus(stream())
        with pytest.raises(ParseError, match="^line 3: byte 0xff"):
            parse_corpus(stream(), allow_unlabeled=True)


class TestBlockNames:
    """A jointly decoded block has its opcode names checked once, by their union."""

    @staticmethod
    def _spy_names(monkeypatch):
        """The name collections _canonical_names is asked about, in call order."""
        asked = []
        canonical = corpus._canonical_names
        monkeypatch.setattr(corpus, "_canonical_names",
                            lambda names: asked.append(set(names)) or canonical(names))
        return asked

    def test_a_proven_block_keeps_every_dict_and_tests_no_line(self, monkeypatch):
        decoded = []

        def spy(text):
            decoded.append(json.loads(text))
            return decoded[-1]

        monkeypatch.setattr(corpus, "_decode_json", spy)
        asked = self._spy_names(monkeypatch)
        lines = [_line(f"s{i}", {"mov": i + 1, "xor": 2} if i % 2 else {"add": 1}) for i in range(9)]
        records = parse_corpus(lines)
        (docs,) = decoded
        assert asked == [{"mov", "xor", "add"}]  # one union, no line of its own
        assert all(r.histogram.entries is doc["opcodes"] for r, doc in zip(records, docs))
        assert records == _oracle_parse(lines)
        assert max(_strings_per_name(records).values()) == 1

    @pytest.mark.parametrize("odd", [{"MOV": 2}, {"": 1}, {"Σ": 1}], ids=["upper", "empty", "sigma"])
    @pytest.mark.parametrize("at", [0, 3, 6])
    def test_a_block_that_fails_the_union_runs_the_per_line_rule(self, monkeypatch, odd, at):
        spy, joint = _block_spy()
        monkeypatch.setattr(corpus, "_decode_block", spy)
        lines = [_line(f"s{i}", {"mov": i + 1, "add": 2}) for i in range(7)]
        lines[at] = _line("odd", {"mov": 1, **odd})
        for allow in (False, True):
            got = _outcome(parse_corpus, lines, allow)
            assert got == _outcome(_oracle_parse, lines, allow)
            assert got[0] == ("error" if "" in odd else "ok")
            if got[0] == "ok":
                assert max(_strings_per_name(got[1]).values()) <= sum(joint) + 1
        assert all(joint)

    @pytest.mark.parametrize("flaw", [
        {"mov": -1}, {"mov": 1.5}, {"mov": True}, {"mov": 2**1024}, {"mov": 0, "add": None},
    ], ids=["negative", "float", "bool", "huge", "null"])
    def test_an_error_on_a_later_line_of_a_proven_block(self, monkeypatch, flaw):
        asked = self._spy_names(monkeypatch)
        lines = [_line(f"s{i}", {"mov": i + 1, "add": 2}) for i in range(6)]
        lines[4] = _line("bad", flaw)
        got = _outcome(parse_corpus, lines)
        assert got == _outcome(_oracle_parse, lines)
        assert got[0] == "error" and got[3] == 5
        assert len(asked) == 1

    @pytest.mark.parametrize("odd", [{"": 1}, {"MOV": 1}], ids=["empty", "upper"])
    def test_error_order_when_the_union_fails(self, odd):
        """An earlier bad line is still reported first, a later one after the odd line."""
        dup = _line("s0", {"mov": 1})
        for lines in ([_line("s0", {"mov": 1}), dup, _line("odd", odd)],
                      [_line("s0", {"mov": 1}), _line("odd", odd), dup],
                      [_line("s0", {"mov": 1}), _line("odd", odd), '{"id": "x", "opcodes": {}}']):
            for allow in (False, True):
                assert _outcome(parse_corpus, lines, allow) == _outcome(_oracle_parse, lines, allow)

    def test_block_names_join_the_table_for_later_lines(self, monkeypatch):
        """A block decoded line by line after a proven one keys by the proven block's strings."""
        monkeypatch.setattr(corpus, "_BLOCK_CHARS", 3 * len(_line("s00", {"mov": 1, "add": 2})))
        lines = [_line(f"s{i:02}", {"mov": i + 1, "add": 2}) for i in range(3)]
        lines += [_line(f"[{i:02}]", {"add": i + 1, "mov": 1}) for i in range(3, 6)]
        records = parse_corpus(lines)
        assert records == _oracle_parse(lines)
        assert _strings_per_name(records) == {"mov": 1, "add": 1}

    def test_prediction_blocks_check_an_empty_union(self):
        """Documents with no "opcodes" dict add no name, and their block passes."""
        names = {}
        lines = ['{"id": "a", "label": "benign"}\n', '{"id": "b", "error": "x"}\n']
        assert [known for *_, known in corpus._documents(lines, names)] == [True, True]
        assert names == {}


class TestParseProperty:
    """parse_corpus against one json.loads and one from_counts call per line, on generated JSONL."""

    @staticmethod
    def _check(case, allow_unlabeled):
        """Also, on success, at most one key string per mnemonic per joint block plus one."""
        stream, bound = case
        spy, joint = _block_spy()
        with mock.patch.object(corpus, "_BLOCK_CHARS", bound), \
                mock.patch.object(corpus, "_decode_block", spy):
            got = _outcome(parse_corpus, stream, allow_unlabeled)
        assert got == _outcome(_oracle_parse, stream, allow_unlabeled)
        if got[0] == "ok":
            assert max(_strings_per_name(got[1]).values(), default=0) <= sum(joint) + 1

    @settings(max_examples=150)
    @given(_corpus_input(("clean",)), st.booleans())
    def test_clean_blocks_decoded_as_one(self, case, allow_unlabeled):
        self._check(case, allow_unlabeled)

    @settings(max_examples=150)
    @given(_corpus_input(("bracketed",)), st.booleans())
    def test_valid_lines_some_decoded_alone(self, case, allow_unlabeled):
        self._check(case, allow_unlabeled)

    @settings(max_examples=250)
    @given(_corpus_input(), st.booleans())
    def test_flawed_and_rough_lines(self, case, allow_unlabeled):
        self._check(case, allow_unlabeled)


# Count flaws: the opcodes entries that a line adds, as raw JSON text.
_COUNT_FLAWS = {
    "true": '"mov": true', "false": '"mov": false', "float": '"mov": 1.5',
    "integral_float": '"mov": 2.0', "str": '"mov": "3"', "null": '"mov": null',
    "object": '"mov": {}', "array": '"mov": [1]', "negative": '"mov": -2', "zero": '"mov": 0',
    "huge": f'"mov": {2**1024}', "sum_past_float": f'"mov": {2**1023}, "add": {2**1023}',
    "huge_then_float": f'"mov": {2**1024}, "add": 1.5',
    "float_then_huge": f'"add": 1.5, "mov": {2**1024}',
    "float_then_str": '"add": 1.5, "mov": "3"',
    "false_only_zero": '"mov": false, "add": 0', "none": '"mov": 4',
}


class TestCountRule:
    """A line without "true" has its counts checked by one sum; the records stay those of from_counts."""

    @staticmethod
    def _flawed(flaw, true_at, sid="f"):
        sid = "true-" + sid if true_at == "id" else sid
        field = ', "x": true' if true_at == "field" else ""
        return ('{"id": "%s", "label": "benign", "size_bytes": 20, "opcodes": {"xor": 2, %s}%s}'
                % (sid, _COUNT_FLAWS[flaw], field))

    @pytest.mark.parametrize("first", [False, True], ids=["known_names", "new_names"])
    @pytest.mark.parametrize("joint", [True, False], ids=["joint", "alone"])
    @pytest.mark.parametrize("true_at", ["nowhere", "id", "field"])
    @pytest.mark.parametrize("flaw", sorted(_COUNT_FLAWS))
    def test_each_count_flaw_matches_one_from_counts_per_line(self, monkeypatch, flaw, true_at,
                                                             joint, first):
        spy, blocks = _block_spy()
        monkeypatch.setattr(corpus, "_decode_block", spy)
        clean = [_line("c0", {"mov": 1, "add": 2, "xor": 3}), _line("c1", {"mov": 5})]
        if not joint:
            clean.append(_line("[c2]", {"add": 1}))
        flawed = self._flawed(flaw, true_at)
        lines = [flawed, *clean] if first else [clean[0], flawed, *clean[1:]]
        got = _outcome(parse_corpus, lines)
        assert got == _outcome(_oracle_parse, lines)
        assert blocks == [joint and "[" not in flawed]
        assert got[0] == ("ok" if flaw in ("none", "zero", "sum_past_float") else "error")
        if got[0] == "error":
            assert got[3] == lines.index(flawed) + 1

    @pytest.mark.parametrize("true_at", ["nowhere", "id", "field"])
    def test_each_flaw_in_one_block_of_many_lines(self, true_at):
        """Every flaw on its own line of one block: the first bad line is the one reported."""
        for flaw in sorted(_COUNT_FLAWS):
            lines = [_line(f"c{i}", {"mov": i + 1}) for i in range(3)]
            lines.insert(2, self._flawed(flaw, true_at))
            lines.insert(1, self._flawed("none", true_at, sid="ok"))
            for allow in (False, True):
                assert _outcome(parse_corpus, lines, allow) == _outcome(_oracle_parse, lines, allow)

    _JSON_VALUES = st.one_of(
        st.integers(-3, 3), st.integers(2**1000, 2**1030), st.booleans(), st.none(),
        st.floats(allow_nan=True), st.text(max_size=2), st.just({}), st.just([1]))

    @settings(max_examples=400)
    @given(st.lists(_JSON_VALUES | st.integers(1, 2**60), max_size=6))
    def test_one_sum_is_the_per_count_rule_without_true(self, values):
        plain = all(type(v) is int for v in values) and min(values, default=1) > 0
        if plain:
            try:
                float(sum(values))
            except OverflowError:
                plain = False
        assert corpus._plain_counts(values, True) is plain
        if not any(v is True for v in values):
            assert corpus._plain_counts(values, False) is plain

    def test_from_counts_runs_only_for_lines_it_changes(self, monkeypatch):
        calls = _spy_from_counts(monkeypatch)
        samples = generate_synthetic(SyntheticSpec(6, 8, 40, 0.5, 3))
        lines = [*map(serialize_sample, samples)]
        assert parse_corpus(lines) == samples
        assert calls == []
        folded = [_line("m", {"MOV": 1}), _line("z", {"mov": 0, "add": 1}), _line("e", {"": 1}),
                  _line("s", {"Σ": 1})]
        lines[3:3], lines[10:10] = folded[:2], folded[2:3]
        with pytest.raises(ParseError, match="^line 11: opcode mnemonic must be a non-empty"):
            parse_corpus(lines)
        assert len(calls) == 3
        calls.clear()
        lines[10] = folded[3]
        got = _outcome(parse_corpus, lines)
        assert len(calls) == 3
        assert got == _outcome(_oracle_parse, lines)

    @pytest.mark.parametrize("names", [["é", "ς"], ["mo\\u0000v", "jmp"], ["a", "b", "c"]],
                             ids=["non_ascii", "nul", "ascii"])
    def test_new_canonical_names_join_the_table_unfolded(self, monkeypatch, names):
        calls = _spy_from_counts(monkeypatch)
        lines = ['{"id": "%s", "label": "malware", "size_bytes": 1, "opcodes": {%s}}'
                 % (i, ", ".join(f'"{n}": {i + j + 1}' for j, n in enumerate(names)))
                 for i in range(3)]
        records = parse_corpus(lines)
        assert calls == []
        assert records == _oracle_parse(lines)
        assert max(_strings_per_name(records).values()) == 1


class TestLineBreaks:
    """A text corpus breaks at universal newlines only, as a file read in text mode does."""

    @staticmethod
    def _from_file(tmp_path, text, reader):
        path = tmp_path / "corpus.jsonl"
        with open(path, "w", encoding="utf-8", newline="") as fp:
            fp.write(text)
        with open(path, encoding="utf-8") as fp:
            return reader(fp)

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c",
                                      "\x1d", "\x1e"])
    def test_other_line_breaks_stay_inside_a_line(self, tmp_path, char):
        raw = '{"id": "b%sc", "size_bytes": 10, "label": "benign", "opcodes": {"add": 2}}' % char
        text = "\n".join([_line("a", {"mov": 1}), raw, _line("d", {"xor": 3})]) + "\n"
        parse = lambda lines: _outcome(parse_corpus, lines)  # noqa: E731
        got = parse(text)
        assert got == self._from_file(tmp_path, text, parse)
        if char >= " ":
            assert got[0] == "ok" and got[1][1].id == f"b{char}c"
        else:  # JSON allows no raw control character in a string
            assert got[0] == "error" and got[3] == 2

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_numbers_follow_universal_newlines(self, tmp_path, ending):
        """Blank lines, empty or whitespace only, are skipped but counted."""
        lines = [" \t", _line("a", {"mov": 1}), "", _line("b\u2028", {"mov": 1}), " \t", "{nope"]
        text = ending.join(lines) + ending
        parse = lambda lines: _outcome(parse_corpus, lines)  # noqa: E731
        got = parse(text)
        assert got == self._from_file(tmp_path, text, parse)
        assert got[0] == "error" and got[3] == 6
        assert parse(ending.join(lines[:5]) + ending)[0] == "ok"

    @pytest.mark.parametrize("last_ended", [True, False], ids=["ended", "last"])
    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_a_string_open_at_the_line_end_fails_as_in_a_file(self, tmp_path, ending, last_ended):
        """A text line keeps its newline, as a file's does, so both name the same JSON error."""
        text = _line("a", {"mov": 1}) + ending + '{"id": "b' + (ending if last_ended else "")
        parse = lambda lines: _outcome(parse_corpus, lines)  # noqa: E731
        got = parse(text)
        assert got == self._from_file(tmp_path, text, parse)
        reason = "Invalid control character at" if last_ended else "Unterminated string starting at"
        assert got[2] == f"line 2: invalid JSON: {reason}"

    @settings(max_examples=300)
    @given(st.lists(st.tuples(
        st.sampled_from(['{"id": "a', 'b", "size_bytes": 1, "opcodes": {"mov": 1}}', '{"id": "c"',
                         ', "size_bytes": 2, "opcodes": {}}', _line("d", {"ADD": 2}), "{nope", "",
                         "  "]),
        st.lists(st.sampled_from(["\n", "\r", "\r\n", "\x85", "\x0b", "\x0c", "\x1c", " "]),
                 max_size=2)), max_size=8))
    def test_a_text_reads_as_a_text_mode_reader_does(self, parts):
        """Lines, their newlines and the outcome are those of io.StringIO(text, newline=None)."""
        text = "".join(piece + "".join(ends) for piece, ends in parts)
        assert [*corpus._text_lines(text)] == [*io.StringIO(text, newline=None)]
        for allow in (False, True):
            assert (_outcome(parse_corpus, text, allow)
                    == _outcome(parse_corpus, io.StringIO(text, newline=None), allow))

    def test_a_text_is_read_in_slices(self, monkeypatch):
        """A text holds no whole copy while it is parsed: at most about one block more than a list."""
        monkeypatch.setattr(corpus, "_BLOCK_CHARS", 1 << 16)
        text = "\n".join(map(serialize_sample, generate_synthetic(SyntheticSpec(4, 30, 256, 0.3, 1))))
        lines = text.splitlines(keepends=True)
        assert len(text) > 4 * corpus._BLOCK_CHARS

        def peak(stream):
            tracemalloc.start()
            try:
                parse_corpus(stream)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(text) - peak(lines) < len(text) // 4

    def test_tokenize_disassembly_breaks_like_a_file(self, tmp_path):
        text = "mov a\u2028b\r\nXOR c\x0cd\rret\n"
        got = tokenize_disassembly(text)
        assert got.entries == {"mov": 1, "xor": 1, "ret": 1}
        assert self._from_file(tmp_path, text, tokenize_disassembly) == got


def _sorted_dumps(record):
    """The serializer's text as a rebuild in sorted key order makes it."""
    obj = {"id": record.id}
    if record.label is not Label.UNKNOWN:
        obj["label"] = record.label.value
    obj["size_bytes"] = record.size_bytes
    obj["opcodes"] = {op: record.histogram.entries[op] for op in sorted(record.histogram.entries)}
    return json.dumps(obj)


class TestSerializeSample:
    @staticmethod
    def _record(entries, label=Label.BENIGN):
        return SampleRecord(id="s", label=label, size_bytes=100, histogram=OpcodeHistogram(entries))

    @pytest.mark.parametrize("entries", [
        {"add": 2, "mov": 3, "xor": 1},
        {"xor": 1, "add": 2, "mov": 3},
        {"j": 1, "ja": 2, "jmp": 3, "jz": 4},
        {"jz": 4, "jmp": 3, "ja": 2, "j": 1},
        {"jmp": 3, "j": 1, "jz": 4, "ja": 2},
        {},
    ])
    def test_text_is_the_sorted_rebuild(self, entries):
        record = self._record(entries)
        assert serialize_sample(record) == _sorted_dumps(record)
        assert [*json.loads(serialize_sample(record))["opcodes"]] == sorted(entries)

    def test_parsed_unsorted_histogram(self):
        line = '{"id":"s","label":"benign","size_bytes":100,"opcodes":{"xor": 1, "add": 2, "MOV": 3}}'
        (record,) = parse_corpus(line)
        assert [*record.histogram.entries] == ["xor", "add", "mov"]
        text = serialize_sample(record)
        assert text == _sorted_dumps(record)
        assert text == serialize_sample(self._record({"xor": 1, "add": 2, "mov": 3}))
        assert '"opcodes": {"add": 2, "mov": 3, "xor": 1}' in text

    def test_unlabeled_record_has_no_label_key(self):
        record = self._record({"ret": 1, "call": 5}, Label.UNKNOWN)
        text = serialize_sample(record)
        assert text == _sorted_dumps(record)
        assert [*json.loads(text)] == ["id", "size_bytes", "opcodes"]

    def test_unorderable_keys_raise_as_before(self):
        with pytest.raises(TypeError):
            serialize_sample(self._record({"mov": 1, 2: 3}))

    def test_generated_corpus_text_is_the_sorted_rebuild(self):
        for sample in generate_synthetic(SyntheticSpec(3, 4, 120, 0.4, 5)):
            assert serialize_sample(sample) == _sorted_dumps(sample)


class TestTokenizeDisassembly:
    def test_counts_first_tokens_case_folded(self):
        h = tokenize_disassembly("MOV eax, ebx\njmp label\nmov ecx, 1")
        assert h.entries == {"mov": 2, "jmp": 1}

    def test_empty_stream(self):
        assert tokenize_disassembly("").entries == {}

    def test_skips_blank_and_comment_lines(self):
        h = tokenize_disassembly("; comment\n\nadd eax, 1")
        assert h.entries == {"add": 1}

    @pytest.mark.parametrize("line, reason", [
        (b"mov a\n", "line is not text, got bytes"),
        (None, "line is not text, got NoneType"),
        (7, "line is not text, got int"),
        ("\udcff b\n", "byte 0xff is not valid UTF-8"),
        ("mov \ud800\n", "lone surrogate U+D800 is not valid UTF-8"),
    ], ids=["bytes", "none", "int", "stand_in", "high_surrogate"])
    def test_a_line_that_is_not_text_is_a_parse_error(self, line, reason):
        """The line rule of parse_corpus: a typed error at the line, not a TypeError or a mnemonic."""
        with pytest.raises(ParseError, match=f"^line 3: {re.escape(reason)}$"):
            tokenize_disassembly(["mov a\n", "\n", line, "ret\n"])

    def test_a_file_byte_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "dump.asm"
        path.write_bytes(b"mov a\n; \xe9t\xe9\n\xff b\n")
        with open(path, encoding="utf-8", errors="surrogateescape") as fp:
            with pytest.raises(ParseError, match="^line 2: byte 0xe9 is not valid UTF-8$"):
                tokenize_disassembly(fp)

    def test_tokenize_serialize_parse_round_trip(self):
        h = tokenize_disassembly("mov a\nMOV b\nxor c\nret")
        sample = make_sample("t", Label.BENIGN, 100, dict(h.entries))
        (back,) = parse_corpus(serialize_sample(sample))
        assert back.histogram == h


class TestGroupingConfig:
    def test_defaults_give_100_groups(self):
        config = GroupingConfig()
        assert config.group_size_bytes == 5120
        assert config.max_size_bytes == 512000
        assert config.group_count == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"group_size_bytes": 0},
            {"max_size_bytes": 0},
            {"min_per_class": 0},
            {"max_size_bytes": 512001},  # not divisible by the group width
            {"group_size_bytes": "5120"},
        ],
    )
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(InvalidConfigError):
            GroupingConfig(**kwargs)


class TestAssignGroup:
    def test_boundaries(self):
        config = GroupingConfig()
        assert assign_group(0, config) == 0
        assert assign_group(5119, config) == 0
        assert assign_group(5120, config) == 1
        assert assign_group(511999, config) == 99

    @pytest.mark.parametrize("size", [-1, 512000, 600000])
    def test_out_of_range(self, size):
        with pytest.raises(SizeRangeError):
            assign_group(size, GroupingConfig())

    def test_matches_floor_division(self):
        config = GroupingConfig()
        rng = np.random.default_rng(3)
        for size in rng.integers(0, 512000, size=500):
            assert assign_group(int(size), config) == int(size) // 5120


class TestPartitionByGroup:
    def test_places_by_size(self):
        samples = [
            make_sample("a", Label.MALWARE, 100, {"x": 1}),
            make_sample("b", Label.BENIGN, 5120, {"x": 1}),
            make_sample("c", Label.MALWARE, 10240, {"x": 1}),
        ]
        corpus, rejected = partition_by_group(samples, GroupingConfig())
        assert rejected == []
        assert {g: [s.id for s in v] for g, v in corpus.groups.items()} == {
            0: ["a"],
            1: ["b"],
            2: ["c"],
        }

    def test_empty_input(self):
        corpus, rejected = partition_by_group([], GroupingConfig())
        assert corpus.groups == {} and rejected == []

    def test_oversize_goes_to_rejects(self):
        sample = make_sample("big", Label.BENIGN, 512000, {"x": 1})
        corpus, rejected = partition_by_group([sample], GroupingConfig())
        assert corpus.groups == {}
        assert rejected == [sample]

    def test_partition_is_complete(self):
        config = GroupingConfig()
        rng = np.random.default_rng(17)
        for _ in range(20):
            samples = [
                make_sample(f"s{i}", Label.BENIGN, int(rng.integers(0, 600000)), {"x": 1})
                for i in range(int(rng.integers(0, 40)))
            ]
            corpus, rejected = partition_by_group(samples, config)
            assert len(rejected) + corpus.sample_count() == len(samples)
            for g, bucket in corpus.groups.items():
                assert bucket, "only non-empty groups may appear"
                for s in bucket:
                    assert assign_group(s.size_bytes, config) == g


class TestSplitTrainTest:
    def _stratum(self, n, label, group=0):
        return [make_sample(f"{label.value}{i}", label, group * 5120 + i, {"x": 1}) for i in range(n)]

    @pytest.mark.parametrize("n,expected_train", [(9, 6), (10, 7), (1, 1), (2, 2), (3, 2)])
    def test_train_side_rounds_up(self, n, expected_train):
        corpus = grouped(self._stratum(n, Label.MALWARE) + self._stratum(6, Label.BENIGN))
        result = split_train_test(corpus, (2, 1), seed=5)
        malware_train = [s for s in result.train.groups.get(0, []) if s.label is Label.MALWARE]
        malware_test = [s for s in result.test.groups.get(0, []) if s.label is Label.MALWARE]
        assert len(malware_train) == expected_train
        assert len(malware_train) + len(malware_test) == n

    def test_partition_is_disjoint_and_complete(self):
        samples = self._stratum(10, Label.MALWARE) + self._stratum(7, Label.BENIGN)
        samples += [make_sample(f"g3-{i}", Label.MALWARE, 3 * 5120 + i, {"x": 1}) for i in range(5)]
        corpus = grouped(samples)
        result = split_train_test(corpus, (2, 1), seed=0)
        train_ids = {s.id for s in result.train.all_samples()}
        test_ids = {s.id for s in result.test.all_samples()}
        assert train_ids & test_ids == set()
        assert train_ids | test_ids == {s.id for s in samples}

    def test_same_seed_same_partition(self):
        corpus = grouped(self._stratum(30, Label.MALWARE) + self._stratum(20, Label.BENIGN))
        a = split_train_test(corpus, (2, 1), seed=42)
        b = split_train_test(corpus, (2, 1), seed=42)
        assert [s.id for s in a.train.all_samples()] == [s.id for s in b.train.all_samples()]
        assert [s.id for s in a.test.all_samples()] == [s.id for s in b.test.all_samples()]

    def test_different_seed_different_partition(self):
        corpus = grouped(self._stratum(30, Label.MALWARE) + self._stratum(20, Label.BENIGN))
        a = split_train_test(corpus, (2, 1), seed=0)
        b = split_train_test(corpus, (2, 1), seed=1)
        assert {s.id for s in a.train.all_samples()} != {s.id for s in b.train.all_samples()}

    def test_stratified_per_group_and_class(self):
        rng = np.random.default_rng(23)
        samples = []
        for g in range(4):
            for label in (Label.MALWARE, Label.BENIGN):
                for i in range(int(rng.integers(1, 12))):
                    samples.append(
                        make_sample(f"{label.value}-{g}-{i}", label, g * 5120 + i, {"x": 1})
                    )
        corpus = grouped(samples)
        result = split_train_test(corpus, (2, 1), seed=9)
        for g, bucket in corpus.groups.items():
            for label in (Label.MALWARE, Label.BENIGN):
                n = sum(1 for s in bucket if s.label is label)
                got = sum(1 for s in result.train.groups.get(g, []) if s.label is label)
                assert got == math.ceil(n * 2 / 3)

    def test_rejects_unlabeled_and_bad_ratio(self):
        corpus = grouped([make_sample("u", Label.UNKNOWN, 10, {"x": 1})])
        with pytest.raises(IntegrityError):
            split_train_test(corpus, (2, 1), seed=0)
        labeled = grouped(self._stratum(3, Label.BENIGN))
        with pytest.raises(InvalidConfigError):
            split_train_test(labeled, (0, 1), seed=0)
        with pytest.raises(InvalidConfigError):
            split_train_test(labeled, (True, 1), seed=0)
        for ratio in ((1, 2, 3), (1,)):
            with pytest.raises(InvalidConfigError):
                split_train_test(labeled, ratio, seed=0)
        # random.Random would seed -7 as 7, and None from the clock.
        for seed in (-7, -1, None, 1.5, "x", True, [1]):
            with pytest.raises(InvalidConfigError, match="seed must be a non-negative integer"):
                split_train_test(labeled, (2, 1), seed=seed)


class TestGroupedCorpus:
    def test_the_memo_is_not_part_of_the_public_surface(self):
        corpus = grouped(two_class_group(0))
        same = GroupedCorpus(corpus.config, {0: list(corpus.groups[0])})
        train_bundle(corpus, 3, created_at="t")  # fills corpus's memo only
        assert list(inspect.signature(GroupedCorpus).parameters) == ["config", "groups"]
        assert corpus == same
        assert repr(corpus) == repr(same) == (
            f"GroupedCorpus(config={corpus.config!r}, groups={corpus.groups!r})")

    def test_groups_hold_tuples_however_built(self):
        samples = two_class_group(0) + two_class_group(1)
        corpus, _ = partition_by_group(samples, GroupingConfig())
        split = split_train_test(corpus, (2, 1), seed=0)
        built = GroupedCorpus(GroupingConfig(), {0: samples[:12], 1: samples[12:]})
        for each in (corpus, split.train, split.test, built):
            assert {type(bucket) for bucket in each.groups.values()} == {tuple}
        assert built.groups == corpus.groups


class TestTrainableGroups:
    def test_threshold_is_six_of_each(self):
        config = GroupingConfig()
        samples = self._group_with(6, 6, group=0) + self._group_with(5, 100, group=1)
        corpus = grouped(samples, config)
        assert trainable_groups(corpus, config) == {0}

    def test_empty_corpus(self):
        config = GroupingConfig()
        assert trainable_groups(grouped([], config), config) == set()

    def test_custom_threshold(self):
        config = GroupingConfig(min_per_class=2)
        corpus = grouped(self._group_with(2, 2, group=3), config)
        assert trainable_groups(corpus, config) == {3}

    def test_refuses_an_unlabeled_sample_in_any_group(self):
        """The first unlabeled sample by ascending group, trainable group or not."""
        config = GroupingConfig()
        for group in (0, 1):
            unlabeled = [make_sample(f"u{g}", Label.UNKNOWN, g * 5120, {"x": 1}) for g in (2, group)]
            corpus = grouped(self._group_with(6, 6, group=0) + unlabeled, config)
            with pytest.raises(IntegrityError, match=f"^sample 'u{group}' has no training label$"):
                trainable_groups(corpus, config)

    @staticmethod
    def _group_with(n_malware, n_benign, group):
        base = group * 5120
        malware = [
            make_sample(f"m{group}-{i}", Label.MALWARE, base + i, {"x": 1})
            for i in range(n_malware)
        ]
        benign = [
            make_sample(f"b{group}-{i}", Label.BENIGN, base + i, {"x": 1})
            for i in range(n_benign)
        ]
        return malware + benign
