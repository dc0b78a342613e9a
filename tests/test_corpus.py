"""Corpus ingestion, grouping, and the stratified split."""

import json
import math

import numpy as np
import pytest

from groupnb import corpus
from groupnb.corpus import (
    GroupingConfig,
    Label,
    OpcodeHistogram,
    _fold_counts,
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
from groupnb.synth import SyntheticSpec, generate_synthetic

from helpers import grouped, make_sample


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


def _line(sid, opcodes):
    return json.dumps({"id": sid, "label": "malware", "size_bytes": 10, "opcodes": opcodes})


class TestOpcodeHistogram:
    def test_canonical_form(self):
        h = OpcodeHistogram.from_counts({"MOV": 2, "mov": 1, "jmp": 4, "add": 0})
        assert h.entries == {"mov": 3, "jmp": 4}
        assert h.total() == 7
        assert h.get("mov") == 3
        assert h.get("absent") == 0

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
        assert self._outcome(build, counts) == self._outcome(_fold_counts, counts)

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
            assert self._outcome(build, counts) == self._outcome(_fold_counts, counts), counts

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
    def _per_line_from_counts(monkeypatch):
        """parse_corpus with one OpcodeHistogram.from_counts call per line, no shared names."""
        monkeypatch.setattr(corpus, "_shared_histogram",
                            lambda ops, names: OpcodeHistogram.from_counts(ops))
        return lambda lines, allow_unlabeled=False: corpus.parse_corpus(
            list(lines), allow_unlabeled=allow_unlabeled)

    def _assert_same(self, monkeypatch, corpora):
        outcomes = [(_outcome(parse_corpus, lines, allow), lines, allow)
                    for lines in corpora for allow in (False, True)]
        reference = self._per_line_from_counts(monkeypatch)
        for got, lines, allow in outcomes:
            assert got == _outcome(reference, lines, allow), lines

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

    def test_mutations_match_one_from_counts_per_line(self, monkeypatch):
        """Each mutated line alone, and after a clean line that makes its names known."""
        clean = _line("c", {"mov": 5, "add": 6})
        corpora = [[line] for line in _mutated_lines()]
        corpora += [[clean, line] for line in _mutated_lines()]
        self._assert_same(monkeypatch, corpora)

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
    def test_ordered_cases_match_one_from_counts_per_line(self, monkeypatch, corpus_lines):
        got = _outcome(parse_corpus, corpus_lines)
        if got[0] == "ok":  # one key object per distinct mnemonic
            keys = [key for r in got[1] for key in r.histogram.entries]
            assert len({*map(id, keys)}) == len({*keys})
        self._assert_same(monkeypatch, [corpus_lines])

    def test_each_call_starts_a_new_table(self):
        first = parse_corpus(_line("a", {"mov": 1}))
        second = parse_corpus(_line("a", {"mov": 1}))
        assert [*first[0].histogram.entries][0] is not [*second[0].histogram.entries][0]


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
        lines = [_line("a", {"mov": 1}), "", _line("b\u2028", {"mov": 1}), "{nope"]
        text = ending.join(lines) + ending
        parse = lambda lines: _outcome(parse_corpus, lines)  # noqa: E731
        got = parse(text)
        assert got == self._from_file(tmp_path, text, parse)
        assert got[0] == "error" and got[3] == 4

    def test_tokenize_disassembly_breaks_like_a_file(self, tmp_path):
        text = "mov a\u2028b\r\nXOR c\x0cd\rret\n"
        got = tokenize_disassembly(text)
        assert got.entries == {"mov": 1, "xor": 1, "ret": 1}
        assert self._from_file(tmp_path, text, tokenize_disassembly) == got


class TestTokenizeDisassembly:
    def test_counts_first_tokens_case_folded(self):
        h = tokenize_disassembly("MOV eax, ebx\njmp label\nmov ecx, 1")
        assert h.entries == {"mov": 2, "jmp": 1}

    def test_empty_stream(self):
        assert tokenize_disassembly("").entries == {}

    def test_skips_blank_and_comment_lines(self):
        h = tokenize_disassembly("; comment\n\nadd eax, 1")
        assert h.entries == {"add": 1}

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
