"""Unit tests for synthetic generators and dataset I/O."""

import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from toph import synthgen

from toph.distributions import entropy, make_distribution
from toph.errors import InvalidParameters, MalformedRecord, MixedSchema
from toph.synthgen import (
    CHUNK_ELEMENTS,
    FAMILIES,
    GeneratorSpec,
    chunk_rows,
    generate,
    generate_blocks,
    read_dataset,
    write_dataset,
)

from dataset_reference import reference_read_dataset


class TestFamilies:
    def test_zipf_matches_closed_form(self):
        # harmonic normalization: weights 1, 1/2, 1/3, 1/4 sum to 25/12
        dist = generate(GeneratorSpec(family="zipf", n=4, s=1.0), 1)[0]
        norm = Fraction(25, 12)
        expected = [float(Fraction(1, k) / norm) for k in (1, 2, 3, 4)]
        assert np.allclose(dist.probs, expected, atol=1e-15)
        assert np.allclose(dist.probs, [0.48, 0.24, 0.16, 0.12], atol=1e-12)

    def test_zipf_deterministic(self):
        a = generate(GeneratorSpec(family="zipf", n=10, s=1.3, seed=1), 3)
        b = generate(GeneratorSpec(family="zipf", n=10, s=1.3, seed=1), 3)
        for x, y in zip(a, b):
            assert np.array_equal(x.probs, y.probs)

    def test_zipf_shuffle_permutes(self):
        spec = GeneratorSpec(family="zipf", n=8, s=1.1, seed=9, shuffle=True)
        dists = generate(spec, 4)
        base = sorted(generate(GeneratorSpec(family="zipf", n=8, s=1.1), 1)[0].probs)
        for d in dists:
            assert sorted(d.probs) == pytest.approx(base, abs=0)
        # deterministic across calls
        again = generate(spec, 4)
        for x, y in zip(dists, again):
            assert np.array_equal(x.probs, y.probs)

    def test_dirichlet_concentrates_for_large_a(self):
        dists = generate(GeneratorSpec(family="dirichlet", n=4, a=1000.0, seed=2), 50)
        arr = np.stack([d.probs for d in dists])
        assert np.all(np.abs(arr - 0.25) < 0.05)

    def test_dirichlet_valid_and_seeded(self):
        a = generate(GeneratorSpec(family="dirichlet", n=6, a=0.5, seed=5), 10)
        b = generate(GeneratorSpec(family="dirichlet", n=6, a=0.5, seed=5), 10)
        for x, y in zip(a, b):
            assert np.array_equal(x.probs, y.probs)
            assert float(x.probs.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_logits_temperature(self):
        cold = generate(GeneratorSpec(family="gaussian_logits", n=10, sigma=2.0,
                                      temperature=0.5, seed=3), 20)
        hot = generate(GeneratorSpec(family="gaussian_logits", n=10, sigma=2.0,
                                     temperature=5.0, seed=3), 20)
        mean_h_cold = np.mean([entropy(d) for d in cold])
        mean_h_hot = np.mean([entropy(d) for d in hot])
        assert mean_h_cold < mean_h_hot

    def test_one_hot_mix_peak_one(self):
        dists = generate(GeneratorSpec(family="one_hot_mix", n=5, peak=1.0, seed=4), 10)
        for d in dists:
            assert np.count_nonzero(d.probs) == 1
            assert float(d.probs.max()) == 1.0

    def test_one_hot_mix_peak_mass(self):
        dists = generate(GeneratorSpec(family="one_hot_mix", n=5, peak=0.8, seed=4), 10)
        for d in dists:
            assert float(d.probs.max()) == pytest.approx(0.8, abs=1e-12)
            assert float(d.probs.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_generate_is_the_rows_of_generate_blocks(self):
        spec = GeneratorSpec(family="dirichlet", n=100, a=0.5, seed=3)
        count = chunk_rows(100) + 5
        rows = [row for block in generate_blocks(spec, count) for row in block.probs]
        dists = generate(spec, count)
        assert [d.probs.tobytes() for d in dists] == [row.tobytes() for row in rows]
        # read-only views of the blocks' rows, not copies
        assert not any(d.probs.flags.writeable or d.probs.base is None for d in dists)

    def test_uniform_family(self):
        d = generate(GeneratorSpec(family="uniform", n=8), 1)[0]
        assert np.allclose(d.probs, 0.125, atol=0)

    def test_all_outputs_are_valid_distributions(self):
        specs = [
            GeneratorSpec(family="zipf", n=12, s=1.5, seed=7),
            GeneratorSpec(family="dirichlet", n=12, a=0.3, seed=7),
            GeneratorSpec(family="gaussian_logits", n=12, sigma=3.0, seed=7),
            GeneratorSpec(family="one_hot_mix", n=12, peak=0.6, seed=7),
            GeneratorSpec(family="uniform", n=12, seed=7),
        ]
        for spec in specs:
            for d in generate(spec, 5):
                assert np.all(d.probs >= 0)
                assert abs(float(d.probs.sum()) - 1.0) <= 1e-9

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameters):
            generate(GeneratorSpec(family="zipf", n=4, s=0.0), 1)
        with pytest.raises(InvalidParameters):
            generate(GeneratorSpec(family="dirichlet", n=4, a=-1.0), 1)
        with pytest.raises(InvalidParameters):
            generate(GeneratorSpec(family="nope", n=4), 1)
        with pytest.raises(InvalidParameters):
            generate(GeneratorSpec(family="one_hot_mix", n=4, peak=0.0), 1)
        with pytest.raises(InvalidParameters):
            generate(GeneratorSpec(family="uniform", n=0), 1)
        with pytest.raises(InvalidParameters, match="sigma must be > 0"):
            generate(GeneratorSpec(family="gaussian_logits", n=4, sigma=0.0), 1)
        with pytest.raises(InvalidParameters, match="temperature must be > 0"):
            generate(GeneratorSpec(family="gaussian_logits", n=4, temperature=0.0), 1)
        with pytest.raises(InvalidParameters, match="count must be >= 0"):
            next(generate_blocks(GeneratorSpec(family="uniform", n=4), -1))

    @pytest.mark.parametrize("field", ["s", "a", "sigma", "temperature", "peak"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameter_is_refused_by_every_family(self, field, value):
        # a gamma draw of shape inf never accepts, so this is checked before any draw
        for family in FAMILIES:
            spec = GeneratorSpec(family=family, n=4, **{field: value})
            with pytest.raises(InvalidParameters, match=f"{field} must be finite"):
                spec.validate()


def records(path):
    """(id, probability row) of every record of a dataset, in file order."""
    return [(rid, row) for block in read_dataset(path) for rid, row in zip(block.ids, block.probs)]


class TestDatasetIO:
    def test_round_trip_identity(self, tmp_path):
        dists = generate(GeneratorSpec(family="dirichlet", n=9, a=1.0, seed=8), 100)
        path = tmp_path / "data.jsonl"
        write_dataset(path, dists)
        back = records(path)
        assert len(back) == 100
        for original, (_, row) in zip(dists, back):
            assert original.probs.tobytes() == row.tobytes()

    def test_ids_preserved(self, tmp_path):
        dists = generate(GeneratorSpec(family="uniform", n=3), 2)
        path = tmp_path / "data.jsonl"
        write_dataset(path, dists, ids=["alpha", "beta"])
        assert [rid for rid, _ in records(path)] == ["alpha", "beta"]

    def test_blocks_are_read_only_runs_within_the_chunk_rule(self, tmp_path):
        sizes = [100] * (chunk_rows(100) + 2) + [3, 3, 5] + [CHUNK_ELEMENTS] * 2
        rng = np.random.default_rng(5)
        dists = [make_distribution(rng.normal(0.0, 2.0, n), mode="logits") for n in sizes]
        path = tmp_path / "data.jsonl"
        write_dataset(path, dists)
        blocks = list(read_dataset(path))
        assert [block.probs.shape for block in blocks] == [
            (chunk_rows(100), 100), (2, 100), (2, 3), (1, 5),
            (1, CHUNK_ELEMENTS), (1, CHUNK_ELEMENTS)]
        assert [len(block) for block in blocks] == [len(block.ids) for block in blocks]
        assert not any(block.probs.flags.writeable for block in blocks)
        # the blocks hold the written rows, bit for bit, under their default ids
        rows = [(rid, row) for block in blocks for rid, row in zip(block.ids, block.probs)]
        assert [rid for rid, _ in rows] == [f"d{i:06d}" for i in range(len(dists))]
        assert all(row.tobytes() == dist.probs.tobytes() for (_, row), dist in zip(rows, dists))

    def test_negative_prob_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "a", "probs": [0.5, 0.5]}\n{"id": "b", "probs": [0.5, -0.5]}\n'
        )
        with pytest.raises(MalformedRecord) as err:
            list(read_dataset(path))
        assert err.value.line_number == 2

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "probs": [1.0]}\nnot json\n')
        with pytest.raises(MalformedRecord) as err:
            list(read_dataset(path))
        assert err.value.line_number == 2

    def test_error_is_raised_when_its_block_is_reached(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "probs": [0.5, 0.5]}\n'
                        '{"id": "b", "probs": [0.25, 0.25, 0.5]}\n'
                        '{"id": "c", "probs": [0.5, 0.6, 0.5]}\n')
        blocks = read_dataset(path)
        assert next(blocks).ids == ["a"]
        with pytest.raises(MalformedRecord) as err:
            next(blocks)
        assert err.value.line_number == 3

    def test_mixed_schema_rejected(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"id": "a", "probs": [1.0]}\n'
            '{"id": "b", "logits": [0.0, 1.0], "temperature": 1.0}\n'
        )
        with pytest.raises(MixedSchema):
            list(read_dataset(path))

    def test_logits_record_delegates(self, tmp_path):
        path = tmp_path / "logits.jsonl"
        path.write_text('{"id": "a", "logits": [0.0, 1.0, 2.0], "temperature": 2.0}\n')
        _, row = records(path)[0]
        expected = make_distribution([0.0, 1.0, 2.0], mode="logits", temperature=2.0)
        assert np.array_equal(row, expected.probs)

    @pytest.mark.parametrize("record", [
        '{"id": "b", "probs": ["0.5", "0.5"]}',
        '{"id": "b", "probs": [true, false]}',
        '{"id": "b", "probs": [0.5, "0.5"]}',
        '{"id": "b", "probs": [0.5, null, 0.5]}',
        '{"id": "b", "probs": [[0.5], [0.5]]}',
        '{"id": "b", "probs": 1.0}',
        '{"id": "b", "logits": [true, "2"]}',
        '{"id": "b", "logits": ["0", "1"]}',
        '{"id": "b", "logits": [false, 1.0], "temperature": 1.0}',
        pytest.param('{"id": "b", "logits": [1' + "0" * 400 + ', 0]}',
                     id="integer-beyond-float-range"),
    ])
    def test_non_number_entry_reports_line(self, tmp_path, record):
        kind = "probs" if '"probs"' in record else "logits"
        path = tmp_path / "bad.jsonl"
        path.write_text(f'{{"id": "a", "{kind}": [1, 0]}}\n{record}\n')
        with pytest.raises(MalformedRecord) as err:
            list(read_dataset(path))
        assert err.value.line_number == 2

    def test_integer_entries_accepted(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        path.write_text('{"id": "a", "logits": [0, 1.0, -2]}\n')
        _, row = records(path)[0]
        expected = make_distribution([0.0, 1.0, -2.0], mode="logits")
        assert np.array_equal(row, expected.probs)

    def test_record_without_body_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(MalformedRecord):
            list(read_dataset(path))


# --- the block reader against the per-line reference ----------------------

# vocabulary sizes on both sides of 128 (and of 2**13, 2**14): chunks hold
# 129, 128, 127, 54, 8 and then one record at the real element budget
READER_SIZES = (1, 2, 127, 128, 129, 300, 2000, 8193, 16385)
# run lengths relative to the chunk size of their n
RUN_LENGTHS = ("one", "two", "below", "at", "above")


def reference_outcome(read, path):
    """What reading ``path`` raised, as (class, message, line), or None."""
    try:
        list(read(path))
    except (MalformedRecord, MixedSchema) as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return None


def probs_row(rng, n):
    """A softmax row, sometimes with exact zeros, denormals or a drift below the input tolerance."""
    p = np.exp(rng.normal(0.0, 3.0, n))
    style = rng.integers(0, 5)
    if style == 1:
        p[rng.random(n) < 0.3] = 0.0
        p[rng.integers(n)] = 1.0
    elif style == 2:
        p[rng.integers(0, n, size=1 + n // 10)] = rng.choice([5e-324, 1e-310, 2.2e-308])
    p = p / p.sum()
    if style == 3:  # renormalized on reading
        p = p * (1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(2e-9, 9e-7))
    elif style == 4:  # within MASS_TOLERANCE: kept bit-exact
        p = p * (1.0 + rng.uniform(-5e-10, 5e-10))
    return p.tolist()


def logits_record(rng, rid, n):
    x = rng.normal(0.0, 3.0, n)
    if rng.integers(0, 2):
        x[rng.random(n) < 0.2] = -np.inf
        x[rng.integers(n)] = rng.normal()
    record = {"id": rid, "logits": x.tolist()}
    temperature = [None, 1, 2, 0.5, 0.01, 3.7][rng.integers(0, 6)]
    if temperature is not None:
        record["temperature"] = temperature
    return record


@st.composite
def datasets(draw):
    """(records, element budget): runs of equal n that end below, at and past a chunk."""
    kind = draw(st.sampled_from(["probs", "logits"]))
    budget = draw(st.sampled_from([CHUNK_ELEMENTS, 1000, 300]))
    runs = draw(st.lists(st.tuples(st.sampled_from(READER_SIZES), st.sampled_from(RUN_LENGTHS)),
                         min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records, elements = [], 0
    for n, length in runs:
        rows = max(1, budget // n)
        count = {"one": 1, "two": 2, "below": rows - 1, "at": rows, "above": rows + 1}[length]
        count = max(1, min(count, 300, (60_000 - elements) // n))
        for _ in range(count):
            rid = f"r{len(records)}"
            records.append({"id": rid, "probs": probs_row(rng, n)} if kind == "probs"
                           else logits_record(rng, rid, n))
        elements += count * n
        if elements >= 60_000:
            break
    return records, budget


def write_lines(path, lines, blank_every=0):
    """``lines`` (str or bytes) as a file; ``blank_every`` > 0 puts a blank line after every so many."""
    out = []
    for i, line in enumerate(lines):
        out.append(line if isinstance(line, bytes) else line.encode("utf-8"))
        if blank_every and i % blank_every == blank_every - 1:
            out.append(b"  ")
    path.write_bytes(b"".join(line + b"\n" for line in out))


def corrupt(record, fault):
    """The line of ``record`` with one fault, and whether it still parses as JSON."""
    record = dict(record)
    kind = "probs" if "probs" in record else "logits"
    values = list(record[kind])
    if fault == "invalid_json":
        return json.dumps(record)[:-3]
    if fault == "latin1":
        return b'{"id": "caf\xe9", "' + kind.encode() + b'": [1.0]}'
    if fault == "kind_switch":
        record.pop("temperature", None)
        record["logits" if kind == "probs" else "probs"] = record.pop(kind)
        return json.dumps(record)
    if fault in ("string", "boolean", "null"):
        values[len(values) // 2] = {"string": "0.5", "boolean": True, "null": None}[fault]
    elif fault == "nan":
        values[0] = math.nan
    elif fault == "infinity":
        values[-1] = math.inf
    elif fault == "negative":
        if kind == "probs":
            values[0] = -0.25
        else:
            record["temperature"] = -1.0
    elif fault == "bad_mass":
        if kind == "probs":
            values = [1.5 * v for v in values]
        else:
            values = [-math.inf] * len(values)
    record[kind] = values
    return json.dumps(record)


FAULTS = ("invalid_json", "latin1", "kind_switch", "string", "boolean", "null", "nan",
          "infinity", "negative", "bad_mass")


class TestReaderAgainstReference:
    """``read_dataset`` reads what the per-line reader reads, and refuses what it refuses."""

    @settings(max_examples=30, deadline=None)
    @given(data=datasets(), blank_every=st.sampled_from([0, 1, 7]))
    def test_same_ids_and_row_bytes(self, tmp_path_factory, data, blank_every):
        records, budget = data
        path = tmp_path_factory.mktemp("valid") / "data.jsonl"
        write_lines(path, [json.dumps(r) for r in records], blank_every)
        expected = reference_read_dataset(path)
        with mock.patch.object(synthgen, "CHUNK_ELEMENTS", budget):
            blocks = list(read_dataset(path))
        for block in blocks:
            assert not block.probs.flags.writeable
            assert block.probs.shape == (len(block), block.probs.shape[1])
            assert len(block) <= max(1, budget // block.probs.shape[1])
        got = [(rid, row) for block in blocks for rid, row in zip(block.ids, block.probs)]
        assert [rid for rid, _ in got] == [rec.id for rec in expected]
        for (_, row), rec in zip(got, expected):
            assert row.tobytes() == rec.dist.probs.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=datasets(), faults=st.tuples(st.sampled_from(FAULTS), st.sampled_from(FAULTS)),
           picks=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    def test_same_error_for_the_first_bad_line(self, tmp_path_factory, data, faults, picks):
        records, budget = data
        path = tmp_path_factory.mktemp("corrupt") / "data.jsonl"
        lines = [json.dumps(r) for r in records]
        write_lines(path, lines)
        with mock.patch.object(synthgen, "CHUNK_ELEMENTS", budget):
            sizes = [len(block) for block in read_dataset(path)]
        # one fault in an earlier block than the other, when there are two blocks
        starts = np.cumsum([0] + sizes)
        first = int(picks[0] * (len(sizes) - 1) + 0.5) if len(sizes) > 1 else 0
        second = first + 1 + int(picks[1] * (len(sizes) - first - 2) + 0.5) \
            if first + 1 < len(sizes) else first
        rows = [starts[block] + min(int(pick * sizes[block]), sizes[block] - 1)
                for block, pick in ((first, picks[2]), (second, 1 - picks[2]))]
        for row, fault in dict(zip(rows, faults)).items():
            lines[row] = corrupt(records[row], fault)
        write_lines(path, lines)
        expected = reference_outcome(reference_read_dataset, path)
        # a schema switch in a file of one record is no fault
        assume(expected is not None)
        with mock.patch.object(synthgen, "CHUNK_ELEMENTS", budget):
            assert reference_outcome(read_dataset, path) == expected

    @pytest.mark.parametrize("lines", [
        # the switching record's own bad values are reported, not the switch
        ['{"id": "a", "logits": [0.5, -1.0]}', '{"id": "b", "probs": [0.5, -1.0]}'],
        ['{"id": "a", "probs": [0.5, 0.5]}', '{"id": "b", "probs": [0.5, 0.5]}',
         '{"id": "c", "logits": [-Infinity, -Infinity]}'],
        ['{"id": "a", "probs": [0.5, 0.5]}', '{"id": "b", "logits": [0.5, 0.5]}'],
        # an earlier bad row in the pending block is reported first
        ['{"id": "a", "probs": [0.5, 0.7]}', '{"id": "b", "logits": [0.5, 0.5]}'],
    ])
    def test_schema_switch(self, tmp_path, lines):
        path = tmp_path / "switch.jsonl"
        write_lines(path, lines)
        expected = reference_outcome(reference_read_dataset, path)
        assert expected is not None
        assert reference_outcome(read_dataset, path) == expected

    def test_integer_overflow_after_an_earlier_bad_row(self, tmp_path):
        # a bad mass on line 1 is checked with its block, later than line 2's
        # overflow is found; line 1 must still be the one reported
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "probs": [0.5, 0.6]}\n'
                        '{"id": "b", "probs": [1' + "0" * 400 + ', 0]}\n')
        assert reference_outcome(read_dataset, path) == \
            reference_outcome(reference_read_dataset, path)
        assert reference_outcome(read_dataset, path)[2] == 1

    def test_bad_row_before_undecodable_text(self, tmp_path):
        # the text is decoded a block at a time: line 1 is read, and waits in
        # its block, before the decoder meets the latin-1 byte
        path = tmp_path / "bad.jsonl"
        write_lines(path, ['{"id": "a", "probs": [0.5, 0.6]}']
                    + [json.dumps({"id": f"r{i}", "probs": [0.5, 0.5]}) for i in range(2000)]
                    + [b'{"id": "caf\xe9", "probs": [1.0]}'])
        expected = reference_outcome(reference_read_dataset, path)
        assert expected[2] == 1
        assert reference_outcome(read_dataset, path) == expected


# --- odd lines: the reader against the per-line reference ------------------

#: JSON's whitespace but the newline, and characters only ``str.isspace`` calls space.
JSON_SPACE = " \t\r"
OTHER_SPACE = "\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000"

RECORD_BODIES = [
    '{"id": "a", "logits": [NaN, 1.0]}',
    '{"id": "a", "logits": [-Infinity, 0.5], "temperature": 2}',
    '{"id": "a", "logits": [Infinity, 0.5]}',
    '{"id": "a", "probs": [Infinity, 0.0]}',
    '{"id": "a", "id": "b", "probs": [1.0]}',
    '{"id": "a", "probs": [0.5, 0.6], "probs": [0.5, 0.5]}',
    '{"id": "a", "probs": [1.0], "probs": "x"}',
    '{"id": "a", "probs": [1, 0]}',
    '{"id": "a", "probs": [1.0]}{"id": "b", "probs": [1.0]}',
    '{"id": "a", "probs": [1.0]',
    '{"id": "a", "probs": [1.0,]}',
    '[1.0]', "1", '"a"', "null", "{}", "NaN", "",
]


@st.composite
def record_lines(draw):
    """A line of a dataset file, newline excluded: a record or not, with text around it."""
    rid = draw(st.text(max_size=4))
    body = draw(st.one_of(
        st.sampled_from(RECORD_BODIES),
        st.builds(lambda values: json.dumps({"id": rid, "probs": values}),
                  st.sampled_from([[1.0], [0.5, 0.5], [0.25, 0.75], [1, 0], [0.5, 0.7]])),
        st.just(json.dumps({"id": rid, "logits": [0.0, 1.5], "temperature": 2},
                           ensure_ascii=False)),
    ))
    before = draw(st.one_of(st.text(JSON_SPACE + OTHER_SPACE, max_size=2), st.just("\ufeff")))
    after = draw(st.one_of(st.text(JSON_SPACE + OTHER_SPACE, max_size=2),
                           st.sampled_from(["x", "}", " {}", ",", "]", "\ufeff"])))
    return before + body + after


class TestOddLinesAgainstReference:
    """Whitespace, a BOM, ``NaN``, duplicate keys and trailing text read as the reference reads them."""

    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(st.one_of(record_lines(),
                                    st.text(" \t" + OTHER_SPACE, min_size=1, max_size=3)),
                          min_size=1, max_size=6))
    def test_same_dataset_or_error_as_the_per_line_reader(self, tmp_path_factory, lines):
        # whitespace-only lines are skipped whatever their characters; "\r" ends
        # a line, as the text reader translates it
        path = tmp_path_factory.mktemp("lines") / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = reference_outcome(reference_read_dataset, path)
        assert reference_outcome(read_dataset, path) == expected
        if expected is None:
            got = [(rid, row.tobytes()) for rid, row in records(path)]
            assert got == [(rec.id, rec.dist.probs.tobytes())
                           for rec in reference_read_dataset(path)]


class TestReaderMemory:
    def test_large_records_are_released_one_at_a_time(self, tmp_path):
        # a record of 32k tokens is a block of one, yielded before the next
        # line is read: taking the blocks one at a time holds about one
        # record's line, parsed list and row, whatever the record count
        n, count = 32768, 8
        rng = np.random.default_rng(4)
        path = tmp_path / "wide.jsonl"
        lines = []
        for i in range(count):
            p = np.exp(rng.normal(0.0, 2.0, n))
            lines.append(json.dumps({"id": f"r{i}", "probs": (p / p.sum()).tolist()}))
        write_lines(path, lines)
        tracemalloc.start()
        try:
            json.loads(lines[0])
            _, one_list = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            shapes = [block.probs.shape for block in read_dataset(path)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert shapes == [(1, n)] * count
        assert peak < 3 * one_list
