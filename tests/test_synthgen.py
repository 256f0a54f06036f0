"""Unit tests for synthetic generators and dataset I/O."""

from fractions import Fraction

import numpy as np
import pytest

from toph.distributions import entropy, make_distribution
from toph.errors import InvalidParameters, MalformedRecord, MixedSchema
from toph.synthgen import (
    GeneratorSpec,
    generate,
    read_dataset,
    write_dataset,
)


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


class TestDatasetIO:
    def test_round_trip_identity(self, tmp_path):
        dists = generate(GeneratorSpec(family="dirichlet", n=9, a=1.0, seed=8), 100)
        path = tmp_path / "data.jsonl"
        write_dataset(path, dists)
        back = read_dataset(path)
        assert len(back) == 100
        for original, rec in zip(dists, back):
            assert np.all(np.abs(original.probs - rec.dist.probs) <= 1e-12)

    def test_ids_preserved(self, tmp_path):
        dists = generate(GeneratorSpec(family="uniform", n=3), 2)
        path = tmp_path / "data.jsonl"
        write_dataset(path, dists, ids=["alpha", "beta"])
        back = read_dataset(path)
        assert [r.id for r in back] == ["alpha", "beta"]

    def test_negative_prob_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "a", "probs": [0.5, 0.5]}\n{"id": "b", "probs": [0.5, -0.5]}\n'
        )
        with pytest.raises(MalformedRecord) as err:
            read_dataset(path)
        assert err.value.line_number == 2

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "probs": [1.0]}\nnot json\n')
        with pytest.raises(MalformedRecord) as err:
            read_dataset(path)
        assert err.value.line_number == 2

    def test_mixed_schema_rejected(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"id": "a", "probs": [1.0]}\n'
            '{"id": "b", "logits": [0.0, 1.0], "temperature": 1.0}\n'
        )
        with pytest.raises(MixedSchema):
            read_dataset(path)

    def test_logits_record_delegates(self, tmp_path):
        path = tmp_path / "logits.jsonl"
        path.write_text('{"id": "a", "logits": [0.0, 1.0, 2.0], "temperature": 2.0}\n')
        rec = read_dataset(path)[0]
        expected = make_distribution([0.0, 1.0, 2.0], mode="logits", temperature=2.0)
        assert np.array_equal(rec.dist.probs, expected.probs)

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
            read_dataset(path)
        assert err.value.line_number == 2

    def test_integer_entries_accepted(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        path.write_text('{"id": "a", "logits": [0, 1.0, -2]}\n')
        rec = read_dataset(path)[0]
        expected = make_distribution([0.0, 1.0, -2.0], mode="logits")
        assert np.array_equal(rec.dist.probs, expected.probs)

    def test_record_without_body_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(MalformedRecord):
            read_dataset(path)
