"""CLI contract tests: outputs, exit codes, manifests, determinism."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toph import cli, synthgen
from toph.cli import build_parser, main
from toph.errors import (
    MalformedRecord, MixedSchema, NonFiniteValue, NonPositiveTemperature, TophError,
)
from toph.hardness import CcssInstance, ccss_to_json, ecme_to_json, reduce_to_ecme
from toph.synthgen import GeneratorSpec, chunk_rows, generate_blocks, read_dataset

from dataset_reference import reference_read_dataset


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "dists.jsonl"
    records = [
        {"schema_version": 1, "id": "peaked", "probs": [0.6, 0.3, 0.1]},
        {"schema_version": 1, "id": "minp", "probs": [0.6, 0.25, 0.1, 0.05]},
        {"schema_version": 1, "id": "pair", "probs": [0.5, 0.5]},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


# Input of the pinned ``toph sample`` outputs in sample_golden.json: ties, a
# zero tail, a singleton, and a record the candidate cap cuts.
GOLDEN_RECORDS = [
    {"id": "zipf12", "probs": [1.0 / (i + 1) / sum(1.0 / (j + 1) for j in range(12))
                               for i in range(12)]},
    {"id": "ties", "probs": [0.2] * 5},
    {"id": "pairs", "probs": [0.05, 0.3, 0.15, 0.3, 0.05, 0.15]},
    {"id": "zero_tail", "probs": [0.0, 0.5, 0.3, 0.2, 0.0]},
    {"id": "single", "probs": [1.0]},
    {"id": "wide150", "probs": [(i + 1) ** -0.5 / sum((j + 1) ** -0.5 for j in range(150))
                                for i in range(150)]},
]
GOLDEN_SEEDS = (0, 7, 2**40 + 3)
GOLDEN_NUM_SAMPLES = 12
GOLDEN_PATH = Path(__file__).with_name("sample_golden.json")


def write_golden_dataset(path):
    path.write_text("".join(json.dumps(r) + "\n" for r in GOLDEN_RECORDS))


class TestTruncateCommand:
    def test_top_h_golden(self, tmp_path, dataset):
        out = tmp_path / "out.jsonl"
        rc = main(["truncate", "--method", "top-h", "--alpha", "0.4",
                   "--input", str(dataset), "--output", str(out)])
        assert rc == 0
        records = read_jsonl(out)
        assert records[0]["id"] == "peaked"
        assert records[0]["selected"] == [0]
        assert records[0]["gamma"] == 0.6
        assert records[0]["threshold"] == pytest.approx(0.359178, abs=1e-6)
        assert records[0]["schema_version"] == 1

    def test_min_p_golden(self, tmp_path, dataset):
        out = tmp_path / "out.jsonl"
        rc = main(["truncate", "--method", "min-p", "--p-base", "0.1",
                   "--input", str(dataset), "--output", str(out)])
        assert rc == 0
        records = read_jsonl(out)
        assert records[1]["id"] == "minp"
        assert records[1]["selected"] == [0, 1, 2]
        assert records[1]["threshold"] is None

    def test_trace_flag(self, tmp_path, dataset):
        out = tmp_path / "out.jsonl"
        rc = main(["truncate", "--method", "top-h", "--trace",
                   "--input", str(dataset), "--output", str(out)])
        assert rc == 0
        rec = read_jsonl(out)[0]
        assert len(rec["trace"]) == len(rec["selected"])
        assert {"index", "gamma", "entropy"} <= set(rec["trace"][0])

    def test_trace_stop_reasons_and_dropped_mass(self, tmp_path):
        data = tmp_path / "stops.jsonl"
        records = [
            {"id": "budget", "probs": [0.6, 0.3, 0.1]},
            {"id": "zero_tail", "probs": [0.0, 1.0, 0.0]},
            {"id": "cap_exhausted", "probs": [1.0]},
            {"id": "cut", "probs": [0.5, 0.3, 0.125, 0.075]},
        ]
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "out.jsonl"
        rc = main(["truncate", "--method", "top-h", "--alpha", "0.9", "--candidate-cap", "2",
                   "--trace", "--input", str(data), "--output", str(out)])
        assert rc == 0
        got = read_jsonl(out)
        assert [r["stop_reason"] for r in got] == [
            "budget", "zero_tail", "cap_exhausted", "budget"]
        # the cap keeps two tokens: it cuts 0.1, one exact zero, nothing, 0.125 + 0.075
        assert [r["dropped_mass"] for r in got] == [0.1, 0.0, 0.0, 0.2]
        # the capped work rows are [2/3, 1/3] and [0.625, 0.375]: one token fits 0.9 H
        assert [r["selected"] for r in got] == [[0], [1], [0], [0]]
        # a cap of 1 ends every scan on the last candidate
        rc = main(["truncate", "--method", "top-h", "--candidate-cap", "1", "--trace",
                   "--input", str(data), "--output", str(out)])
        assert {r["stop_reason"] for r in read_jsonl(out)} == {"cap_exhausted"}

    def test_trace_h_p_full_is_the_uncapped_entropy(self, tmp_path):
        data, out = tmp_path / "wide.jsonl", tmp_path / "out.jsonl"
        write_gaussian_records(data, [50, 32768], seed=3)
        rc = main(["truncate", "--trace", "--input", str(data), "--output", str(out)])
        assert rc == 0
        small, wide = read_jsonl(out)
        # the cap of 100 covers n = 50: the working row is the input row
        assert small["h_p_full"] == small["h_p"]
        probs = read_jsonl(data)[1]["probs"]
        full = -sum(p * math.log(p) for p in probs if p > 0.0)
        assert wide["h_p_full"] != wide["h_p"]
        assert wide["h_p_full"] == pytest.approx(full, rel=1e-12)
        assert wide["h_p_full"] > wide["h_p"]
        # untraced records carry no h_p_full and keep their bytes
        untraced = tmp_path / "untraced.jsonl"
        assert main(["truncate", "--input", str(data), "--output", str(untraced)]) == 0
        for plain, traced in zip(read_jsonl(untraced), read_jsonl(out)):
            assert "h_p_full" not in plain
            assert plain == {key: traced[key] for key in plain}

    @pytest.mark.parametrize("method", ["top-k", "top-p", "min-p", "eta"])
    def test_trace_fields_of_baselines(self, tmp_path, dataset, method):
        out = tmp_path / "out.jsonl"
        assert main(["truncate", "--method", method, "--candidate-cap", "2", "--trace",
                     "--input", str(dataset), "--output", str(out)]) == 0
        got = read_jsonl(out)
        assert [r["stop_reason"] for r in got] == [None, None, None]
        assert [r["dropped_mass"] for r in got] == [0.1, 0.15000000000000002, 0.0]
        assert [r["trace"] for r in got] == [[], [], []]

    def test_default_output_has_no_trace_fields(self, tmp_path, dataset):
        out = tmp_path / "out.jsonl"
        assert main(["truncate", "--input", str(dataset), "--output", str(out)]) == 0
        for rec in read_jsonl(out):
            assert list(rec) == ["schema_version", "id", "method", "selected", "gamma",
                                 "h_p", "h_q", "threshold"]

    def test_bad_alpha_exits_1(self, tmp_path, dataset, capsys):
        rc = main(["truncate", "--method", "top-h", "--alpha", "1.5",
                   "--input", str(dataset), "--output", str(tmp_path / "x.jsonl")])
        assert rc == 1
        assert "(0, 1)" in capsys.readouterr().err

    def test_unused_bad_flag_exits_1(self, tmp_path, dataset):
        # every flag is range-checked, not only the chosen method's
        out = tmp_path / "x.jsonl"
        rc = main(["truncate", "--method", "top-k", "--alpha", "1.5",
                   "--input", str(dataset), "--output", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "probs": [0.9, 0.2]}\n')
        rc = main(["truncate", "--input", str(bad),
                   "--output", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["top-h", "top-k", "top-p"])
    def test_non_finite_record_exits_2(self, tmp_path, capsys, method):
        bad = tmp_path / "nan.jsonl"
        bad.write_text('{"id": "a", "probs": [0.5, 0.5]}\n'
                       '{"id": "b", "probs": [NaN, 0.5, 0.5]}\n')
        out = tmp_path / "x.jsonl"
        rc = main(["truncate", "--method", method, "--input", str(bad),
                   "--output", str(out)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, error, message", [
        ("Infinity", NonFiniteValue, "temperature must be finite, got inf"),
        ("NaN", NonPositiveTemperature, "temperature must be > 0, got nan"),
        ("-Infinity", NonPositiveTemperature, "temperature must be > 0, got -inf"),
    ])
    def test_non_finite_temperature_exits_2(self, tmp_path, capsys, value, error, message):
        # JSON Infinity parses to a float; it must not give a uniform softmax
        bad = tmp_path / "inf.jsonl"
        bad.write_text('{"id": "a", "logits": [0.0, 1.0], "temperature": 1.0}\n'
                       f'{{"id": "b", "logits": [0.0, 1.0], "temperature": {value}}}\n')
        out = tmp_path / "x.jsonl"
        rc = main(["truncate", "--input", str(bad), "--output", str(out)])
        assert rc == 2
        assert f"line 2: {message}" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(MalformedRecord) as err:
            list(read_dataset(bad))
        assert type(err.value.__cause__) is error

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_boolean_temperature_exits_2(self, tmp_path, capsys, value):
        # a JSON boolean is an int to isinstance; it must not pass as 1.0 or 0.0
        bad = tmp_path / "bool.jsonl"
        bad.write_text('{"id": "a", "logits": [0.0, 1.0], "temperature": 1.0}\n'
                       f'{{"id": "b", "logits": [0.0, 1.0], "temperature": {value}}}\n')
        out = tmp_path / "x.jsonl"
        rc = main(["truncate", "--input", str(bad), "--output", str(out)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()

    # second records of a two-record file, each with the reason it is refused
    BAD_RECORDS = {
        '{"id": "b", "probs": ["0.5", "0.5"]}': "'probs' must be a list of numbers",
        '{"id": "b", "probs": [true, false]}': "'probs' must be a list of numbers",
        '{"id": "b", "probs": [0.5, "0.5"]}': "'probs' must be a list of numbers",
        '{"id": "b", "logits": [true, "2"]}': "'logits' must be a list of numbers",
        '{"id": "b", "logits": [false, true]}': "'logits' must be a list of numbers",
        '{"id": "b", "logits": [0.0, "1.0"]}': "'logits' must be a list of numbers",
        '[1, 2]': "record is not a JSON object",
        '{"probs": [0.5, 0.5]}': "missing or non-string 'id'",
    }

    @pytest.mark.parametrize("record", list(BAD_RECORDS))
    def test_non_number_entry_exits_2(self, tmp_path, capsys, record):
        kind = "probs" if '"probs"' in record else "logits"
        bad = tmp_path / "bad.jsonl"
        bad.write_text(f'{{"id": "a", "{kind}": [0.5, 0.5]}}\n{record}\n')
        out = tmp_path / "x.jsonl"
        rc = main(["truncate", "--input", str(bad), "--output", str(out)])
        assert rc == 2
        assert f"line 2: {self.BAD_RECORDS[record]}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exits_2(self, tmp_path):
        rc = main(["truncate", "--input", str(tmp_path / "nope.jsonl"),
                   "--output", str(tmp_path / "x.jsonl")])
        assert rc == 2

    def test_manifest_written(self, tmp_path, dataset):
        out = tmp_path / "out.jsonl"
        main(["truncate", "--input", str(dataset), "--output", str(out)])
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        assert manifest["command"] == "truncate"
        assert manifest["config"]["alpha"] == 0.4
        assert manifest["config"]["method"] == "top_h"
        assert manifest["output"] == str(out)
        assert "tool_version" in manifest


class TestSampleCommand:
    def test_singleton_constant(self, tmp_path, dataset):
        out = tmp_path / "tokens.jsonl"
        rc = main(["sample", "--method", "top-h", "--alpha", "0.4",
                   "--input", str(dataset), "--output", str(out),
                   "--seed", "11", "--num-samples", "8"])
        assert rc == 0
        rec = read_jsonl(out)[0]
        assert rec["tokens"] == [0] * 8

    def test_two_token_frequencies(self, tmp_path):
        data = tmp_path / "pair.jsonl"
        data.write_text('{"id": "p", "probs": [0.5, 0.5]}\n')
        out = tmp_path / "tokens.jsonl"
        rc = main(["sample", "--method", "top-k", "--k", "2",
                   "--input", str(data), "--output", str(out),
                   "--seed", "42", "--num-samples", "10000"])
        assert rc == 0
        tokens = read_jsonl(out)[0]["tokens"]
        freq = tokens.count(0) / len(tokens)
        assert 0.48 <= freq <= 0.52

    def test_rerun_byte_identical(self, tmp_path, dataset):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        argv = ["sample", "--method", "top-p", "--p-nucleus", "0.9",
                "--input", str(dataset), "--seed", "3", "--num-samples", "64"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("method", ["top-h", "min-p"])
    def test_each_line_is_json_dumps_of_its_record(self, tmp_path, method):
        # ids with quotes, backslashes, control characters, non-ASCII text and
        # an astral character, which JSON escapes as a surrogate pair
        ids = ['say "hi"', "back\\slash", "tab\tnew\nline\r\x00\x1f\x7f", "caf\u00e9",
               "\u6f22\u5b57 \u2028", "\U0001f600", "", "/", "\\\"", "\ud800"]
        data, out = tmp_path / "ids.jsonl", tmp_path / "tokens.jsonl"
        data.write_text("".join(json.dumps({"id": rid, "probs": [0.5, 0.3, 0.2]}) + "\n"
                                for rid in ids), encoding="utf-8")
        assert main(["sample", "--method", method, "--seed", "4", "--num-samples", "3",
                     "--input", str(data), "--output", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == len(ids)
        for rid, line in zip(ids, lines):
            record = {"schema_version": 1, "id": rid, "method": method.replace("-", "_"),
                      "tokens": json.loads(line)["tokens"]}
            assert line == json.dumps(record) + "\n"


class TestSampleGolden:
    @pytest.mark.parametrize("method", ["top-h", "top-k", "top-p", "min-p", "eta"])
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_output_matches_pinned_bytes(self, tmp_path, method, seed):
        data, out = tmp_path / "golden.jsonl", tmp_path / "tokens.jsonl"
        write_golden_dataset(data)
        assert main(["sample", "--method", method, "--seed", str(seed),
                     "--num-samples", str(GOLDEN_NUM_SAMPLES),
                     "--input", str(data), "--output", str(out)]) == 0
        expected = json.loads(GOLDEN_PATH.read_text())[method][str(seed)]
        assert out.read_text() == expected


# ``toph generate`` flags of the pinned outputs: every family, zipf with a
# shuffle, and a Dirichlet concentration below 1 (the boosted gamma draw).
GENERATE_VARIANTS = {
    "zipf": ["--family", "zipf"],
    "zipf-shuffled": ["--family", "zipf", "--s", "1.3", "--shuffle"],
    "dirichlet": ["--family", "dirichlet"],
    "dirichlet-sparse": ["--family", "dirichlet", "--a", "0.1"],
    "gaussian_logits": ["--family", "gaussian_logits", "--sigma", "2.0", "--temperature", "0.7"],
    "one_hot_mix": ["--family", "one_hot_mix"],
    "uniform": ["--family", "uniform"],
}
# sha256 of the output of ``toph generate <variant> --n n --seed seed``, three
# records a run (two at n = 32768)
GENERATE_DIGESTS = {
    ("zipf", 1, 0): "f7bcd3c8db7e41ff876854b08db321f494e5aa613234014830cd9ffd42d5d964",
    ("zipf", 1, 11): "f7bcd3c8db7e41ff876854b08db321f494e5aa613234014830cd9ffd42d5d964",
    ("zipf", 2, 0): "09872c03e8d6ff1f5eaf5c6a46e07e9b8213b536d66e016caf9b4d05b208b667",
    ("zipf", 2, 11): "09872c03e8d6ff1f5eaf5c6a46e07e9b8213b536d66e016caf9b4d05b208b667",
    ("zipf", 100, 0): "85006498400eac29fa1d8af3018fe6027732b5c308c1ee99079e61425a341d3b",
    ("zipf", 100, 11): "85006498400eac29fa1d8af3018fe6027732b5c308c1ee99079e61425a341d3b",
    ("zipf", 32768, 0): "f586398e1cb047a0e5dc1d30de5d45ed58d99eebcb37c23c22a4983426f586fb",
    ("zipf", 32768, 11): "f586398e1cb047a0e5dc1d30de5d45ed58d99eebcb37c23c22a4983426f586fb",
    ("zipf-shuffled", 1, 0): "f7bcd3c8db7e41ff876854b08db321f494e5aa613234014830cd9ffd42d5d964",
    ("zipf-shuffled", 1, 11): "f7bcd3c8db7e41ff876854b08db321f494e5aa613234014830cd9ffd42d5d964",
    ("zipf-shuffled", 2, 0): "0da018541d1118b062a42270330e3c2cceb220b9ce8749fabab451d86f1aea1c",
    ("zipf-shuffled", 2, 11): "0da018541d1118b062a42270330e3c2cceb220b9ce8749fabab451d86f1aea1c",
    ("zipf-shuffled", 100, 0): "97e9389c73febaeb7b7ae804b56e88dba0afd7438a6e364e98583f17d4ba30c6",
    ("zipf-shuffled", 100, 11): "b599adb61d43404a2b09be20bcf8522e3140055cd37262c5b61a5b7748f8d3ea",
    ("zipf-shuffled", 32768, 0): "150df79a1df871b01decd21048f791a012024e3aa78ce02e72401cb6d8394def",
    ("zipf-shuffled", 32768, 11): "6bd84996b2373977882a3bd9232b60571b6d2a0208878cef2d7041049cf6be0e",
    ("dirichlet", 1, 0): "f7bcd3c8db7e41ff876854b08db321f494e5aa613234014830cd9ffd42d5d964",
    ("dirichlet", 1, 11): "f7bcd3c8db7e41ff876854b08db321f494e5aa613234014830cd9ffd42d5d964",
    ("dirichlet", 2, 0): "b8442ce8a152d851564d8e724815d06ccc6ff70c2b010274d88e0d088eb0ac74",
    ("dirichlet", 2, 11): "eb0a1646952d277a00ccd47a045f923d9a581eaa61d85ef1b892ad9894fc86f0",
    ("dirichlet", 100, 0): "370b92e25105c09c70c2aab67ffcefb14dcdcaa3b879b454a29b616c3b06a498",
    ("dirichlet", 100, 11): "2ec950f08217a3711b4bfb852587ceed2f735530e80c364b5231e751f1368807",
    ("dirichlet", 32768, 0): "7c4b553965762d54e5ae4448c1fc10ac2f541162fc67b1c617ca1174152f2fb9",
    ("dirichlet", 32768, 11): "25985b32950168f30cb81a4cf6ad44bcdf8a2df9b0e135480b195e600985eb7c",
    ("dirichlet-sparse", 1, 0): "f7bcd3c8db7e41ff876854b08db321f494e5aa613234014830cd9ffd42d5d964",
    ("dirichlet-sparse", 1, 11): "f7bcd3c8db7e41ff876854b08db321f494e5aa613234014830cd9ffd42d5d964",
    ("dirichlet-sparse", 2, 0): "78c7c5a1bc282d8a6d3e388badc6f6ac2b74d3888a69a4c2ebdbfe149c242a12",
    ("dirichlet-sparse", 2, 11): "64c3e194327e9f535798b88b16ca848eda5b6815dbfaa8348778ac94dbf65d8a",
    ("dirichlet-sparse", 100, 0): "3341218fc5d654ffa754a2b159837c9775d6e3d302039c1af5486f891af76d8b",
    ("dirichlet-sparse", 100, 11): "1dd70123606511fd1cb22a191cd143dd5b9626702b4802cf6f04fd6018bfddd6",
    ("dirichlet-sparse", 32768, 0): "ba85ccb05ca9751ee15aa9e71ff5bdcc47d93ebd4520360d33afade4c51e7288",
    ("dirichlet-sparse", 32768, 11): "d9de9bae2e6cf62e10b74aaacc2b3f441a0a054032a0a1f86ce28308810759a6",
    ("gaussian_logits", 1, 0): "f7bcd3c8db7e41ff876854b08db321f494e5aa613234014830cd9ffd42d5d964",
    ("gaussian_logits", 1, 11): "f7bcd3c8db7e41ff876854b08db321f494e5aa613234014830cd9ffd42d5d964",
    ("gaussian_logits", 2, 0): "8591ab1fbfef7d8f0a9a3658845658d966466f9557c5243ea46477610ef9fa2b",
    ("gaussian_logits", 2, 11): "487e2425900fea0d3f1d08db6b87f938a8bcfa29046b4f813e56c62d4908d060",
    ("gaussian_logits", 100, 0): "a22b0af83d1d1e65ea4b53f60481a0716585445c1b61a154d10fd38672927c20",
    ("gaussian_logits", 100, 11): "d96ef846f315b8b0195b9d21006cf1256fa34a0d7db3a2c9dc5f86c9016513bf",
    ("gaussian_logits", 32768, 0): "a7f8dea2f83239dda3bd20cb5f863ed97d103d356c1ee71bd8ee58f34577752c",
    ("gaussian_logits", 32768, 11): "15d2983e803bf7c13ad3a8d5c632a72a5024e9bf50f26efbfeba3833894bfd18",
    ("one_hot_mix", 1, 0): "f7bcd3c8db7e41ff876854b08db321f494e5aa613234014830cd9ffd42d5d964",
    ("one_hot_mix", 1, 11): "f7bcd3c8db7e41ff876854b08db321f494e5aa613234014830cd9ffd42d5d964",
    ("one_hot_mix", 2, 0): "7f11b8d4c02dc7e9d9a5f6ae759075be7eaf79db9e3b16bb8cfec034747c0fff",
    ("one_hot_mix", 2, 11): "7f11b8d4c02dc7e9d9a5f6ae759075be7eaf79db9e3b16bb8cfec034747c0fff",
    ("one_hot_mix", 100, 0): "dec1784be7bd3fd8ed197456697967b27122876b6eacf19acb6418451ed939f4",
    ("one_hot_mix", 100, 11): "63a1cbfe69c42c462b5e8f5177ea677da70ca9e5c2d32f2c5cb908adad6c6a6a",
    ("one_hot_mix", 32768, 0): "c87a1e4d63228800b21e1c3f72f3cbd5740119d35998c174d9ea8cd30e2df1d5",
    ("one_hot_mix", 32768, 11): "9bf8bc64bf073a0271157cd0eaee71e82fce8511b902ddfef000feffdbf6a734",
    ("uniform", 1, 0): "f7bcd3c8db7e41ff876854b08db321f494e5aa613234014830cd9ffd42d5d964",
    ("uniform", 1, 11): "f7bcd3c8db7e41ff876854b08db321f494e5aa613234014830cd9ffd42d5d964",
    ("uniform", 2, 0): "611449a9b41fda86b2805bf92b05771eaa19c6eb2eddc06057e6e9377b5ae5b7",
    ("uniform", 2, 11): "611449a9b41fda86b2805bf92b05771eaa19c6eb2eddc06057e6e9377b5ae5b7",
    ("uniform", 100, 0): "fbf57bd6d558393c16f287f7c27eea1700ad5226f01b5998237182d42266442c",
    ("uniform", 100, 11): "fbf57bd6d558393c16f287f7c27eea1700ad5226f01b5998237182d42266442c",
    ("uniform", 32768, 0): "aea9aa7f0e7f26737dbe55851f28bfaa20f04dbcca6bda0ba18d1ca9d7e9dc02",
    ("uniform", 32768, 11): "aea9aa7f0e7f26737dbe55851f28bfaa20f04dbcca6bda0ba18d1ca9d7e9dc02",
}


class TestGenerateGolden:
    @pytest.mark.parametrize("variant, n, seed", sorted(GENERATE_DIGESTS))
    def test_output_matches_pinned_digest(self, tmp_path, variant, n, seed):
        out = tmp_path / "g.jsonl"
        count = 2 if n == 32768 else 3
        assert main(["generate", *GENERATE_VARIANTS[variant], "--n", str(n),
                     "--count", str(count), "--seed", str(seed), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATE_DIGESTS[variant, n, seed]


class TestGeneratedBlocks:
    @pytest.mark.parametrize("variant", sorted(GENERATE_VARIANTS))
    def test_blocks_are_the_readers_blocks_of_the_written_file(self, tmp_path, variant):
        # two blocks at n = 100, the second one short
        count, out = chunk_rows(100) + 7, tmp_path / "g.jsonl"
        argv = ["generate", *GENERATE_VARIANTS[variant], "--n", "100", "--seed", "5",
                "--count", str(count), "--output", str(out)]
        assert main(argv) == 0
        generated = list(cli._generate(cli.build_parser().parse_args(argv), count))
        read = list(read_dataset(out))
        assert [block.ids for block in generated] == [block.ids for block in read]
        assert [block.probs.shape for block in generated] == [(chunk_rows(100), 100), (7, 100)]
        assert [block.probs.tobytes() for block in generated] == [
            block.probs.tobytes() for block in read]
        assert not any(block.probs.flags.writeable for block in generated)


class TestGenerateMemory:
    def test_peak_does_not_grow_with_the_record_count(self, tmp_path):
        # at n = 32768 a block holds one record, drawn, written and freed
        # before the next, so sixteen records peak where two do
        def peak(count):
            argv = ["generate", "--family", "uniform", "--n", "32768", "--count", str(count),
                    "--output", str(tmp_path / "g.jsonl")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # one-off costs, such as building the parser, land outside the measurement
        assert peak(16) < peak(2) + 2**20


class TestSampleMemory:
    def test_peak_does_not_grow_with_the_records_of_a_block(self, tmp_path):
        # 163 records of V=100 make one block, but 16384 draws a record fill
        # the element budget: each record is drawn and written before the next
        paths = {count: tmp_path / f"v{count}.jsonl" for count in (1, 163)}
        for count, path in paths.items():
            write_gaussian_records(path, [100] * count, seed=9)

        def peak(count):
            tracemalloc.start()
            try:
                assert main(["sample", "--num-samples", "16384", "--input", str(paths[count]),
                             "--output", str(tmp_path / "out")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # one-off costs, such as building the parser, land outside the measurement
        assert peak(163) < peak(1) + 2**20


def write_gaussian_records(path, sizes, seed):
    """Softmax-of-gaussian probs records of the given vocabulary sizes, some with exact zeros."""
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for i, n in enumerate(sizes):
            logits = rng.normal(0.0, 2.0, n)
            probs = np.exp(logits - logits.max())
            if i % 3 == 0:
                probs[rng.integers(0, n, size=n // 4)] = 0.0
                probs[np.argmax(probs)] = 1.0
            probs /= probs.sum()
            fh.write(json.dumps({"id": f"r{i}", "probs": probs.tolist()}) + "\n")


# sha256 of the outputs on a file of 200 records of V=100 (two blocks, the
# second short), then three of V=32768 (a block each): however the commands
# loop over blocks, each output must keep these bytes.  A one-token set has
# entropy +0.0: sweep's ratio at alpha 0.1, and every first trace step
STREAMED_DATA_DIGEST = "83c4b2b46257942bac391e1b4be003f294bf138d0012778507c2f0ad283954ad"
STREAMED_DIGESTS = {
    "sweep": (["sweep"],
              "7b4d4039814be154a9bb89f7b0011033b4513aeffc2cf11ccc01d875d80d5dcb"),
    "truncate": (["truncate"],
                 "2ce32bcad5ecd5dcf3c440dc3652745cfd00e8a0d36eb3f61f95d8d406049966"),
    "truncate-trace": (["truncate", "--trace"],
                       "a83326ce0b2ace7cc48d8c23cb604f6a44b118e0f04b92fe66523996382e0714"),
    "sample": (["sample", "--num-samples", "4"],
               "336ccd821f534bc609a86f8788bb223cac86885e135dd1ed01714f9430aa3e52"),
}


class TestStreamedGolden:
    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("streamed") / "multi.jsonl"
        write_gaussian_records(path, [100] * 200 + [32768] * 3, seed=203)
        return path

    @pytest.mark.parametrize("name", sorted(STREAMED_DIGESTS))
    def test_output_matches_pinned_digest(self, tmp_path, data, name):
        argv, digest = STREAMED_DIGESTS[name]
        assert hashlib.sha256(data.read_bytes()).hexdigest() == STREAMED_DATA_DIGEST
        out = tmp_path / "out"
        assert main([*argv, "--input", str(data), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def write_weighted_records(path, sizes, seed):
    """Records of small integer weights over their sum, with ties and some zeros.

    Each entry is a Python int divided by the row's Python int sum, a
    correctly rounded quotient, so the file's bytes do not depend on the CPU.
    """
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for i, n in enumerate(sizes):
            weights = [rng.randint(0, 12) for _ in range(n)]
            weights[rng.randrange(n)] += 1  # no row of zeros
            total = sum(weights)
            fh.write(json.dumps({"id": f"w{i}", "probs": [w / total for w in weights]}) + "\n")


# sha256 of the gap CSV of a generated run in exact-enum's command shape, and
# of runs on a file of 830 records of n = 20 (two blocks, the second short),
# then 5 of n = 7 and 2 of n = 1: however greedy is cut into blocks, each
# CSV must keep these bytes
GAP_DATA_DIGEST = "06cee261894a331cd3212de9d7113f7890853607eaae3eff73c02912f86dafc7"
GAP_GENERATED_DIGEST = "3c5e70ba1ca073efc96ac1f041513868de507e09f5a70631b452557dbb72106f"
GAP_INPUT_DIGESTS = {
    "0.3": "a8f5f6473719fda01493da9b845fce093595887bf6248203bba0c053041e8709",
    "0.9": "945627f1469f4a40887c7ba24516e23dcd8202192f253a039897976440e05bb4",
}


class TestGapGolden:
    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("gap") / "weights.jsonl"
        write_weighted_records(path, [20] * 830 + [7] * 5 + [1] * 2, seed=23)
        return path

    def test_generated_run_matches_pinned_digest(self, tmp_path):
        out = tmp_path / "gap.csv"
        assert main(["gap", "--family", "dirichlet", "--n", "20", "--alpha", "0.4",
                     "--trials", "4", "--seed", "5", "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GAP_GENERATED_DIGEST

    @pytest.mark.parametrize("alpha", sorted(GAP_INPUT_DIGESTS))
    def test_input_run_matches_pinned_digest(self, tmp_path, data, alpha):
        assert hashlib.sha256(data.read_bytes()).hexdigest() == GAP_DATA_DIGEST
        out = tmp_path / "gap.csv"
        assert main(["gap", "--input", str(data), "--alpha", alpha, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GAP_INPUT_DIGESTS[alpha]


# CCSS instances (weights, tau, K) whose hardness outputs are pinned: the
# tests' YES, NO and SPREAD instances, one K = 4 instance, two m == K == 20
# full-mode cases, the second with a deficit of 57, one m > K instance and
# one with a weight far above tau.
HARDNESS_CASES = {
    "yes": ((3, 5, 7), 15, 3),
    "no": ((3, 5, 7), 16, 3),
    "spread": ((763,) * 10 + (837,) * 10, 16000, 20),
    "k4": ((11, 17, 23, 31), 82, 4),
    "k20": ((778, 806, 824, 821, 818, 774, 786, 777, 801, 818,
             798, 800, 811, 794, 820, 783, 776, 801, 771, 827), 15984, 20),
    "k20-deficit": ((785, 807, 804, 778, 793, 828, 808, 800, 810, 807,
                     774, 808, 770, 828, 823, 800, 786, 805, 784, 782), 16037, 20),
    "m-above-k": ((9, 4, 12, 7, 3, 15, 6), 22, 3),
    "k3-above-tau": ((100000, 1, 1, 1), 3, 3),
}
# The hardness commands run on each case, in this order: ``reduce`` writes the
# ECME file that the others read.
HARDNESS_COMMANDS = {
    "reduce": ["reduce", "--input", "{ccss}"],
    "decide": ["decide", "--input", "{ecme}"],
    "decide-full": ["decide", "--mode", "full", "--input", "{ecme}"],
}
HARDNESS_DIGESTS = {
    "yes": {
        "reduce": "4fecf4d920c782cd68859102bb1438070d5ba456e2730ac641c76f08555c58f7",
        "decide": "bb2b63c0db7149643ca89eb098085999bb8dc20d57bbcd7ae1941ce1fc26f024",
        "decide-full": "b23ae5b0d0d9a44577f4d7b8c05add6cd33701f22dc0abb523519d76ba818861",
    },
    "no": {
        "reduce": "1f130befa11b888efa4620464e3dd7e8e5d7526feb0f2bfdbde56f753041c1c5",
        "decide": "4ad84d792ca71bc70049b805fd54af4fa78dda5e0cc6f1dbbf28321f0aaec17c",
        "decide-full": "4ad84d792ca71bc70049b805fd54af4fa78dda5e0cc6f1dbbf28321f0aaec17c",
    },
    "spread": {
        "reduce": "b97dfdaa8e0611ceb23579b7b0a4e3fa39f5cb08aa40494ec02249f9e4e664c9",
        "decide": "0fbad03c50201cf8ef00d77be090edfa933fb6c850252109ef6117089f59cc6f",
        "decide-full": "c510591038d6256bce5c49a5ded8b3910666485d640a8f62afbcb7feefbfc7d5",
    },
    "k4": {
        "reduce": "10cc388859ab65edb58bb7e222e509322eb3ea1ba1094e3aecf40910c1079cb1",
        "decide": "4e65c9fc7078500dde37e485b76e863e4270de936a572b6a4b9c57c428c58bf4",
        "decide-full": "cb497d6b9a8788a71d97957e2caead6b71fbc348919f24676304f4462e9af4a3",
    },
    "k20": {
        "reduce": "18b8d4cde3325cae32f94d55356dac88e7a354f7fa9553dfb0535a19b22d695e",
        "decide": "0fbad03c50201cf8ef00d77be090edfa933fb6c850252109ef6117089f59cc6f",
        "decide-full": "c510591038d6256bce5c49a5ded8b3910666485d640a8f62afbcb7feefbfc7d5",
    },
    "k20-deficit": {
        "reduce": "47b26b8f5bcb8aeb62a373225d6b4d7dd161f03e046098b00f4ee378e1cf0920",
        "decide": "4ad84d792ca71bc70049b805fd54af4fa78dda5e0cc6f1dbbf28321f0aaec17c",
        "decide-full": "4ad84d792ca71bc70049b805fd54af4fa78dda5e0cc6f1dbbf28321f0aaec17c",
    },
    "m-above-k": {
        "reduce": "7514a4e2fea79b506fb71d3173358d849bbd3b55d3f8859efc3e09fefb678221",
        "decide": "37e0e14cc2540a5e9c45947579e940d158bd5503e2674a5c77a3c27fb09e7878",
        "decide-full": "cd7a1a490d6636c3b886ed4c979661b7b4a532b272cb5e9823c1536ef63877be",
    },
    "k3-above-tau": {
        "reduce": "0b61fe5986a29befb942397248096b4330603038d883edc9b26b6a9f9a0845f4",
        "decide": "5f59b3dbb3d40c716b6d832912360d6fd10790a5d221b1825c93e70815176904",
        "decide-full": "c149f89ac8147e8318b2591c4b39301cf18a38407408617c2c16fbcded5cfded",
    },
}


class TestHardnessGolden:
    """``reduce`` and ``decide`` in both modes write the same bytes: one digest
    per command covers its exit code, stdout and ``--output`` file."""

    @pytest.mark.parametrize("name", sorted(HARDNESS_CASES))
    def test_outputs_match_pinned_digest(self, tmp_path, name):
        weights, tau, k = HARDNESS_CASES[name]
        paths = {"ccss": tmp_path / "ccss.json", "ecme": tmp_path / "ecme.json"}
        paths["ccss"].write_text(json.dumps(ccss_to_json(CcssInstance(weights, tau, k))))
        digests = {}
        for command, argv in HARDNESS_COMMANDS.items():
            out = paths["ecme"] if command == "reduce" else tmp_path / f"{command}.json"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main([a.format(**paths) for a in argv] + ["--output", str(out)])
            digest = hashlib.sha256()
            for part in (str(code).encode(), stdout.getvalue().encode(), out.read_bytes()):
                digest.update(len(part).to_bytes(8, "little") + part)
            digests[command] = digest.hexdigest()
        assert digests == HARDNESS_DIGESTS[name]


class TestInputMemory:
    @pytest.fixture(scope="class")
    def wide(self, tmp_path_factory):
        """Files of 1, 2 and 16 records of V=32768, by count."""
        root = tmp_path_factory.mktemp("wide")
        for count in (1, 2, 16):
            write_gaussian_records(root / f"w{count}.jsonl", [32768] * count, seed=16)
        return {count: root / f"w{count}.jsonl" for count in (1, 2, 16)}

    @pytest.mark.parametrize("argv, code", [
        pytest.param(["truncate"], 0, id="truncate"),
        pytest.param(["sample", "--num-samples", "4"], 0, id="sample"),
        pytest.param(["sweep", "--alphas", "0.2,0.6"], 0, id="sweep"),
        # refused for its largest n, read to the end without keeping a block
        pytest.param(["gap"], 1, id="gap"),
    ])
    def test_peak_does_not_grow_with_the_record_count(self, tmp_path, capsys, wide, argv, code):
        # at n = 32768 a block holds one record, which is selected and
        # written (or summed) before the next is read: sixteen peak where two do
        def peak(count):
            tracemalloc.start()
            try:
                assert main([*argv, "--input", str(wide[count]),
                             "--output", str(tmp_path / "out")]) == code
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # one-off costs, such as building the parser, land outside the measurement
        assert peak(16) < peak(2) + 2**20
        if code:
            assert "dataset contains n=32768, above the exhaustive-enumeration limit of 20" \
                in capsys.readouterr().err


BOUNDARY_COMMANDS = [
    *[["truncate", "--method", m, *t] for m in ("top-h", "top-k", "top-p", "min-p", "eta")
      for t in ([], ["--trace"])],
    ["truncate", "--method", "top-h", "--candidate-cap", "30", "--trace"],
    ["sample", "--method", "top-h", "--seed", "5", "--num-samples", "7"],
    ["sample", "--method", "eta", "--seed", "6", "--num-samples", "3"],
    ["sweep", "--alphas", "0.1,0.4,0.8"],
    ["sweep", "--alphas", "0.3,0.9", "--candidate-cap", "40"],
]


class TestChunkBoundaries:
    """Chunked runs give the bytes of record-by-record runs (chunks of one)."""

    ROWS = synthgen.CHUNK_ELEMENTS // 100  # records of 100 tokens per chunk

    def assert_same_as_record_by_record(self, tmp_path, monkeypatch, data):
        for argv in BOUNDARY_COMMANDS:
            chunked, single = tmp_path / "chunked.out", tmp_path / "single.out"
            assert main(argv + ["--input", str(data), "--output", str(chunked)]) == 0
            with monkeypatch.context() as m:
                m.setattr(synthgen, "CHUNK_ELEMENTS", 1)
                assert main(argv + ["--input", str(data), "--output", str(single)]) == 0
            assert chunked.read_bytes() == single.read_bytes(), argv

    @pytest.mark.parametrize("count", [1, ROWS - 1, ROWS, ROWS + 1])
    def test_around_one_chunk(self, tmp_path, monkeypatch, count):
        data = tmp_path / "v100.jsonl"
        write_gaussian_records(data, [100] * count, seed=count)
        self.assert_same_as_record_by_record(tmp_path, monkeypatch, data)

    def test_mixed_vocabulary_sizes(self, tmp_path, monkeypatch):
        # runs of equal n split where n changes and where the budget fills
        # (5000 tokens: three records a chunk)
        sizes = [100] * 5 + [5000] * 7 + [1, 1, 3] + [100] * 2 + [300] * 60 + [5000]
        data = tmp_path / "mixed.jsonl"
        write_gaussian_records(data, sizes, seed=11)
        self.assert_same_as_record_by_record(tmp_path, monkeypatch, data)


class TestGapCommand:
    def test_uniform_family_is_exact(self, tmp_path, capsys):
        out = tmp_path / "gap.csv"
        rc = main(["gap", "--family", "uniform", "--n", "8", "--alpha", "0.4",
                   "--trials", "5", "--seed", "7", "--output", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "mean=1.0" in stdout
        assert "variance=0.0" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "instance_id,n,alpha,gamma_greedy,gamma_optimal,ratio"
        assert len(lines) == 6

    def test_limit_exits_1(self, tmp_path, capsys):
        rc = main(["gap", "--family", "zipf", "--n", "25", "--trials", "2",
                   "--output", str(tmp_path / "gap.csv")])
        assert rc == 1
        assert "20" in capsys.readouterr().err

    def test_manifest_has_summary(self, tmp_path, capsys):
        out = tmp_path / "gap.csv"
        main(["gap", "--family", "zipf", "--s", "1.1", "--n", "10",
              "--alpha", "0.4", "--trials", "3", "--seed", "7",
              "--output", str(out)])
        manifest = json.loads((tmp_path / "gap.csv.manifest.json").read_text())
        assert {"mean", "variance", "min", "count_suboptimal"} <= set(
            manifest["config"]["summary"]
        )


class TestSweepCommand:
    def test_sizes_grow_with_alpha(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--family", "dirichlet", "--a", "1.0", "--n", "12",
                   "--trials", "40", "--seed", "5",
                   "--alphas", "0.1,0.3,0.5,0.7,0.9", "--output", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        sizes = [float(r.split(",")[1]) for r in rows]
        assert sizes == sorted(sizes)

    def test_tiny_alpha_near_singletons(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--family", "one_hot_mix", "--peak", "0.9", "--n", "10",
                   "--trials", "30", "--seed", "5", "--alphas", "0.01",
                   "--output", str(out)])
        assert rc == 0
        mean_size = float(out.read_text().splitlines()[1].split(",")[1])
        assert mean_size == pytest.approx(1.0, abs=0.2)

    def test_single_alpha_matches_truncate_aggregate(self, tmp_path, dataset):
        sweep_out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--input", str(dataset), "--alphas", "0.4",
                   "--output", str(sweep_out)])
        assert rc == 0
        row = sweep_out.read_text().splitlines()[1].split(",")
        trunc_out = tmp_path / "trunc.jsonl"
        main(["truncate", "--method", "top-h", "--alpha", "0.4",
              "--input", str(dataset), "--output", str(trunc_out)])
        records = read_jsonl(trunc_out)
        mean_size = sum(len(r["selected"]) for r in records) / len(records)
        mean_gamma = sum(r["gamma"] for r in records) / len(records)
        assert float(row[1]) == pytest.approx(mean_size, abs=1e-12)
        assert float(row[2]) == pytest.approx(mean_gamma, abs=1e-12)

    def test_bad_alpha_grid_exits_1(self, tmp_path, dataset):
        rc = main(["sweep", "--input", str(dataset), "--alphas", "0.5,1.5",
                   "--output", str(tmp_path / "s.csv")])
        assert rc == 1

    def test_zero_candidate_cap_exits_1(self, tmp_path, dataset):
        rc = main(["sweep", "--input", str(dataset), "--candidate-cap", "0",
                   "--output", str(tmp_path / "s.csv")])
        assert rc == 1

    def test_zero_trials_exits_1(self, tmp_path, capsys):
        rc = main(["sweep", "--trials", "0", "--output", str(tmp_path / "s.csv")])
        assert rc == 1
        assert "--trials must be >= 1" in capsys.readouterr().err


class TestHardnessCommands:
    def yes_path(self, tmp_path):
        path = tmp_path / "ccss.json"
        path.write_text(json.dumps(ccss_to_json(CcssInstance((3, 5, 7), 15, 3))))
        return path

    def edited_ecme(self, tmp_path, path, value):
        """A ``reduce`` output with the field at ``path`` (keys and indices) set to ``value``."""
        ecme = tmp_path / "ecme.json"
        main(["reduce", "--input", str(self.yes_path(tmp_path)), "--output", str(ecme)])
        obj = json.loads(ecme.read_text())
        *parents, last = path
        target = obj
        for key in parents:  # a missing object is added, as an old file holds it
            target = target.setdefault(key, {}) if isinstance(target, dict) else target[key]
        target[last] = value
        ecme.write_text(json.dumps(obj))
        return ecme

    def test_reduce_verify_decide_yes(self, tmp_path, capsys):
        ccss = self.yes_path(tmp_path)
        ecme = tmp_path / "ecme.json"
        rc = main(["reduce", "--input", str(ccss), "--output", str(ecme)])
        assert rc == 0
        assert capsys.readouterr().out == "k=3 m=3 boosters=3\n"
        obj = json.loads(ecme.read_text())
        assert obj["k"] == 3
        assert obj["booster_count"] == "3"
        # the manifest records budget - ln K and the proof's least booster
        # overshoot less that margin
        config = json.loads((tmp_path / "ecme.json.manifest.json").read_text())["config"]
        assert config == {"budget_window": {"lower_margin": "0.083333333",
                                            "upper_margin": "0.069672022"}}

        rc = main(["decide", "--input", str(ecme), "--output", str(tmp_path / "d.json")])
        assert rc == 0
        assert "YES" in capsys.readouterr().out
        assert json.loads((tmp_path / "d.json").read_text())["decision"] == "YES"

    def test_decide_no(self, tmp_path, capsys):
        ccss = tmp_path / "no.json"
        ccss.write_text(json.dumps(ccss_to_json(CcssInstance((3, 5, 7), 16, 3))))
        ecme = tmp_path / "ecme.json"
        assert main(["reduce", "--input", str(ccss), "--output", str(ecme)]) == 0
        capsys.readouterr()
        assert main(["decide", "--input", str(ecme)]) == 0
        assert capsys.readouterr().out.strip() == "NO"

    def test_corrupt_instance_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "ccss", "weights": "oops"}\n')
        rc = main(["reduce", "--input", str(bad), "--output", str(tmp_path / "o.json")])
        assert rc == 2

    @pytest.mark.parametrize("content", [
        None,  # missing file
        '{"schema_version": 1, "kind": "ccss", "weights": ["3"], "tau": "3", "k": 1}\n',
        "[1, 2]\n",
        '{"kind": "ccss", "weights": ["3"], "tau": "3", "k": ' + "1" * 5000 + "}\n",
        "[" * 100_000 + "\n",
    ], ids=["missing", "wrong-kind", "not-an-object", "int-beyond-str-limit", "deep-nesting"])
    def test_whole_file_error_names_file(self, tmp_path, capsys, content):
        path = tmp_path / "instance.json"
        if content is not None:
            path.write_text(content)
        rc = main(["decide", "--input", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "line 0" not in err

    def test_corrupted_budget_fails_verify(self, tmp_path, capsys):
        # the reader recomputes the budget, so an edited one is refused at load
        ecme = self.edited_ecme(tmp_path, ("budget",), "4.1")
        capsys.readouterr()
        assert main(["decide", "--input", str(ecme)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{ecme}: not a valid ECME object: budget is not what weights" in captured.err

    @pytest.mark.parametrize("weights, tau, k, witness", [
        ((100000, 1, 1, 1), 3, 3, [1, 2, 3]),
        ((24,) + (1,) * 20, 20, 20, list(range(1, 21))),
    ], ids=["k3", "k20"])
    def test_weight_above_tau_reduces(self, tmp_path, capsys, weights, tau, k, witness):
        # a weight above tau is in no solution; the pad takes it like any other
        ccss, ecme = tmp_path / "ccss.json", tmp_path / "ecme.json"
        ccss.write_text(json.dumps(ccss_to_json(CcssInstance(weights, tau, k))))
        assert main(["reduce", "--input", str(ccss), "--output", str(ecme)]) == 0
        for argv in (["decide"], ["decide", "--mode", "full"]):
            capsys.readouterr()
            assert main([*argv, "--input", str(ecme)]) == 0
            assert capsys.readouterr().out.splitlines()[:2] == ["YES", f"witness_heavy={witness}"]

    def test_old_format_ecme_exits_2(self, tmp_path, capsys):
        # a file as the reduction with K**lambda implicit boosters wrote it
        # for SPREAD (B = 20**6), with its constants object
        ecme = tmp_path / "old.json"
        obj = ecme_to_json(reduce_to_ecme(CcssInstance((763,) * 10 + (837,) * 10, 16000, 20)))
        del obj["pad"]
        obj.update(booster_count="64000000", constants={
            "gamma_k": {"num": "1", "den": "6400"}, "lambda_k": 6,
            "booster_count": "64000000", "w_b": {"num": "1", "den": "8000"}})
        ecme.write_text(json.dumps(obj))
        for argv in (["decide"], ["decide", "--mode", "full"]):
            capsys.readouterr()
            assert main([*argv, "--input", str(ecme), "--output", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert (f"toph: input error: {ecme}: not a valid ECME object: booster_count is not "
                    "what weights, tau and k give; pad is not") in err
            assert "constants is not an ECME field" in err
            assert not (tmp_path / "o").exists()

    def test_decide_domain_limit_exits_3(self, tmp_path, capsys):
        ccss = tmp_path / "wide.json"
        # m == K == 120 reduces (K >= 118 was once refused); both decide modes
        # refuse its 120 heavy items (120 > 28)
        weights = [str(1000 + i % 3) for i in range(120)]
        ccss.write_text(json.dumps({"schema_version": 1, "kind": "ccss", "weights": weights,
                                    "tau": str(sum(map(int, weights))), "k": 120}))
        ecme = tmp_path / "ecme.json"
        assert main(["reduce", "--input", str(ccss), "--output", str(ecme)]) == 0
        config = json.loads((tmp_path / "ecme.json.manifest.json").read_text())["config"]
        assert all(float(m) > 0 for m in config["budget_window"].values())
        for argv in (["decide"], ["decide", "--mode", "full"]):
            capsys.readouterr()
            assert main([*argv, "--input", str(ecme)]) == 3
            assert "m=120 exceeds the full-space limit 28" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, wrong", [
        (("beta",), {"num": "1", "den": "2"}, "beta is not what"),
        (("booster_prob",), {"num": "1", "den": "3"}, "booster_prob is not what"),
        (("heavy_probs", 0), {"num": "1", "den": "21"}, "heavy_probs is not what"),
        (("constants", "normalizer"), {"num": "1", "den": "1"},
         "constants is not an ECME field"),
        (("booster_count",), "7", "booster_count is not what weights, tau and k give"),
        (("constants", "lambda_k"), 7, "constants is not an ECME field"),
        (("pad",), "30", "pad is not what weights, tau and k give"),
    ], ids=["beta", "booster_prob", "heavy_prob", "normalizer", "booster_count", "lambda", "pad"])
    def test_contradictory_field_fails_exact_fields(self, tmp_path, capsys, path, value, wrong):
        # the reader refuses a stored field that the weights, tau and K do not
        # give, and a field the writer does not write (the constants object
        # of an older format); each edited file differs from a reduce output
        # in one field
        ecme = self.edited_ecme(tmp_path, path, value)
        for argv in (["decide"], ["decide", "--mode", "full"]):
            capsys.readouterr()
            assert main([*argv, "--input", str(ecme), "--output", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert f"toph: input error: {ecme}: not a valid ECME object: {wrong}" in err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path, value", [
        (("beta",), {"num": "1", "den": "0"}),
        (("heavy_probs", 0), {"num": "1", "den": "0"}),
        (("constants", "w_b"), {"num": "1", "den": "0"}),
        (("tau",), "0"),
        (("tau",), "-15"),
        (("weights", 0), "0"),
        (("booster_count",), "0"),
        (("constants", "w_b"), {"num": "0", "den": "1"}),
        (("budget",), "inf"),
        (("budget",), "nan"),
        (("constants", "theta_k"), "inf"),
        (("constants", "delta_k"), "nan"),
        (("constants", "epsilon_k"), "-inf"),
        (("constants", "lambda_raw"), "nan"),
        (("k",), 2),
        (("weights",), []),
        (("pad",), "0"),
        (("pad",), "-31"),
    ], ids=["beta-den-0", "heavy-prob-den-0", "w_b-den-0", "tau-0", "tau-negative",
            "weight-0", "booster-count-0", "w_b-0", "budget-inf", "budget-nan", "theta-inf",
            "delta-nan", "epsilon-minus-inf", "lambda-raw-nan", "k-2", "no-weights", "pad-0",
            "pad-negative"])
    @pytest.mark.parametrize("argv", [["decide"], ["decide", "--mode", "full"]],
                             ids=["decide", "decide-full"])
    def test_out_of_range_field_exits_2(self, tmp_path, capsys, path, value, argv):
        ecme = self.edited_ecme(tmp_path, path, value)
        capsys.readouterr()
        assert main([*argv, "--input", str(ecme)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"toph: input error: {ecme}: not a valid ECME object" in captured.err

    def consistent_ecme(self, tmp_path, edit):
        """The ECME file that ``ecme_to_json`` writes for ``edit`` of the YES instance."""
        ecme = tmp_path / "ecme.json"
        instance = reduce_to_ecme(CcssInstance((3, 5, 7), 15, 3))
        ecme.write_text(json.dumps(ecme_to_json(edit(instance))))
        return ecme

    def test_hand_written_m_above_k_is_decided(self, tmp_path, capsys):
        # one more heavy item, written by ecme_to_json: the reduction of
        # (3, 5, 7, 3) pads by the same M, so the file is a reduce output
        ecme = self.consistent_ecme(
            tmp_path, lambda e: dataclasses.replace(e, weights=e.weights + e.weights[:1]))
        assert json.loads(ecme.read_text())["weights"] == ["3", "5", "7", "3"]
        for argv in (["decide"], ["decide", "--mode", "full"]):
            capsys.readouterr()
            assert main([*argv, "--input", str(ecme)]) == 0
            assert capsys.readouterr().out.splitlines()[:2] == ["YES", "witness_heavy=[0, 1, 2]"]

    def test_k_above_m_exits_2(self, tmp_path, capsys):
        # K = 30 > m = 3 makes no CCSS instance, so no reduce output has it
        ecme = self.edited_ecme(tmp_path, ("k",), 30)
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert main(["decide", "--input", str(ecme), "--output", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a valid ECME object: need 3 <= K <= m, got K=30, m=3" in captured.err
        assert not report.exists()


@pytest.fixture(scope="module")
def yes_ecme():
    """The ``reduce`` output of the YES instance (3, 5, 7)/15, as a JSON object."""
    return ecme_to_json(reduce_to_ecme(CcssInstance((3, 5, 7), 15, 3)))


def _run(argv):
    """``main(argv)`` with stdout and stderr captured: (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _paths(obj, prefix=()):
    """The path (keys and indices) of every value inside ``obj``, containers included."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield (*prefix, key)
        yield from _paths(value, (*prefix, key))


def _perturbed(value, delta):
    """``value`` moved by ``delta``: integers and decimal strings exactly, decimal
    fractions (the mpmath fields) relatively; anything else unchanged."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value + delta
    if isinstance(value, str):
        try:
            return str(int(value) + delta)
        except ValueError:
            pass
        try:
            return str(float(value) * (1 + delta / 1e3))
        except ValueError:
            pass
    return value


def _as_written(value):
    """``value`` as JSON text, with an integer spelt as its decimal string."""
    if isinstance(value, int) and not isinstance(value, bool):
        value = str(value)
    return json.dumps(value)


# Values a hand edit might leave where a writer wrote something else.
_RETYPED = [None, True, False, 0, -1, 2**70, 1.5, float("inf"), "", "x", "1_5", " 3", "1e3",
            [], {}, ["3"], {"num": "1", "den": "0"}]


class TestStrictInstanceReaders:
    """An instance reader accepts what the writers write and refuses the rest
    with exit 2, the path on stderr and no output file."""

    @pytest.mark.parametrize("field, value", [
        ("weights", "357"),
        ("weights", {"3": "1", "5": "1", "7": "1"}),
        ("weights", [3.9, 5.2, 7.0]),
        ("tau", 15.7),
        ("tau", " 1_5 "),
        ("tau", True),
        ("k", "3"),
        ("k", 3.9),
        ("junk", 1),  # a field ccss_to_json does not write: "junk is not a CCSS field"
        ("pad", "31"),
    ], ids=["weights-string", "weights-dict", "weights-floats", "tau-float", "tau-underscored",
            "tau-true", "k-string", "k-float", "junk", "pad"])
    def test_loose_ccss_value_exits_2(self, tmp_path, field, value):
        ccss = tmp_path / "ccss.json"
        ccss.write_text(json.dumps({**ccss_to_json(CcssInstance((3, 5, 7), 15, 3)),
                                    field: value}))
        out = tmp_path / "ecme.json"
        code, err = _run(["reduce", "--input", str(ccss), "--output", str(out)])
        assert code == 2
        assert f"toph: input error: {ccss}: not a valid CCSS object: {field}" in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value, reason", [
        ("beta", {"num": "1", "den": "2"}, "beta is not what weights, tau and k give"),
        ("booster_count", str(10**30), "booster_count is not what weights, tau and k give"),
        ("weights", [True] * 21, "weights[0] must be a decimal string or a JSON integer"),
        ("budget", True, "budget is not what weights, tau and k give"),
        ("constants.theta_k", "0.0001", "constants is not an ECME field"),
        ("constants.theta_k", "5", "constants is not an ECME field"),
        ("constants.delta_k", "123", "constants is not an ECME field"),
        ("constants.lambda_raw", "-7", "constants is not an ECME field"),
        ("pad", "32", "pad is not what weights, tau and k give"),
    ], ids=["beta-one-half", "booster-count-1e30", "weights-true", "budget-true",
            "theta-1e-4", "theta-5", "delta-123", "lambda-raw-minus-7", "pad-32"])
    @pytest.mark.parametrize("argv", [["decide"], ["decide", "--mode", "full"]],
                             ids=["decide", "decide-full"])
    def test_inconsistent_ecme_exits_2(self, tmp_path, yes_ecme, field, value, reason, argv):
        obj = json.loads(json.dumps(yes_ecme))
        *parents, last = field.split(".")
        target = obj
        for key in parents:  # the constants object of an older format is added
            target = target.setdefault(key, {})
        target[last] = value
        ecme = tmp_path / "ecme.json"
        ecme.write_text(json.dumps(obj))
        out = tmp_path / "out.json"
        code, err = _run([*argv, "--input", str(ecme), "--output", str(out)])
        assert code == 2
        assert f"toph: input error: {ecme}: not a valid ECME object: {reason}" in err
        assert not out.exists()

    def test_writers_output_loads(self, tmp_path, yes_ecme):
        # JSON integers are integers too, where the reader takes strings
        ccss = tmp_path / "ccss.json"
        ccss.write_text(json.dumps({"kind": "ccss", "weights": [3, "5", 7], "tau": 15, "k": 3}))
        ecme = tmp_path / "ecme.json"
        assert _run(["reduce", "--input", str(ccss), "--output", str(ecme)])[0] == 0
        assert json.loads(ecme.read_text()) == yes_ecme
        ecme.write_text(json.dumps({**yes_ecme, "tau": int(yes_ecme["tau"])}))
        assert _run(["decide", "--input", str(ecme)]) == (0, "")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_files_exit_cleanly(self, tmp_path_factory, yes_ecme, data):
        # retype, delete or perturb one value of a valid file: every command
        # that reads it exits 0, 2 or 3, and writes nothing when it exits 2.
        # An ECME file is a reduce output, so any changed value but the
        # schema version makes it one no more: that exits 2.
        argv = data.draw(st.sampled_from([["reduce"], ["decide"], ["decide", "--mode", "full"]]))
        obj = json.loads(json.dumps(ccss_to_json(CcssInstance((3, 5, 7), 15, 3))
                                    if argv == ["reduce"] else yes_ecme))
        path = data.draw(st.sampled_from(list(_paths(obj))))
        *parents, last = path
        parent = obj
        for key in parents:
            parent = parent[key]
        action = data.draw(st.sampled_from(["retype", "delete", "perturb"]))
        before = parent[last]
        if action == "delete":
            del parent[last]
        elif action == "retype":
            parent[last] = data.draw(st.sampled_from(_RETYPED))
        else:
            parent[last] = _perturbed(parent[last], data.draw(st.sampled_from([-2, -1, 1, 7])))
        changed = action == "delete" or _as_written(parent[last]) != _as_written(before)
        tmp = tmp_path_factory.mktemp("mutated")
        instance, out = tmp / "instance.json", tmp / "out.json"
        instance.write_text(json.dumps(obj))
        code, err = _run([*argv, "--input", str(instance), "--output", str(out)])
        assert code in (0, 2, 3)
        assert "Traceback" not in err
        if argv != ["reduce"] and changed and path != ("schema_version",):
            assert code == 2, (path, action, parent[last] if action != "delete" else None)
        if code == 2:
            assert str(instance) in err
            assert not out.exists()


class TestParser:
    def test_main_builds_the_parser_once(self, monkeypatch, capsys):
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            assert main(["--version"]) == 0
            assert main(["gap", "--n", "25", "--output", "unused.csv"]) == 1
        finally:
            cli._parser.cache_clear()
        assert built == [1]
        assert build() is not build()

    def test_verify_is_not_a_command(self, capsys):
        assert main(["verify", "--input", "x"]) == 1
        assert "invalid choice: 'verify'" in capsys.readouterr().err

    def test_readme_examples_name_every_command(self):
        # the `toph ...` lines of README's fenced code blocks use exactly the
        # parser's subcommands, so a command cannot be added or removed unseen
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = readme.split("```")[1::2]
        documented = {line.split()[1] for block in blocks for line in block.splitlines()
                      if line.startswith("toph ")}
        (commands,) = [a.choices for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        assert documented == set(commands)


class TestDeterminism:
    def test_all_writing_commands_rerun_byte_identical(self, tmp_path, dataset):
        ccss = tmp_path / "ccss.json"
        ccss.write_text(json.dumps(ccss_to_json(CcssInstance((3, 5, 7), 15, 3))))
        cases = [
            (["generate", "--family", "gaussian_logits", "--n", "14", "--sigma", "2.0",
              "--count", "25", "--seed", "9"], "g.jsonl"),
            (["truncate", "--method", "top-h", "--alpha", "0.4",
              "--input", str(dataset)], "t.jsonl"),
            (["sample", "--method", "top-h", "--input", str(dataset),
              "--seed", "1", "--num-samples", "32"], "s.jsonl"),
            (["gap", "--family", "zipf", "--s", "1.1", "--n", "10",
              "--trials", "4", "--seed", "7"], "gap.csv"),
            (["sweep", "--input", str(dataset), "--alphas", "0.2,0.6"], "sw.csv"),
            (["reduce", "--input", str(ccss)], "e.json"),
        ]
        for argv, name in cases:
            a, b = tmp_path / ("a_" + name), tmp_path / ("b_" + name)
            assert main(argv + ["--output", str(a)]) == 0
            assert main(argv + ["--output", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), name


class TestManifests:
    @pytest.fixture()
    def inputs(self, tmp_path, dataset):
        ccss = tmp_path / "ccss.json"
        ccss.write_text(json.dumps(ccss_to_json(CcssInstance((3, 5, 7), 15, 3))))
        ecme = tmp_path / "ecme.json"
        assert main(["reduce", "--input", str(ccss), "--output", str(ecme)]) == 0
        return {"dataset": str(dataset), "ccss": str(ccss), "ecme": str(ecme)}

    COMMANDS = {
        "generate": ["--n", "5", "--count", "3"],
        "truncate": ["--input", "{dataset}"],
        "sample": ["--input", "{dataset}"],
        "gap": ["--n", "6", "--trials", "3"],
        "sweep": ["--input", "{dataset}"],
        "reduce": ["--input", "{ccss}"],
        "decide": ["--input", "{ecme}"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_command_writes_manifest(self, tmp_path, inputs, command):
        out = tmp_path / "out"
        argv = [command] + [a.format(**inputs) for a in self.COMMANDS[command]]
        assert main(argv + ["--output", str(out)]) == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["output"] == str(out)

    def test_symlinked_output_is_written_through(self, tmp_path, dataset):
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        target.write_text("old\n")
        link.symlink_to(target)
        assert main(["truncate", "--input", str(dataset), "--output", str(link)]) == 0
        assert link.is_symlink()
        assert read_jsonl(target)[0]["id"] == "peaked"

    def test_a_chain_of_symlinks_is_written_through(self, tmp_path, dataset):
        target, middle, link = (tmp_path / f"{name}.jsonl" for name in ("target", "mid", "link"))
        target.write_text("old\n")
        middle.symlink_to(target)
        link.symlink_to(middle)
        assert main(["truncate", "--input", str(dataset), "--output", str(link)]) == 0
        assert link.is_symlink() and middle.is_symlink()
        assert read_jsonl(target)[0]["id"] == "peaked"

    def test_a_dangling_symlink_creates_its_target(self, tmp_path, dataset):
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        link.symlink_to(target)
        assert main(["truncate", "--input", str(dataset), "--output", str(link)]) == 0
        assert link.is_symlink()
        assert read_jsonl(target)[0]["id"] == "peaked"

    def test_output_under_a_symlinked_directory(self, tmp_path, dataset):
        real, linked = tmp_path / "real", tmp_path / "linked"
        real.mkdir()
        linked.symlink_to(real, target_is_directory=True)
        assert main(["truncate", "--input", str(dataset), "--output",
                     str(linked / "out.jsonl")]) == 0
        assert (real / "out.jsonl").is_file() and not (real / "out.jsonl").is_symlink()
        assert read_jsonl(real / "out.jsonl")[0]["id"] == "peaked"
        # no temporary file is left beside the output
        assert sorted(p.name for p in real.iterdir()) == ["out.jsonl", "out.jsonl.manifest.json"]

    def test_decide_manifest_records_mode(self, tmp_path, inputs):
        out = tmp_path / "d.json"
        assert main(["decide", "--input", inputs["ecme"], "--mode", "full",
                     "--output", str(out)]) == 0
        manifest = json.loads((tmp_path / "d.json.manifest.json").read_text())
        assert manifest["config"] == {"mode": "full"}
        assert manifest["input"] == inputs["ecme"]


class TestGeneratorManifests:
    GENERATOR_KEYS = {"family", "n", "s", "a", "sigma", "temperature", "peak", "shuffle"}

    def manifest_config(self, tmp_path, argv):
        out = tmp_path / "out.csv"
        assert main(argv + ["--output", str(out)]) == 0
        return json.loads((tmp_path / "out.csv.manifest.json").read_text())

    def test_sweep_records_every_generator_flag(self, tmp_path):
        argv = ["sweep", "--family", "zipf", "--n", "8", "--trials", "3", "--alphas", "0.4"]
        low = self.manifest_config(tmp_path, argv + ["--s", "1.1"])
        high = self.manifest_config(tmp_path, argv + ["--s", "2.0", "--shuffle"])
        assert low["config"] != high["config"]
        assert low["config"]["s"] == 1.1 and high["config"]["s"] == 2.0
        assert high["config"]["shuffle"] is True
        assert self.GENERATOR_KEYS | {"trials"} <= set(low["config"])
        assert low["seed"] == 0

    def test_gap_records_shuffle(self, tmp_path, capsys):
        manifest = self.manifest_config(
            tmp_path, ["gap", "--n", "6", "--trials", "2", "--shuffle", "--seed", "4"])
        assert manifest["config"]["shuffle"] is True
        assert self.GENERATOR_KEYS | {"trials"} <= set(manifest["config"])
        assert manifest["seed"] == 4

    @pytest.mark.parametrize("command", ["gap", "sweep"])
    def test_input_run_records_no_generator_flag(self, tmp_path, dataset, capsys, command):
        manifest = self.manifest_config(
            tmp_path, [command, "--input", str(dataset), "--family", "dirichlet", "--n", "9"])
        assert not (self.GENERATOR_KEYS | {"trials"}) & set(manifest["config"])
        assert manifest["seed"] is None
        assert manifest["input"] == str(dataset)

    def test_generate_manifest_regenerates_output(self, tmp_path):
        out = tmp_path / "g.jsonl"
        assert main(["generate", "--family", "zipf", "--n", "7", "--count", "4", "--s", "1.7",
                     "--shuffle", "--seed", "5", "--output", str(out)]) == 0
        manifest = json.loads((tmp_path / "g.jsonl.manifest.json").read_text())
        config = manifest["config"]
        replay = tmp_path / "replay.jsonl"
        argv = ["generate", "--seed", str(manifest["seed"]), "--output", str(replay)]
        for key, value in config.items():
            flag = "--" + key
            if isinstance(value, bool):
                argv += [flag] if value else []
            else:
                argv += [flag, str(value)]
        assert main(argv) == 0
        assert replay.read_bytes() == out.read_bytes()


class TestEmptyInput:
    @pytest.mark.parametrize("command", ["truncate", "sample", "gap", "sweep"])
    @pytest.mark.parametrize("content", ["", "\n  \n"])
    def test_exits_1_without_output(self, tmp_path, capsys, command, content):
        data = tmp_path / "empty.jsonl"
        data.write_text(content)
        out = tmp_path / "out"
        rc = main([command, "--input", str(data), "--output", str(out)])
        assert rc == 1
        assert f"dataset {data} is empty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data]


class TestRefusedRuns:
    """A refused run exits with its documented code and leaves no file behind."""

    @pytest.mark.parametrize("argv, code, message", [
        pytest.param(["truncate", "--input", "{data}", "--output", "{tmp}/missing/out"], 1,
                     "cannot write {tmp}/missing/out: No such file or directory",
                     id="output-in-missing-directory"),
        pytest.param(["sweep", "--input", "{data}", "--output", "{tmp}/dir"], 1,
                     "cannot write {tmp}/dir: Is a directory", id="output-is-a-directory"),
        *[pytest.param([command, "--input", "{tmp}/dir", "--output", "{tmp}/out"], 2,
                       "Is a directory: '{tmp}/dir'", id=f"{command}-input-is-a-directory")
          for command in ("truncate", "sample", "gap", "sweep")],
        pytest.param(["truncate", "--input", "{tmp}/latin1.jsonl", "--output", "{tmp}/out"], 2,
                     "{tmp}/latin1.jsonl is not UTF-8 text", id="non-utf8-jsonl"),
        pytest.param(["reduce", "--input", "{tmp}/latin1.json", "--output", "{tmp}/out"], 2,
                     "cannot parse {tmp}/latin1.json", id="non-utf8-ccss"),
        pytest.param(["decide", "--input", "{tmp}/latin1.json", "--output", "{tmp}/out"], 2,
                     "cannot parse {tmp}/latin1.json", id="non-utf8-ecme"),
        pytest.param(["sample", "--num-samples", "0", "--input", "{data}",
                      "--output", "{tmp}/out"], 1, "--num-samples must be >= 1",
                     id="zero-num-samples"),
        pytest.param(["generate", "--count", "0", "--output", "{tmp}/out"], 1,
                     "--count must be >= 1", id="zero-count"),
        pytest.param(["sweep", "--alphas", "0.2,x", "--input", "{data}", "--output", "{tmp}/out"],
                     1, "--alphas must be a comma-separated float list", id="non-float-alpha"),
        pytest.param(["sweep", "--alphas", ",", "--input", "{data}", "--output", "{tmp}/out"],
                     1, "--alphas is empty", id="no-alpha"),
        *[pytest.param([command, "--family", "dirichlet", "--a", "1e-5", "--n", "20",
                        "--output", "{tmp}/out"], 1, "probabilities must be finite, got sum nan",
                       id=f"{command}-nan-dirichlet-row")
          for command in ("generate", "gap", "sweep")],
        *[pytest.param(["generate", f"--{field}", "inf", "--output", "{tmp}/out"], 1,
                       f"{field} must be finite, got inf", id=f"generate-infinite-{field}")
          for field in ("s", "a", "sigma", "temperature", "peak")],
        *[pytest.param(["generate", "--family", "gaussian_logits", f"--{field}", "0",
                        "--output", "{tmp}/out"], 1, f"{field} must be > 0",
                       id=f"generate-zero-{field}")
          for field in ("sigma", "temperature")],
    ])
    def test_exit_code_and_no_file(self, tmp_path, dataset, capsys, argv, code, message):
        (tmp_path / "dir").mkdir()
        (tmp_path / "latin1.jsonl").write_bytes(b'{"id": "caf\xe9", "probs": [1.0]}\n')
        (tmp_path / "latin1.json").write_bytes(b'{"kind": "ecme", "weights": ["\xe9"]}\n')
        files = sorted(tmp_path.rglob("*"))
        fields = {"tmp": str(tmp_path), "data": str(dataset)}
        assert main([a.format(**fields) for a in argv]) == code
        assert message.format(**fields) in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == files

    @staticmethod
    def write_bad_second_block(data):
        # 163 records of V=100 fill a block; line 170 sits in the second
        assert synthgen.chunk_rows(100) == 163
        write_gaussian_records(data, [100] * 200, seed=170)
        lines = data.read_text().splitlines(keepends=True)
        lines[169] = json.dumps({"id": "r169", "probs": [0.015625] * 100}) + "\n"
        data.write_text("".join(lines))

    @pytest.mark.parametrize("argv", [
        ["truncate"], ["sample", "--num-samples", "4"], ["sweep", "--alphas", "0.2,0.6"]])
    def test_bad_row_past_the_first_block(self, tmp_path, capsys, argv):
        data, out = tmp_path / "v100.jsonl", tmp_path / "out"
        self.write_bad_second_block(data)
        out.write_bytes(b"previous output\n")
        files = sorted(tmp_path.iterdir())
        assert main([*argv, "--input", str(data), "--output", str(out)]) == 2
        assert "line 170: mass 1.5625 deviates" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == files
        assert out.read_bytes() == b"previous output\n"

    @pytest.mark.parametrize("command, code, message", [
        ("truncate", 1, "cannot write {out}: No such file or directory"),
        ("sample", 1, "cannot write {out}: No such file or directory"),
        ("sweep", 2, "line 170: mass 1.5625 deviates"),
    ])
    def test_unwritable_output_and_a_bad_row_past_the_first_block(
            self, tmp_path, capsys, command, code, message):
        # truncate and sample read their input while they write it, so the
        # output is opened, and refused, before the second block is read;
        # sweep reads every block before it writes
        data, out = tmp_path / "v100.jsonl", tmp_path / "missing" / "out"
        self.write_bad_second_block(data)
        assert main([command, "--input", str(data), "--output", str(out)]) == code
        assert message.format(out=out) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data]

    def test_nan_generated_row_past_the_first_block(self, tmp_path, capsys):
        # at n = 400 a block holds 40 records; seed 0's first all-zero
        # Dirichlet draw is record 74, in the second block
        spec = GeneratorSpec(family="dirichlet", n=400, a=1e-5, seed=0)
        assert chunk_rows(400) == 40
        next(generate_blocks(spec, 80))
        out = tmp_path / "out"
        assert main(["generate", "--family", "dirichlet", "--a", "1e-5", "--n", "400",
                     "--count", "80", "--output", str(out)]) == 1
        assert "probabilities must be finite, got sum nan" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failure_mid_output_keeps_previous_files(self, tmp_path, dataset, monkeypatch):
        argv = ["truncate", "--input", str(dataset), "--output", str(tmp_path / "out.jsonl")]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert "out.jsonl.manifest.json" in before
        calls = iter(range(1, 100))
        real = cli._truncate_record

        def third_record_fails(*args):
            if next(calls) == 3:
                raise TophError("third record")
            return real(*args)

        monkeypatch.setattr(cli, "_truncate_record", third_record_fails)
        assert main(argv) == 3
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestGapFromDataset:
    def test_reads_dataset_instead_of_generating(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        data.write_text('{"id": "x", "probs": [0.4, 0.3, 0.2, 0.1]}\n')
        out = tmp_path / "gap.csv"
        rc = main(["gap", "--input", str(data), "--alpha", "0.4",
                   "--output", str(out)])
        assert rc == 0
        assert "count_suboptimal=1" in capsys.readouterr().out
        assert out.read_text().splitlines()[1].endswith(",0.8")

    def test_oversized_dataset_exits_1(self, tmp_path):
        data = tmp_path / "d.jsonl"
        probs = [1.0 / 25] * 25
        data.write_text(json.dumps({"id": "big", "probs": probs}) + "\n")
        rc = main(["gap", "--input", str(data), "--output", str(tmp_path / "g.csv")])
        assert rc == 1

    def test_refusal_names_the_largest_n(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        write_gaussian_records(data, [4, 25, 3, 300, 30], seed=1)
        rc = main(["gap", "--input", str(data), "--output", str(tmp_path / "g.csv")])
        assert rc == 1
        assert "dataset contains n=300, above" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data]


#: The commands that read a JSONL ``--input``.
_DATASET_COMMANDS = ["truncate", "sample", "gap", "sweep"]


class TestUnparsableLines:
    """A line that Python's JSON parser cannot take, though it may be valid
    JSON, is a bad record on its line like any other."""

    @pytest.mark.parametrize("bad", [
        '{"id": "b", "probs": [' + "1" * 5000 + "]}\n",
        "[" * 100_000 + "\n",
    ], ids=["int-beyond-str-limit", "deep-nesting"])
    @pytest.mark.parametrize("command", _DATASET_COMMANDS)
    def test_exits_2_naming_the_line(self, tmp_path, command, bad):
        data, out = tmp_path / "d.jsonl", tmp_path / "out"
        data.write_text('{"id": "a", "probs": [0.5, 0.5]}\n' + bad)
        code, err = _run([command, "--input", str(data), "--output", str(out)])
        assert code == 2
        assert "toph: input error: line 2: cannot parse JSON: " in err
        assert "Traceback" not in err
        assert not out.exists()


def _valid_records(kind, sizes):
    """Records of ``kind`` with ``sizes`` tokens each, as ``toph generate`` might write them."""
    if kind == "probs":
        return [{"schema_version": 1, "id": f"r{i}",
                 "probs": [(j + 1) / (n * (n + 1) / 2) for j in range(n)]}
                for i, n in enumerate(sizes)]
    return [{"schema_version": 1, "id": f"r{i}", "logits": [0.5 * j - 1.0 for j in range(n)],
             "temperature": 0.7} for i, n in enumerate(sizes)]


# Values a hand edit might leave in a dataset record.
_RETYPED_ENTRIES = [None, True, "x", "0.5", 0, 1, 2**70, -1.0, [], {}, [0.5]]


class TestMutatedDatasets:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_files_exit_cleanly(self, tmp_path_factory, data):
        # retype a value, delete a key or an entry, cut a line short or put a
        # NaN or an infinity in one entry of a record of a valid file: every
        # command that reads it exits 0, 1 or 2 with no traceback, writes
        # nothing unless it exits 0, and exits 2 naming the earliest bad line
        # exactly when the reference reader refuses the file.  (An infinite
        # temperature is left out: the reference takes it, the reader refuses
        # it, and test_non_finite_temperature_exits_2 pins that.)
        command = data.draw(st.sampled_from(_DATASET_COMMANDS))
        kind = data.draw(st.sampled_from(["probs", "logits"]))
        sizes = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
        records = _valid_records(kind, sizes)
        row = data.draw(st.integers(0, len(records) - 1))
        record = records[row]
        keys = [(key,) for key in record] + [(kind, j) for j in range(len(record[kind]))]
        action = data.draw(st.sampled_from(["retype", "delete", "cut", "non-finite"]))
        lines = [json.dumps(r) + "\n" for r in records]
        if action == "cut":
            lines[row] = lines[row][:data.draw(st.integers(0, len(lines[row]) - 2))] + "\n"
        else:
            if action == "non-finite":
                keys = keys[len(record):]
            path = data.draw(st.sampled_from(keys))
            parent = record if len(path) == 1 else record[kind]
            if action == "delete":
                del parent[path[-1]]
            elif action == "retype":
                parent[path[-1]] = data.draw(st.sampled_from(_RETYPED_ENTRIES))
            else:
                parent[path[-1]] = data.draw(st.sampled_from(
                    [float("nan"), float("inf"), float("-inf")]))
            lines[row] = json.dumps(record) + "\n"
        tmp = tmp_path_factory.mktemp("mutated")
        dataset, out = tmp / "d.jsonl", tmp / "out"
        dataset.write_text("".join(lines))
        try:
            reference_read_dataset(dataset)
            refused = None
        except (MalformedRecord, MixedSchema) as exc:
            refused = str(exc).split(":")[0]  # "line N"
        code, err = _run([command, "--input", str(dataset), "--output", str(out)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code != 0:
            assert not out.exists()
        assert (code == 2) == (refused is not None)
        if code == 2:
            assert f"toph: input error: {refused}: " in err
