"""CLI contract tests: outputs, exit codes, manifests, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from toph import truncation
from toph.cli import main
from toph.hardness import CcssInstance, ccss_to_json, save_json


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

    @pytest.mark.parametrize("record", [
        '{"id": "b", "probs": ["0.5", "0.5"]}',
        '{"id": "b", "probs": [true, false]}',
        '{"id": "b", "probs": [0.5, "0.5"]}',
        '{"id": "b", "logits": [true, "2"]}',
        '{"id": "b", "logits": [false, true]}',
        '{"id": "b", "logits": [0.0, "1.0"]}',
    ])
    def test_non_number_entry_exits_2(self, tmp_path, capsys, record):
        kind = "probs" if '"probs"' in record else "logits"
        bad = tmp_path / "bad.jsonl"
        bad.write_text(f'{{"id": "a", "{kind}": [0.5, 0.5]}}\n{record}\n')
        out = tmp_path / "x.jsonl"
        rc = main(["truncate", "--input", str(bad), "--output", str(out)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err
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

    ROWS = truncation.CHUNK_ELEMENTS // 100  # records of 100 tokens per chunk

    def assert_same_as_record_by_record(self, tmp_path, monkeypatch, data):
        for argv in BOUNDARY_COMMANDS:
            chunked, single = tmp_path / "chunked.out", tmp_path / "single.out"
            assert main(argv + ["--input", str(data), "--output", str(chunked)]) == 0
            with monkeypatch.context() as m:
                m.setattr(truncation, "CHUNK_ELEMENTS", 1)
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
        save_json(ccss_to_json(CcssInstance((3, 5, 7), 15, 3)), path)
        return path

    def test_reduce_verify_decide_yes(self, tmp_path, capsys):
        ccss = self.yes_path(tmp_path)
        ecme = tmp_path / "ecme.json"
        rc = main(["reduce", "--input", str(ccss), "--output", str(ecme)])
        assert rc == 0
        assert "k=21" in capsys.readouterr().out
        obj = json.loads(ecme.read_text())
        assert obj["k"] == 21
        assert obj["constants"]["lambda_k"] == 6

        rc = main(["verify", "--input", str(ecme)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS budget_window" in out
        assert "lower_margin=" in out
        assert "PASS heavy_count: m=21 K=21" in out

        rc = main(["decide", "--input", str(ecme), "--output", str(tmp_path / "d.json")])
        assert rc == 0
        assert "YES" in capsys.readouterr().out
        assert json.loads((tmp_path / "d.json").read_text())["decision"] == "YES"

    def test_decide_no(self, tmp_path, capsys):
        ccss = tmp_path / "no.json"
        save_json(ccss_to_json(CcssInstance((3, 5, 7), 16, 3)), ccss)
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
    ], ids=["missing", "wrong-kind", "not-an-object"])
    def test_whole_file_error_names_file(self, tmp_path, capsys, content):
        path = tmp_path / "instance.json"
        if content is not None:
            path.write_text(content)
        rc = main(["verify", "--input", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "line 0" not in err

    def test_corrupted_budget_fails_verify(self, tmp_path, capsys):
        ccss = self.yes_path(tmp_path)
        ecme = tmp_path / "ecme.json"
        main(["reduce", "--input", str(ccss), "--output", str(ecme)])
        obj = json.loads(ecme.read_text())
        obj["budget"] = "4.1"
        ecme.write_text(json.dumps(obj))
        capsys.readouterr()
        rc = main(["verify", "--input", str(ecme)])
        assert rc == 3
        assert "FAIL budget_window" in capsys.readouterr().out

    def test_decide_domain_limit_exits_3(self, tmp_path, capsys):
        ccss = tmp_path / "wide.json"
        # m == K == 13 scales to 26 heavy items: structural mode decides it
        # directly, full mode refuses it (26 > 22)
        weights = [str(w) for w in range(10, 23)]
        save_json({"schema_version": 1, "kind": "ccss", "weights": weights,
                   "tau": str(sum(range(10, 23))), "k": 13}, ccss)
        ecme = tmp_path / "ecme.json"
        assert main(["reduce", "--input", str(ccss), "--output", str(ecme)]) == 0
        capsys.readouterr()
        assert main(["decide", "--input", str(ecme)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "YES"
        rc = main(["decide", "--input", str(ecme), "--mode", "full"])
        assert rc == 3
        assert "full-space limit 22" in capsys.readouterr().err

    def test_hand_written_m_not_k_exits_3(self, tmp_path, capsys):
        ecme = tmp_path / "ecme.json"
        main(["reduce", "--input", str(self.yes_path(tmp_path)), "--output", str(ecme)])
        obj = json.loads(ecme.read_text())
        obj["weights"].append(obj["weights"][0])
        obj["heavy_probs"].append(obj["heavy_probs"][0])
        ecme.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["decide", "--input", str(ecme)]) == 3
        err = capsys.readouterr().err
        assert "m=22" in err and "K=21" in err and "--mode full" in err
        assert main(["verify", "--input", str(ecme)]) == 3
        assert "FAIL heavy_count: m=22 K=21" in capsys.readouterr().out


class TestDeterminism:
    def test_all_writing_commands_rerun_byte_identical(self, tmp_path, dataset):
        ccss = tmp_path / "ccss.json"
        save_json(ccss_to_json(CcssInstance((3, 5, 7), 15, 3)), ccss)
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
        save_json(ccss_to_json(CcssInstance((3, 5, 7), 15, 3)), ccss)
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
        "verify": ["--input", "{ecme}"],
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
