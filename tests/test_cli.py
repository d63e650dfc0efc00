"""End-to-end command-line checks on tiny budgets.

A 30-step training run will not produce a useful model; these tests pin the
plumbing: artifacts exist, formats round-trip, exit codes and error messages
behave.
"""

import json
import os

import numpy as np
import pytest

from promptner.checkpoint import load_checkpoint
from promptner.cli import _train_setup, build_parser, main
from promptner.data import TYPES as FIXTURE_TYPES, load_dataset
from promptner.decoder import DecodeConfig, decode
from promptner.trainer import evaluate_dataset
from test_checkpoint import rewrite_header

FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "fixture", "model.ckpt")
SENTENCE = "marie curie visited montreal on monday"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic data plus one small trained checkpoint, shared per module."""
    root = tmp_path_factory.mktemp("cli")
    train, dev = root / "train.jsonl", root / "dev.jsonl"
    assert main(["synth-data", "--train-out", str(train), "--dev-out", str(dev),
                 "--train-size", "10", "--dev-size", "4", "--seed", "0"]) == 0
    ckpt = root / "model.ckpt"
    trace = root / "trace.jsonl"
    assert main(["train", "--data", str(train), "--out", str(ckpt),
                 "--steps", "30", "--seed", "0", "--trace", str(trace)]) == 0
    return {"root": root, "train": train, "dev": dev, "ckpt": ckpt, "trace": trace}


class TestSynthData:
    def test_files_created_with_sizes(self, workspace):
        lines = workspace["train"].read_text().strip().splitlines()
        assert len(lines) == 10
        rec = json.loads(lines[0])
        assert "tokenized_text" in rec and "ner" in rec

    def test_deterministic_given_seed(self, workspace, tmp_path):
        t2, d2 = tmp_path / "t.jsonl", tmp_path / "d.jsonl"
        main(["synth-data", "--train-out", str(t2), "--dev-out", str(d2),
              "--train-size", "10", "--dev-size", "4", "--seed", "0"])
        assert t2.read_text() == workspace["train"].read_text()


class TestTrain:
    def test_checkpoint_loads(self, workspace):
        model, seeds = load_checkpoint(workspace["ckpt"])
        assert seeds == [0]
        assert len(model.params) > 0

    def test_trace_records_steps(self, workspace):
        records = [json.loads(l) for l in workspace["trace"].read_text().splitlines()]
        steps = [r["step"] for r in records if "step" in r]
        assert steps == list(range(1, 31))
        assert all("loss" in r and "lr" in r for r in records if "step" in r)

    def test_same_seed_same_trace(self, workspace, tmp_path):
        out = tmp_path / "m.ckpt"
        tr2 = tmp_path / "trace.jsonl"
        main(["train", "--data", str(workspace["train"]), "--out", str(out),
              "--steps", "30", "--seed", "0", "--trace", str(tr2)])
        assert tr2.read_text() == workspace["trace"].read_text()

    def test_dev_report_printed_last(self, workspace, tmp_path, capsys):
        out = tmp_path / "m.ckpt"
        assert main(["train", "--data", str(workspace["train"]), "--dev", str(workspace["dev"]),
                     "--out", str(out), "--steps", "2", "--seed", "0"]) == 0
        last = json.loads(capsys.readouterr().out.splitlines()[-1])
        types = sorted({m.type for ex in load_dataset(workspace["train"]) for m in ex.gold})
        report = evaluate_dataset(load_checkpoint(out)[0], load_dataset(workspace["dev"]), types)
        assert last == {"dev_report": report.to_dict()}

    def test_empty_dataset_fails_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["train", "--data", str(empty), "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_eval_every_without_dev_refused(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"steps": 3, "eval_every": 1, "log_every": 1, "batch_size": 4}')
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--data", str(workspace["train"]), "--config", str(cfg),
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not out.exists()
        assert captured.err == "error: eval_every=1 needs a dev set to evaluate on\n"

    def test_non_finite_model_leaves_no_checkpoint(self, workspace, tmp_path, capsys,
                                                   monkeypatch):
        # a diverged run, simulated: training leaves a NaN in one parameter
        def diverge(dataset, model, tcfg, **kwargs):
            model.params["encoder.final_ln.b"].data[0] = np.nan
            return []

        monkeypatch.setattr("promptner.cli.fit", diverge)
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--data", str(workspace["train"]), "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == (f"error: {out}: non-finite value in "
                                           f"'encoder.final_ln.b', checkpoint not written\n")

    def test_sentence_without_gold_refused_under_sample(self, tmp_path, capsys):
        # the default type_policy "sample" prompts a sentence with its own
        # gold types, so the second sentence has none: refused before training
        data, cfg, out = tmp_path / "train.jsonl", tmp_path / "cfg.json", tmp_path / "m.ckpt"
        data.write_text('{"tokenized_text": ["alain", "farley", "works", "at", "mcgill"], '
                        '"ner": [[0, 1, "person"], [4, 4, "organization"]]}\n'
                        '{"tokenized_text": ["it", "rained", "today"], "ner": []}\n')
        cfg.write_text('{"steps": 3, "batch_size": 2}')
        rc = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not out.exists()
        assert captured.err.startswith("error: example 1 has no gold mention")


class TestTrainConfig:
    def test_file_sets_fields_and_flags_override(self, tmp_path):
        # the keys demos/cli_workflow.py writes, plus k and seed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "steps": 2000, "lr_encoder": 2e-3, "lr_head": 2e-3,
            "init_scale": 0.05, "encoder_dropout": 0.0, "head_dropout": 0.0,
            "drop_prob": 0.0, "type_policy": "inventory",
            "shuffle_types": False, "log_every": 500, "k": 4, "seed": 3}))
        args = build_parser().parse_args(["train", "--data", "d.jsonl", "--out", "m.ckpt",
                                          "--config", str(cfg), "--steps", "7"])
        mcfg, tcfg, vocab_size, init_scale = _train_setup(args)
        assert (tcfg.steps, tcfg.seed, tcfg.lr_encoder, tcfg.shuffle_types) == (7, 3, 2e-3, False)
        assert (mcfg.k, mcfg.head_dropout, mcfg.encoder.dropout) == (4, 0.0, 0.0)
        assert (vocab_size, init_scale) == (2000, 0.05)

    def test_int_accepted_for_float_field(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr_head": 1, "init_scale": 1}))
        args = build_parser().parse_args(["train", "--data", "d.jsonl", "--out", "m.ckpt",
                                          "--config", str(cfg)])
        mcfg, tcfg, vocab_size, init_scale = _train_setup(args)
        assert (tcfg.lr_head, init_scale) == (1, 1)

    @pytest.mark.parametrize("content, message", [
        ('{"lr_encodr": 0.001}', "unknown key(s) lr_encodr"),
        ('{"dropout": 0.0}', "unknown key(s) dropout"),
        ('{"steps": 2,', "invalid JSON"),
        ('{"steps": 1' + '0' * 5000 + '}', "invalid JSON"),
        ('[1, 2]', "JSON object"),
        ('{"steps": "3"}', "steps must be int"),
        ('{"shuffle_types": "no"}', "shuffle_types must be bool"),
        ('{"k": true}', "k must be int"),
        ('{"k": 4.0}', "k must be int"),
        ('{"lr_head": false}', "lr_head must be float"),
        ('{"head_dropout": NaN}', "head_dropout must be float, got NaN"),
        ('{"lr_encoder": -Infinity}', "lr_encoder must be float"),
        ('{"init_scale": 1' + '0' * 400 + '}', "init_scale must be float"),
        ('{"type_policy": 1}', "type_policy must be str"),
        ('{"vocab_size": "big"}', "vocab_size must be int"),
        ('{"init_scale": null}', "init_scale must be float"),
    ])
    def test_bad_config_fails_cleanly(self, workspace, tmp_path, capsys, content, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        rc = main(["train", "--data", str(workspace["train"]), "--config", str(cfg),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "m.ckpt").exists()


    @pytest.mark.parametrize("content, message", [
        ('{"batch_size": 0}', "need batch_size >= 1"),
        ('{"reduction": "max"}', "unknown reduction 'max'"),
        ('{"type_policy": "all"}', "unknown type_policy 'all'"),
        ('{"k": 0}', "need k >= 1"),
        ('{"encoder_dropout": 1.0}', "dropout 1.0 outside [0, 1)"),
        ('{"width": 10, "heads": 3}', "width 10 and heads 3"),
        ('{"width": -4}', "width -4 and heads 4"),
        ('{"width": 0}', "width 0 and heads 4"),
        ('{"ffn_mult": -1}', "ffn_mult -1"),
        ('{"max_positions": -2}', "max_positions -2"),
        ('{"init_scale": -1}', "init_scale must be >= 0, got -1"),
        ('{"vocab_size": 4}', "vocab_size must fit the 4 specials plus a unit, got 4"),
        ('{"steps": -1}', "steps >= 1"),
        ('{"steps": 0}', "steps >= 1"),
        ('{"seed": -1}', "seed >= 0"),
        ('{"neg_ratio": 1.5}', "in [0, 1), got (0.0003, 0.0003, 0.01, 50, 0), 1.5 and 0.2"),
        ('{"drop_prob": -0.1}', "in [0, 1), got (0.0003, 0.0003, 0.01, 50, 0), 0.5 and -0.1"),
        ('{"log_every": -1}', "got (0.0003, 0.0003, 0.01, -1, 0)"),
        ('{"eval_every": -2}', "got (0.0003, 0.0003, 0.01, 50, -2)"),
        ('{"lr_head": -1}', "got (0.0003, -1, 0.01, 50, 0)"),
        ('{"lr_encoder": -0.5}', "got (-0.5, 0.0003, 0.01, 50, 0)"),
        ('{"weight_decay": -1}', "got (0.0003, 0.0003, -1, 50, 0)"),
    ])
    def test_range_errors_name_the_file(self, workspace, tmp_path, capsys, content, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        rc = main(["train", "--data", str(workspace["train"]), "--config", str(cfg),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {cfg}: ") and message in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_range_error_without_file_names_the_command_line(self, workspace, tmp_path,
                                                             capsys):
        rc = main(["train", "--data", str(workspace["train"]), "--steps", "0",
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: command line: need batch_size >= 1, steps >= 1")
        assert not (tmp_path / "m.ckpt").exists()


class TestPredict:
    def test_text_mode_prints_json(self, workspace, capsys):
        rc = main(["predict", "--checkpoint", str(workspace["ckpt"]),
                   "--text", "alain farley works at mcgill university",
                   "--types", "person,organization"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["tokenized_text"] == ["alain", "farley", "works", "at",
                                         "mcgill", "university"]
        for s, e, t, score in rec["ner"]:
            assert t in ("person", "organization")
            assert score > 0.5

    def test_file_mode_writes_jsonl(self, workspace, tmp_path):
        out = tmp_path / "pred.jsonl"
        rc = main(["predict", "--checkpoint", str(workspace["ckpt"]),
                   "--data", str(workspace["dev"]), "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 4

    def test_text_without_types_fails(self, workspace, capsys):
        rc = main(["predict", "--checkpoint", str(workspace["ckpt"]),
                   "--text", "hello world"])
        assert rc == 2
        assert "--types" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        ([], "predict needs --data or --text"),
        (["--text", "hello world", "--types", ","], "no entity types to predict"),
        (["--text", "hello world", "--types", "person", "--data", "dev.jsonl"],
         "predict takes --text or --data, not both"),
    ])
    def test_nothing_to_predict_fails(self, workspace, capsys, argv, message):
        rc = main(["predict", "--checkpoint", str(workspace["ckpt"])] + argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: app: ") and message in err

    @pytest.mark.parametrize("source", ["text", "data"])
    def test_stdout_bytes_equal_out_file(self, workspace, tmp_path, capsys, source):
        # one record form: the words first, as in dataset files
        argv = ["predict", "--checkpoint", str(workspace["ckpt"]), "--threshold", "0.1"]
        argv += (["--text", "alain farley works at mcgill", "--types", "person,organization"]
                 if source == "text" else ["--data", str(workspace["dev"])])
        out = tmp_path / "pred.jsonl"
        assert main(argv) == 0 and main(argv + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert out.read_text() == printed
        assert all(line.startswith('{"tokenized_text": ') for line in printed.splitlines())

    @staticmethod
    def fixture_ner(capsys, mode, threshold):
        argv = ["predict", "--checkpoint", FIXTURE, "--text", SENTENCE, "--types",
                ",".join(FIXTURE_TYPES), "--mode", mode, "--threshold", str(threshold)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])["ner"]

    @pytest.mark.parametrize("mode", ["flat", "nested"])
    def test_in_memory_redecoding_matches_predict(self, capsys, mode):
        # a score table is re-decoded in memory, not through a file
        model, _ = load_checkpoint(FIXTURE)
        table = model.score_table(SENTENCE.split(), FIXTURE_TYPES)
        mentions = decode(table, DecodeConfig(mode, 0.1))
        assert [[m.start, m.end, m.type, m.score] for m in mentions] == \
            self.fixture_ner(capsys, mode, 0.1)

    @pytest.mark.parametrize("mode", ["flat", "nested"])
    def test_higher_threshold_keeps_the_mentions_scored_above_it(self, capsys, mode):
        low = self.fixture_ner(capsys, mode, 0.1)
        kept = [e for e in low if e[3] > 0.99]
        assert 0 < len(kept) < len(low)
        assert self.fixture_ner(capsys, mode, 0.99) == kept

    def test_nested_mode_keeps_a_contained_mention(self, capsys):
        # (0, 3, person) properly contains the flat mentions (0, 1) and (3, 3)
        # and overlaps none partially: nested mode keeps it too
        flat, nested = (self.fixture_ner(capsys, mode, 0.1) for mode in ("flat", "nested"))
        assert [0, 3, "person"] in [e[:3] for e in nested]
        assert [e for e in nested if e[:3] != [0, 3, "person"]] == flat

    @pytest.mark.parametrize("threshold", ["0", "1", "nan"])
    def test_threshold_outside_the_unit_interval_refused(self, capsys, threshold):
        rc = main(["predict", "--checkpoint", FIXTURE, "--text", SENTENCE,
                   "--types", "person", "--threshold", threshold])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: threshold {float(threshold)} outside (0, 1)\n"

    def test_unknown_mode_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--checkpoint", FIXTURE, "--text", SENTENCE,
                  "--types", "person", "--mode", "overlapping"])
        assert exc.value.code == 2
        assert "invalid choice: 'overlapping'" in capsys.readouterr().err


class TestEvaluate:
    def test_self_evaluation_is_perfect(self, workspace, capsys):
        rc = main(["evaluate", "--pred", str(workspace["dev"]),
                   "--gold", str(workspace["dev"])])
        assert rc == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert report["f1"] == 1.0

    def test_report_written_to_file(self, workspace, tmp_path):
        out = tmp_path / "report.json"
        main(["evaluate", "--pred", str(workspace["dev"]),
              "--gold", str(workspace["dev"]), "--out", str(out)])
        assert json.loads(out.read_text())["f1"] == 1.0


    def test_stdout_bytes(self, tmp_path, capsys):
        # the report's exact bytes, recorded before EvalReport reused TypeCounts
        gold, pred, out = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl", tmp_path / "r.json"
        gold.write_text(
            '{"tokenized_text": ["alain", "farley", "works"], "ner": [[0, 1, "person"]]}\n\n'
            '{"tokenized_text": ["paris", "in", "july", "with", "ada"], '
            '"ner": [[0, 0, "location"], [2, 2, "date"], [4, 4, "person"]]}\n')
        pred.write_text('{"ner": [[0, 1, "person", 0.9], [4, 4, "location", 0.6]]}\n'
                        '{"ner": [[0, 0, "Location", 0.7], [1, 2, "date", 0.55], '
                        '[4, 4, "person", 0.8]]}\n')
        assert main(["evaluate", "--pred", str(pred), "--gold", str(gold),
                     "--out", str(out)]) == 0
        expected = (
            '{"tp": 3, "fp": 2, "fn": 1, "precision": 0.6, "recall": 0.75, '
            '"f1": 0.6666666666666665, "per_type": {'
            '"date": {"tp": 0, "fp": 1, "fn": 1, "precision": 0.0, "recall": 0.0, "f1": 0.0}, '
            '"location": {"tp": 1, "fp": 1, "fn": 0, "precision": 0.5, "recall": 1.0, '
            '"f1": 0.6666666666666666}, '
            '"person": {"tp": 2, "fp": 0, "fn": 0, "precision": 1.0, "recall": 1.0, '
            '"f1": 1.0}}}\n')
        assert capsys.readouterr().out == expected
        assert out.read_text() == expected


class TestGradcheck:
    def test_single_seed_passes(self, capsys):
        rc = main(["gradcheck", "--seed", "0", "--seeds", "1", "--samples", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out

    def test_printed_fail_exits_1(self, capsys):
        # a NaN tolerance fails every comparison: it printed FAIL and exited 0
        rc = main(["gradcheck", "--samples", "1", "--tol-f32", "nan"])
        assert "tol=nan FAIL" in capsys.readouterr().out and rc == 1

    @pytest.mark.parametrize("argv, message", [
        (["--samples", "0"], "samples per tensor >= 1 (or None: all), got 1e-05 and 0"),
        (["--samples", "-2"], "samples per tensor >= 1 (or None: all), got 1e-05 and -2"),
        (["--seeds", "0"], "need --seed >= 0 and --seeds >= 1, got 0 and 0"),
        (["--seed", "-1"], "need --seed >= 0 and --seeds >= 1, got -1 and 1"),
    ])
    def test_checking_nothing_or_a_bad_seed_refused(self, capsys, argv, message):
        # these printed "ok" having checked nothing, or ended in a traceback
        rc = main(["gradcheck"] + argv)
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err


class TestSynthDataFlags:
    @pytest.mark.parametrize("argv, message", [
        (["--seed", "-1"], "need --seed >= 0, got -1"),
        (["--train-size", "-3"], "train_size and dev_size >= 0, got -3 and 20"),
        (["--dev-size", "-1"], "train_size and dev_size >= 0, got 50 and -1"),
    ])
    def test_bad_flags_refused(self, tmp_path, capsys, argv, message):
        train, dev = tmp_path / "t.jsonl", tmp_path / "d.jsonl"
        rc = main(["synth-data", "--train-out", str(train), "--dev-out", str(dev)] + argv)
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err
        assert not train.exists() and not dev.exists()


class TestErrors:
    def test_missing_checkpoint_file(self, capsys):
        rc = main(["predict", "--checkpoint", "/nonexistent.ckpt",
                   "--text", "hi", "--types", "person"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_cut_checkpoint_fails_cleanly(self, workspace, tmp_path, capsys):
        path = tmp_path / "cut.ckpt"
        path.write_bytes(workspace["ckpt"].read_bytes()[:6])
        rc = main(["predict", "--checkpoint", str(path), "--text", "hi", "--types", "person"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("edit", [
        lambda h: h["config"].update(k="3"),
        lambda h: h["vocab"]["tokens"].remove("[ENT]"),
        lambda h: h["params"].remove({"name": "head.span.w1", "shape": [128, 64]}),
        lambda h: h["config"]["encoder"].update(depth=3),
    ])
    def test_checkpoint_disagreeing_with_its_header_fails_cleanly(
            self, workspace, tmp_path, capsys, edit):
        path = tmp_path / "edited.ckpt"
        path.write_bytes(workspace["ckpt"].read_bytes())
        rewrite_header(path, edit)
        rc = main(["predict", "--checkpoint", str(path), "--text", "hi", "--types", "person"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_utf8_file_fails_at_its_line(self, workspace, tmp_path, capsys):
        path = tmp_path / "pred.jsonl"
        path.write_bytes(b'{"ner": []}\n\xff\xfe{"ner": []}\n')
        rc = main(["evaluate", "--pred", str(path), "--gold", str(workspace["dev"])])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{path}:2: invalid JSON: 'utf-8' codec" in err

    def test_empty_word_fails_at_its_line(self, workspace, tmp_path, capsys):
        path = tmp_path / "data.jsonl"
        path.write_text('{"tokenized_text": ["it", "", "rained"], "ner": []}\n')
        rc = main(["predict", "--checkpoint", str(workspace["ckpt"]), "--data", str(path),
                   "--types", "person"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {path}:1: tokenized_text word 1 is empty\n"

    @pytest.mark.parametrize("to_file", [False, True])
    def test_oversize_sentence_in_data_names_its_example(self, tmp_path, capsys, to_file):
        # the fixture model has 256 positions; each word "wN" is two tokens
        path, out = tmp_path / "d.jsonl", tmp_path / "out.jsonl"
        long = json.dumps({"tokenized_text": [f"w{i}" for i in range(300)]})
        path.write_text('{"tokenized_text": ["alain", "farley"], "ner": [[0, 1, "person"]]}\n'
                        "\n" + long + "\n")
        rc = main(["predict", "--checkpoint", FIXTURE, "--data", str(path)]
                  + (["--out", str(out)] if to_file else []))
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not out.exists()
        assert captured.err == (f"error: {path}: example 1: "
                                "sentence length 600 exceeds 256 positions\n")
        words = " ".join(f"w{i}" for i in range(300))
        assert main(["predict", "--checkpoint", FIXTURE, "--text", words,
                     "--types", "person"]) == 2
        assert capsys.readouterr().err == "error: sentence length 600 exceeds 256 positions\n"

    def test_bad_mention_file_fails_cleanly(self, workspace, tmp_path, capsys):
        path = tmp_path / "pred.jsonl"
        path.write_text('{"ner": [[0, "x", "person"]]}\n')
        rc = main(["evaluate", "--pred", str(path), "--gold", str(workspace["dev"])])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_overlong_ner_entry_fails_at_its_line(self, tmp_path, capsys):
        # refused, not cut to [start, end, type, score] and scored
        path = tmp_path / "pred.jsonl"
        path.write_text('{"tokenized_text": ["a", "b"], '
                        '"ner": [[0, 1, "person", 0.5, "junk", 7]]}\n')
        rc = main(["evaluate", "--pred", str(path), "--gold", str(path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {path}:1: malformed ner entry ")

    def test_decode_scores_is_no_subcommand(self, capsys):
        # score tables live in memory only; predict re-decodes under --mode and --threshold
        with pytest.raises(SystemExit) as exc:
            main(["decode-scores", "--scores", "scores.jsonl"])
        assert exc.value.code == 2
        assert "invalid choice: 'decode-scores'" in capsys.readouterr().err
