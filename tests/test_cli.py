"""Tests for the command-line interface: commands, exit codes, config."""

import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from typing import get_type_hints

import pytest

import aspectminer
from aspectminer import cli
from aspectminer.cli import (
    EXIT_ERROR,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    RunConfig,
    build_parser,
    main,
)
from aspectminer.errors import read_text
from aspectminer.lexicons import (
    _parse_aspect_dictionary,
    _parse_opinion_lexicon,
    _parse_verb_categories,
)
from aspectminer.patterns import _parse_pattern_set
from aspectminer.pipeline import DATA_ENV_VAR, DEFAULT_FILES, data_dir, load_resources
from aspectminer.tagger import _parse_tag_lexicon


@pytest.fixture()
def sample_paths(sample_dir):
    return {
        "corpus": str(sample_dir / "reviews.txt"),
        "pretagged": str(sample_dir / "reviews-pretagged.txt"),
        "eval_corpus": str(sample_dir / "minieval.txt"),
        "eval_pretagged": str(sample_dir / "minieval-pretagged.txt"),
    }


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_all_subcommands_parse(self):
        for name in ("tag", "mine", "extract", "summarize", "evaluate"):
            args = build_parser().parse_args([name, "--corpus", "x.txt"])
            assert args.command == name
            assert args.corpus == ["x.txt"]

    def test_boolean_optional_flags(self):
        args = build_parser().parse_args(["extract", "--no-fallback"])
        assert args.enable_fallback_search is False
        args = build_parser().parse_args(["extract", "--conjunction"])
        assert args.enable_conjunction_expand is True
        args = build_parser().parse_args(["extract"])
        assert args.enable_fallback_search is None

    def test_repeatable_inputs(self):
        args = build_parser().parse_args(
            ["extract", "--corpus", "a.txt", "--corpus", "b.txt"]
        )
        assert args.corpus == ["a.txt", "b.txt"]

    def test_format_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["summarize", "--format", "json"])

    def test_help_names_every_command_with_its_help_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        for name, command in cli._COMMANDS.items():
            assert re.search(rf"^  {name} +{re.escape(command.help)}$", out, re.M)

    @pytest.mark.parametrize(
        "flags",
        [["--corpus", "a.txt", "--corpus", "b.txt", "--format", "machine"],
         ["--no-fallback", "--top-k", "2", "--pos-lex", "p.txt", "--out", "o.txt"]],
    )
    def test_flags_before_the_command_parse_as_after(self, flags):
        before = build_parser().parse_args([*flags, "summarize"])
        after = build_parser().parse_args(["summarize", *flags])
        assert before == after
        assert before.command == "summarize"

    def test_format_the_command_cannot_render_named_after_the_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "histogram", "evaluate"])
        assert exc.value.code == EXIT_ERROR
        assert "argument --format: invalid choice: 'histogram'" in capsys.readouterr().err

    def test_resources_named_alike_by_flags_config_and_defaults(self):
        resources = set(DEFAULT_FILES)
        assert len(resources) == 7
        assert set(inspect.signature(load_resources).parameters) == resources
        assert cli._PATH_FIELDS == (*DEFAULT_FILES, "baseline")
        hints = get_type_hints(RunConfig)
        path_fields = {name for name, hint in hints.items() if hint == str | None}
        path_fields.discard("product")
        assert path_fields == resources | {"baseline"}
        options = {
            a.dest: a.option_strings for a in build_parser()._actions
        }
        for name in resources:
            assert options[name] == ["--" + name.replace("_", "-")]


class TestRunConfig:
    def test_validate_rejects_bad_top_k(self):
        with pytest.raises(ValueError):
            RunConfig(top_k=0).validate()

    def test_validate_rejects_bad_min_support(self):
        with pytest.raises(ValueError):
            RunConfig(min_support=0).validate()

    @pytest.mark.parametrize("max_len", [1, 7, 99])
    def test_validate_rejects_max_len_outside_pattern_lengths(self, max_len):
        with pytest.raises(ValueError, match=f"max-len must be 2..6, got {max_len}"):
            RunConfig(max_len=max_len).validate()

    def test_validate_checks_input_paths(self):
        with pytest.raises(FileNotFoundError):
            RunConfig(corpus=["/nonexistent/reviews.txt"]).validate()

    def test_validate_checks_resource_paths(self):
        with pytest.raises(FileNotFoundError):
            RunConfig(patterns="/nonexistent/patterns.txt").validate()


class TestTagCommand:
    def test_tags_whole_corpus(self, sample_paths, capsys):
        code = main(["tag", "--corpus", sample_paths["corpus"]])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 30
        for line in lines:
            if line:  # empty sentences render as empty lines
                assert all("/" in item for item in line.split())

    def test_prints_the_pretagged_file_aligned_with_its_corpus(self, sample_paths, capsys):
        code = main(
            ["tag", "--corpus", sample_paths["corpus"], "--pretagged", sample_paths["pretagged"]]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 30
        pretagged = read_text(sample_paths["pretagged"]).splitlines()
        assert [line for line in lines if line] == [line for line in pretagged if line]


class TestInputRequired:
    """Each command names the input it lacks."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["mine"], "no input: pass --corpus or --pretagged"),
            (["extract"], "no input: pass --corpus or --pretagged"),
            (["summarize"], "no input: pass --corpus or --pretagged"),
            (["tag", "--pretagged", "P"], "tag needs --corpus"),
            (["evaluate", "--pretagged", "P"],
             "evaluate needs --corpus with gold annotations"),
        ],
    )
    def test_missing_input_is_named(self, sample_paths, capsys, argv, message):
        argv = [sample_paths["pretagged"] if a == "P" else a for a in argv]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"


class TestMineCommand:
    def test_text_output(self, sample_paths, capsys):
        code = main(["mine", "--pretagged", sample_paths["pretagged"]])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "support=" in out

    def test_machine_output_sorted(self, sample_paths, capsys):
        code = main(
            ["mine", "--pretagged", sample_paths["pretagged"], "--format", "machine"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# tags\tsupport\tratio"
        supports = [int(line.split("\t")[1]) for line in lines[1:]]
        assert supports == sorted(supports, reverse=True)

    def test_min_support_filters(self, sample_paths, capsys):
        main(["mine", "--pretagged", sample_paths["pretagged"],
              "--format", "machine", "--min-support", "10"])
        high = capsys.readouterr().out
        main(["mine", "--pretagged", sample_paths["pretagged"],
              "--format", "machine", "--min-support", "2"])
        low = capsys.readouterr().out
        assert len(high.splitlines()) < len(low.splitlines())
        for line in high.splitlines()[1:]:
            assert int(line.split("\t")[1]) >= 10

    def test_max_len_out_of_range_names_the_flag(self, sample_paths, capsys):
        code = main(["mine", "--pretagged", sample_paths["pretagged"], "--max-len", "99"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: max-len must be 2..6, got 99\n"


class TestExtractCommand:
    def test_machine_census(self, sample_paths, capsys):
        code = main(
            ["extract", "--pretagged", sample_paths["pretagged"], "--format", "machine"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# sentence_id\taspect\topinion\tpolarity\tpattern"
        assert len(lines) == 1 + 23
        first = lines[1].split("\t")
        assert first == ["0", "player", "great", "positive", "nearest-aspect"]

    def test_text_output(self, sample_paths, capsys):
        code = main(["extract", "--pretagged", sample_paths["pretagged"]])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "[1] sound: wonderful (positive, noun-is-adj)" in out

    def test_no_fallback_drops_nearest_pairs(self, sample_paths, capsys):
        main(["extract", "--pretagged", sample_paths["pretagged"],
              "--format", "machine", "--no-fallback"])
        out = capsys.readouterr().out
        assert "nearest-aspect" not in out
        assert len(out.splitlines()) < 24

    def test_raw_corpus_input_works(self, sample_paths, capsys):
        code = main(["extract", "--corpus", sample_paths["corpus"],
                     "--format", "machine"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) > 10  # baseline tagger finds most of the pairs

    def test_max_len_out_of_range_is_rejected(self, sample_paths, capsys):
        code = main(["extract", "--pretagged", sample_paths["pretagged"], "--max-len", "99"])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == "error: max-len must be 2..6, got 99\n"
        assert captured.out == ""

    @pytest.mark.parametrize("kind", ["pretagged", "corpus"])
    def test_second_file_continues_sentence_ids(self, sample_paths, capsys, kind):
        flag, path = f"--{kind}", sample_paths[kind]
        main(["extract", flag, path, "--format", "machine"])
        once = capsys.readouterr().out.splitlines()[1:]
        code = main(["extract", flag, path, flag, path, "--format", "machine"])
        assert code == EXIT_OK
        twice = capsys.readouterr().out.splitlines()[1:]
        shifted = []
        for row in once:
            sentence_id, rest = row.split("\t", 1)
            shifted.append(f"{int(sentence_id) + 30}\t{rest}")
        assert twice == once + shifted


class TestSummarizeCommand:
    def test_machine_header(self, sample_paths, capsys):
        code = main(
            ["summarize", "--pretagged", sample_paths["pretagged"],
             "--product", "mp3 player", "--format", "machine"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "summary\tmp3 player\t23\t74\t26"
        assert lines[1].startswith("group\tsound\t3\t1")

    def test_product_defaults_to_file_stem(self, sample_paths, capsys):
        main(["summarize", "--pretagged", sample_paths["pretagged"],
              "--format", "machine"])
        first = capsys.readouterr().out.splitlines()[0]
        assert first.split("\t")[1] == "reviews-pretagged"

    def test_histogram_form(self, sample_paths, capsys):
        code = main(
            ["summarize", "--pretagged", sample_paths["pretagged"],
             "--format", "histogram"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("overall")
        assert "+" in out and "-" in out

    def test_deterministic(self, sample_paths, capsys):
        main(["summarize", "--pretagged", sample_paths["pretagged"]])
        first = capsys.readouterr().out
        main(["summarize", "--pretagged", sample_paths["pretagged"]])
        second = capsys.readouterr().out
        assert first == second

    def test_out_writes_file(self, sample_paths, tmp_path, capsys):
        target = tmp_path / "summary.txt"
        code = main(
            ["summarize", "--pretagged", sample_paths["pretagged"],
             "--out", str(target)]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8").startswith("pros and cons:")


class TestEvaluateCommand:
    def test_text_report(self, sample_paths, capsys):
        code = main(
            ["evaluate", "--corpus", sample_paths["eval_corpus"],
             "--pretagged", sample_paths["eval_pretagged"]]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "minieval" in out
        assert "average" in out
        assert "exact-match" in out
        assert "0.944" in out  # aspect precision 17/18

    def test_machine_report(self, sample_paths, capsys):
        code = main(
            ["evaluate", "--corpus", sample_paths["eval_corpus"],
             "--pretagged", sample_paths["eval_pretagged"],
             "--format", "machine"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# product\t")
        row = lines[1].split("\t")
        assert row[0] == "minieval"
        assert row[1] == f"{17 / 18:.6f}"

    def test_baseline_comparison(self, sample_paths, tmp_path, capsys):
        baseline = tmp_path / "baseline.tsv"
        main(["evaluate", "--corpus", sample_paths["eval_corpus"],
              "--pretagged", sample_paths["eval_pretagged"],
              "--format", "machine", "--out", str(baseline)])
        capsys.readouterr()
        code = main(
            ["evaluate", "--corpus", sample_paths["eval_corpus"],
             "--pretagged", sample_paths["eval_pretagged"],
             "--baseline", str(baseline)]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "proposed" in out and "baseline" in out
        # single product: not enough data for t-tests
        assert "skipped" in out

    def test_baseline_naming_a_product_twice_is_a_parse_error(
        self, sample_paths, tmp_path, monkeypatch, capsys
    ):
        golden = Path(__file__).parent / "golden" / "cli" / "baseline-report.tsv"
        lines = golden.read_text(encoding="utf-8").splitlines(keepends=True)
        (tmp_path / "dup.tsv").write_text("".join(lines[:3] + lines[1:]), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code = main(
            ["evaluate", "--corpus", sample_paths["eval_corpus"],
             "--corpus", sample_paths["corpus"], "--baseline", "./dup.tsv"]
        )
        assert code == EXIT_PARSE_ERROR
        # the file is named as typed, leading ./ included
        assert capsys.readouterr().err == (
            "error: ./dup.tsv: line 4: repeated row 'minieval'\n"
        )

    def test_report_naming_a_product_twice_is_an_error(self, sample_paths, tmp_path, capsys):
        other = tmp_path / "other"
        other.mkdir()
        shutil.copy(sample_paths["eval_corpus"], other)
        golden = Path(__file__).parent / "golden" / "cli" / "baseline-report.tsv"
        code = main(
            ["evaluate", "--corpus", sample_paths["eval_corpus"],
             "--corpus", str(other / "minieval.txt"), "--baseline", str(golden)]
        )
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: report names product 'minieval' twice\n"

    def test_report_naming_a_product_twice_fails_without_a_baseline(
        self, sample_paths, tmp_path, capsys
    ):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            shutil.copy(sample_paths["eval_corpus"], tmp_path / name)
        out = tmp_path / "r.tsv"
        code = main(
            ["evaluate", "--corpus", str(tmp_path / "a" / "minieval.txt"),
             "--corpus", str(tmp_path / "b" / "minieval.txt"),
             "--format", "machine", "--out", str(out)]
        )
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: report names product 'minieval' twice\n"
        assert not out.exists()

    def test_pretagged_count_must_match(self, sample_paths, capsys):
        code = main(
            ["evaluate", "--corpus", sample_paths["eval_corpus"],
             "--pretagged", sample_paths["eval_pretagged"],
             "--pretagged", sample_paths["pretagged"]]
        )
        assert code == EXIT_ERROR
        assert "2 pretagged" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_corpus_file(self, capsys):
        code = main(["extract", "--corpus", "/nonexistent/reviews.txt"])
        assert code == EXIT_MISSING_FILE
        err = capsys.readouterr().err
        assert "missing file" in err
        assert "/nonexistent/reviews.txt" in err

    def test_missing_resource_file(self, sample_paths, capsys):
        code = main(
            ["extract", "--pretagged", sample_paths["pretagged"],
             "--patterns", "/nonexistent/patterns.txt"]
        )
        assert code == EXIT_MISSING_FILE
        assert "/nonexistent/patterns.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--pretagged", "--patterns"])
    def test_directory_is_a_missing_file(self, sample_paths, tmp_path, capsys, flag):
        argv = ["extract", "--pretagged", sample_paths["pretagged"], flag, str(tmp_path)]
        assert main(argv) == EXIT_MISSING_FILE
        assert f"missing file: {tmp_path}" in capsys.readouterr().err

    def test_malformed_pretagged(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("no tags here\n", encoding="utf-8")
        code = main(["extract", "--pretagged", str(bad)])
        assert code == EXIT_PARSE_ERROR

    def test_malformed_resource_file(self, sample_paths, tmp_path, capsys):
        bad = tmp_path / "patterns.txt"
        bad.write_text("NN:A VBZ\n", encoding="utf-8")  # no opinion role
        code = main(
            ["extract", "--pretagged", sample_paths["pretagged"],
             "--patterns", str(bad)]
        )
        assert code == EXIT_PARSE_ERROR

    def test_malformed_corpus_gold_recovers(self, tmp_path, capsys):
        # out-of-range strengths degrade to warnings, not hard errors
        bad = tmp_path / "reviews.txt"
        bad.write_text("sound[+9]##the sound is wonderful .\n", encoding="utf-8")
        code = main(["extract", "--corpus", str(bad), "--format", "machine"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "sound\twonderful\tpositive" in out

    def test_bad_flag_value(self, sample_paths, capsys):
        code = main(
            ["summarize", "--pretagged", sample_paths["pretagged"], "--top-k", "0"]
        )
        assert code == EXIT_ERROR

    @pytest.mark.parametrize(
        "argv",
        [["summarize", "--no-such-flag"], ["summarize", "--top-k", "three"],
         ["frobnicate"], []],
    )
    def test_usage_error_is_not_a_missing_file(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_ERROR
        assert "usage: aspectminer" in capsys.readouterr().err
        assert main(["summarize", "--pretagged", "nope.txt"]) == EXIT_MISSING_FILE

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["summarize", "--help"])
        assert exc.value.code == EXIT_OK
        assert "--pretagged" in capsys.readouterr().out


class TestFormatsPerCommand:
    """Each command offers only the formats it renders, by flag or config."""

    @pytest.mark.parametrize(
        "command,fmt",
        [("tag", "machine"), ("tag", "histogram"), ("mine", "histogram"),
         ("extract", "histogram"), ("evaluate", "histogram")],
    )
    def test_flag_rejected_by_parser(self, command, fmt, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--format", fmt])
        assert exc.value.code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "--format" in err and "invalid choice" in err

    @pytest.mark.parametrize(
        "command,fmt",
        [("summarize", "xml"), ("tag", "machine"), ("mine", "histogram"),
         ("extract", "histogram"), ("evaluate", "histogram")],
    )
    def test_config_format_the_command_cannot_render(
        self, command, fmt, sample_paths, tmp_path, capsys
    ):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"format": fmt}), encoding="utf-8")
        code = main([command, "--config", str(config),
                     "--corpus", sample_paths["eval_corpus"]])
        assert code == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert str(config) in err
        assert "config key 'format'" in err
        assert "Traceback" not in err

    def test_config_histogram_for_summarize(self, sample_paths, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"format": "histogram"}), encoding="utf-8")
        code = main(["summarize", "--config", str(config),
                     "--pretagged", sample_paths["pretagged"]])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("overall")


class TestConfigFile:
    def test_config_seeds_flags(self, sample_paths, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {"pretagged": sample_paths["pretagged"], "format": "machine",
                 "product": "mp3 player"}
            ),
            encoding="utf-8",
        )
        code = main(["summarize", "--config", str(config)])
        assert code == EXIT_OK
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "summary\tmp3 player\t23\t74\t26"

    def test_flags_win_over_config(self, sample_paths, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"format": "machine"}), encoding="utf-8")
        code = main(
            ["summarize", "--config", str(config),
             "--pretagged", sample_paths["pretagged"], "--format", "text"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("pros and cons:")

    def test_string_input_coerced_to_list(self, sample_paths, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"corpus": sample_paths["corpus"]}), encoding="utf-8"
        )
        code = main(["tag", "--config", str(config)])
        assert code == EXIT_OK

    def test_invalid_json(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text("{not json", encoding="utf-8")
        code = main(["summarize", "--config", str(config)])
        assert code == EXIT_PARSE_ERROR
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"frobnicate": 1}), encoding="utf-8")
        code = main(["summarize", "--config", str(config)])
        assert code == EXIT_PARSE_ERROR
        assert "frobnicate" in capsys.readouterr().err

    def test_use_pretagged_is_not_a_key(self, sample_paths, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"use_pretagged": True}), encoding="utf-8")
        code = main(
            ["summarize", "--config", str(config), "--corpus", sample_paths["corpus"]]
        )
        assert code == EXIT_PARSE_ERROR
        assert "unknown config key(s): use_pretagged" in capsys.readouterr().err

    def test_non_object_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text("[1, 2]", encoding="utf-8")
        code = main(["summarize", "--config", str(config)])
        assert code == EXIT_PARSE_ERROR

    def test_missing_config_file(self, capsys):
        code = main(["summarize", "--config", "/nonexistent/run.json"])
        assert code == EXIT_MISSING_FILE

    @pytest.mark.parametrize(
        "key,value",
        [("top_k", "3"), ("top_k", True), ("product", 7), ("corpus", [1]),
         ("enable_fallback_search", 1)],
    )
    def test_value_of_wrong_type(self, sample_paths, tmp_path, capsys, key, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        code = main(
            ["summarize", "--config", str(config), "--pretagged", sample_paths["pretagged"]]
        )
        assert code == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert str(config) in err
        expected = {"top_k": "int", "product": "str | None", "corpus": "list[str]",
                    "enable_fallback_search": "bool"}[key]
        assert f"config key {key!r} must be {expected}, got " in err
        assert "Traceback" not in err

    def test_values_of_field_types_accepted(self, sample_paths, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {"pretagged": [sample_paths["pretagged"]], "product": None,
                 "top_k": 2, "enable_conjunction_expand": False}
            ),
            encoding="utf-8",
        )
        code = main(["summarize", "--config", str(config)])
        assert code == EXIT_OK

    def test_a_config_of_every_default_is_accepted_as_the_defaults(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(asdict(RunConfig())), encoding="utf-8")
        args = build_parser().parse_args(["summarize", "--config", str(config)])
        assert cli.build_config(args) == RunConfig()


class TestDataEnvOverride:
    def test_missing_override_dir_fails_cleanly(
        self, sample_paths, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("ASPECTMINER_DATA", str(tmp_path))
        code = main(["extract", "--pretagged", sample_paths["pretagged"]])
        assert code == EXIT_MISSING_FILE

    def test_explicit_flags_beat_env(self, sample_paths, tmp_path, monkeypatch, capsys):
        from aspectminer.pipeline import data_dir

        monkeypatch.delenv("ASPECTMINER_DATA", raising=False)
        bundled = data_dir()
        monkeypatch.setenv("ASPECTMINER_DATA", str(tmp_path))
        code = main(
            ["extract", "--pretagged", sample_paths["pretagged"],
             "--format", "machine",
             "--patterns", str(bundled / "patterns.txt"),
             "--pos-lex", str(bundled / "positive-words.txt"),
             "--neg-lex", str(bundled / "negative-words.txt"),
             "--aspects", str(bundled / "aspects.txt"),
             "--synonyms", str(bundled / "synonyms.txt"),
             "--verbs", str(bundled / "verb-categories.txt"),
             "--tag-lexicon", str(bundled / "tag-lexicon.txt")]
        )
        assert code == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 24


class TestModuleEntryPoint:
    def test_module_is_executable(self):
        # python -m aspectminer must resolve to this CLI
        import aspectminer.__main__ as entry

        assert entry.main is cli.main


class TestCorpusWithPretagged:
    """Every command aligns pretagged lines with --corpus."""

    @pytest.mark.parametrize("command", ["summarize", "extract", "mine", "tag"])
    def test_line_count_mismatch_names_pretagged_file(self, sample_paths, capsys, command):
        code = main(
            [command, "--corpus", sample_paths["corpus"],
             "--pretagged", sample_paths["eval_pretagged"]]
        )
        assert code == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert sample_paths["eval_pretagged"] in err
        assert "25 pretagged lines for 30 corpus sentences" in err

    @pytest.mark.parametrize("command", ["evaluate", "tag"])
    def test_shuffled_pretagged_names_file_and_line(
        self, sample_paths, tmp_path, capsys, command
    ):
        lines = read_text(sample_paths["eval_pretagged"]).splitlines(keepends=True)
        reversed_file = tmp_path / "reversed.txt"
        reversed_file.write_text("".join(reversed(lines)), encoding="utf-8")
        code = main(
            [command, "--corpus", sample_paths["eval_corpus"],
             "--pretagged", str(reversed_file)]
        )
        assert code == EXIT_PARSE_ERROR
        assert f"{reversed_file}: line 1: tokens do not spell" in capsys.readouterr().err

    def test_file_count_mismatch(self, sample_paths, capsys):
        code = main(
            ["summarize", "--corpus", sample_paths["corpus"],
             "--pretagged", sample_paths["pretagged"],
             "--pretagged", sample_paths["pretagged"]]
        )
        assert code == EXIT_ERROR
        assert "2 pretagged file(s) for 1 corpus file(s)" in capsys.readouterr().err

    def test_aligned_input_summarizes_under_corpus_name(self, sample_paths, capsys):
        main(["summarize", "--pretagged", sample_paths["pretagged"], "--format", "machine"])
        alone = capsys.readouterr().out.splitlines()
        code = main(
            ["summarize", "--corpus", sample_paths["corpus"],
             "--pretagged", sample_paths["pretagged"], "--format", "machine"]
        )
        assert code == EXIT_OK
        aligned = capsys.readouterr().out.splitlines()
        assert aligned[0].split("\t")[1] == "reviews"
        assert aligned[1:] == alone[1:]


class TestTagRoundTrip:
    """What ``tag`` prints loads back with its corpus, blank lines and all."""

    def test_sentences_without_text_round_trip(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text(
            "##\nsound[+2]##the sound is good .\n[t]\n##the screen is awful .\n",
            encoding="utf-8",
        )
        pretagged = tmp_path / "c.pos"
        assert main(["tag", "--corpus", str(corpus), "--out", str(pretagged)]) == EXIT_OK
        assert pretagged.read_text(encoding="utf-8").splitlines()[0::2] == ["", ""]
        assert main(["summarize", "--corpus", str(corpus)]) == EXIT_OK
        tagged_here = capsys.readouterr().out
        code = main(["summarize", "--corpus", str(corpus), "--pretagged", str(pretagged)])
        out, err = capsys.readouterr()
        assert code == EXIT_OK, err
        assert out == tagged_here
        assert "opinions: 2 (50% positive, 50% negative)" in out


class TestTagLexiconOnlyWhenTagging:
    """A pretagged run checks that the tag lexicon exists but never parses it."""

    def test_malformed_lexicon_ignored_on_pretagged_run(self, sample_paths, tmp_path, capsys):
        bad = tmp_path / "lex.txt"
        bad.write_text("word\tXYZ\n", encoding="utf-8")
        code = main(["summarize", "--pretagged", sample_paths["pretagged"],
                     "--tag-lexicon", str(bad)])
        assert code == EXIT_OK, capsys.readouterr().err

    def test_malformed_lexicon_fails_a_tagging_run(self, sample_paths, tmp_path, capsys):
        bad = tmp_path / "lex.txt"
        bad.write_text("word\tXYZ\n", encoding="utf-8")
        code = main(["summarize", "--corpus", sample_paths["corpus"],
                     "--tag-lexicon", str(bad)])
        assert code == EXIT_PARSE_ERROR
        assert f"{bad}: line 1: unknown tag 'XYZ'" in capsys.readouterr().err

    def test_missing_lexicon_fails_a_pretagged_run(self, sample_paths, tmp_path, capsys):
        absent = tmp_path / "absent.txt"
        code = main(["summarize", "--pretagged", sample_paths["pretagged"],
                     "--tag-lexicon", str(absent)])
        assert code == EXIT_MISSING_FILE
        assert str(absent) in capsys.readouterr().err


class TestInputOutputErrors:
    """Bad paths and bad bytes end in a documented code naming the path."""

    def run(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def test_out_into_missing_directory(self, sample_paths, tmp_path, capsys):
        target = tmp_path / "absent" / "summary.txt"
        code, err = self.run(
            ["summarize", "--pretagged", sample_paths["pretagged"], "--out", str(target)],
            capsys,
        )
        assert code == EXIT_ERROR
        assert f"cannot write {target}" in err

    def test_out_is_a_directory(self, sample_paths, tmp_path, capsys):
        code, err = self.run(
            ["summarize", "--pretagged", sample_paths["pretagged"], "--out", str(tmp_path)],
            capsys,
        )
        assert code == EXIT_ERROR
        assert f"cannot write {tmp_path}" in err

    def test_corpus_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("##fine .\nsound[+2]##the sound is tr\xe8s bien .\n".encode("latin-1"))
        code, err = self.run(["summarize", "--corpus", str(bad)], capsys)
        assert code == EXIT_PARSE_ERROR
        assert f"{bad}: line 2: not UTF-8" in err

    def test_pretagged_of_blank_lines(self, tmp_path, capsys):
        blank = tmp_path / "blank.txt"
        blank.write_text("\n   \n\n", encoding="utf-8")
        code, err = self.run(["summarize", "--pretagged", str(blank)], capsys)
        assert code == EXIT_ERROR
        assert f"empty input: no sentences in {blank}" in err

    def test_corpus_without_sentences(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        code, err = self.run(["evaluate", "--corpus", str(empty)], capsys)
        assert code == EXIT_ERROR
        assert f"empty input: no sentences in {empty}" in err


def run_alone(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``python -m aspectminer`` in a fresh process."""
    env = dict(os.environ)
    env.pop(DATA_ENV_VAR, None)
    package_root = str(Path(aspectminer.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "aspectminer", *argv],
        env=env,
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=60,
    )
    return proc.returncode, proc.stdout


class TestRepeatedCalls:
    """main keeps nothing between calls but what depends only on the code,
    and each resource loader's last parse, which depends only on the
    file's text."""

    def test_each_call_answers_as_if_run_alone(
        self, sample_paths, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv(DATA_ENV_VAR, raising=False)
        config = tmp_path / "run.json"
        config.write_text('{"top_k": 1, "format": "histogram"}', encoding="utf-8")
        rp, r, m = sample_paths["pretagged"], sample_paths["corpus"], sample_paths["eval_corpus"]
        runs = [
            ["summarize", "--pretagged", rp, "--no-fallback", "--top-k", "1",
             "--format", "machine"],
            ["summarize", "--pretagged", rp],
            ["extract", "--corpus", r, "--no-fallback", "--format", "machine"],
            ["extract", "--corpus", r],
            ["summarize", "--pretagged", rp, "--config", str(config)],
            ["summarize", "--pretagged", rp],
            ["evaluate", "--corpus", m, "--format", "machine"],
            ["evaluate", "--corpus", m, "--top-k", "0"],
            ["mine", "--corpus", r],
        ]
        in_process = []
        for argv in runs:
            code = main(argv)
            in_process.append((code, capsys.readouterr().out))
        assert [code for code, _ in in_process] == [EXIT_OK] * 7 + [EXIT_ERROR, EXIT_OK]
        assert in_process[0] != in_process[1] and in_process[1] == in_process[5]
        assert in_process == [run_alone(argv) for argv in runs]

    def test_data_directory_read_on_every_call(
        self, sample_paths, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv(DATA_ENV_VAR, raising=False)
        copy = tmp_path / "copy"
        shutil.copytree(data_dir(), copy)
        empty = tmp_path / "empty"
        empty.mkdir()
        argv = ["extract", "--pretagged", sample_paths["pretagged"], "--format", "machine"]

        assert main(argv) == EXIT_OK
        bundled = capsys.readouterr().out
        monkeypatch.setenv(DATA_ENV_VAR, str(empty))
        assert main(argv) == EXIT_MISSING_FILE
        assert str(empty) in capsys.readouterr().err
        monkeypatch.setenv(DATA_ENV_VAR, str(copy))
        (copy / "patterns.txt").write_text("NN:A VBZ JJ:O  # name=only\n", encoding="utf-8")
        assert main(argv) == EXIT_OK
        names = {line.split("\t")[-1] for line in capsys.readouterr().out.splitlines()[1:]}
        assert names == {"only", "nearest-aspect"}
        assert "noun-is-adj" in bundled

    @pytest.mark.parametrize(
        "flag, name, bad, argv",
        [
            ("--patterns", "patterns.txt", "NN:A VBZ\n", ["extract", "--pretagged"]),
            ("--verbs", "verb-categories.txt", "tell\\n", ["summarize", "--pretagged"]),
            ("--tag-lexicon", "tag-lexicon.txt", "word\tXYZ\n", ["summarize", "--corpus"]),
        ],
    )
    def test_resource_file_read_on_every_call(
        self, sample_paths, tmp_path, monkeypatch, capsys, flag, name, bad, argv
    ):
        monkeypatch.delenv(DATA_ENV_VAR, raising=False)
        resource = tmp_path / name
        shutil.copyfile(data_dir() / name, resource)
        inputs = sample_paths["corpus" if argv[1] == "--corpus" else "pretagged"]
        argv = [*argv, inputs, flag, str(resource)]

        assert main(argv) == EXIT_OK
        capsys.readouterr()
        resource.write_text(bad, encoding="utf-8")
        assert main(argv) == EXIT_PARSE_ERROR
        assert f"{resource}: line 1" in capsys.readouterr().err


class TestUnchangedResourcesReuseTheirParse:
    """A resource file is read on every call and parsed again only when its
    text changed; a reused parse answers, and fails, as a fresh one would."""

    @staticmethod
    def resource_argv(sample_paths, resource, path):
        flag = "--" + resource.replace("_", "-")
        return ["summarize", "--corpus", sample_paths["corpus"], flag, str(path)]

    def test_changed_text_at_the_same_path_changes_the_output(
        self, sample_paths, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv(DATA_ENV_VAR, raising=False)
        lexicon = tmp_path / "tag-lexicon.txt"
        bundled = (data_dir() / DEFAULT_FILES["tag_lexicon"]).read_text(encoding="utf-8")
        lexicon.write_text(bundled, encoding="utf-8")
        argv = ["tag", "--corpus", sample_paths["corpus"], "--tag-lexicon", str(lexicon)]

        assert main(argv) == EXIT_OK
        before = capsys.readouterr().out
        lexicon.write_text("the\tNN\n" + bundled, encoding="utf-8")
        assert main(argv) == EXIT_OK
        after = capsys.readouterr().out

        assert "the/DT" in before and "the/DT" not in after and "the/NN" in after
        assert after.replace("the/NN", "the/DT") == before

    def test_same_bad_text_at_two_paths_names_each_path(
        self, sample_paths, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv(DATA_ENV_VAR, raising=False)
        first, second = tmp_path / "a" / "verbs.txt", tmp_path / "b" / "verbs.txt"
        for path in (first, second):
            path.parent.mkdir()
            path.write_text("tell\n", encoding="utf-8")

        errors = []
        for path in (first, second):
            assert main(self.resource_argv(sample_paths, "verbs", path)) == EXIT_PARSE_ERROR
            errors.append(capsys.readouterr().err)

        assert f"{first}: line 1" in errors[0] and str(second) not in errors[0]
        assert f"{second}: line 1" in errors[1] and str(first) not in errors[1]

    @pytest.mark.parametrize("resource", sorted(DEFAULT_FILES))
    def test_file_deleted_after_a_warm_call_is_missing(
        self, sample_paths, tmp_path, monkeypatch, capsys, resource
    ):
        monkeypatch.delenv(DATA_ENV_VAR, raising=False)
        path = tmp_path / DEFAULT_FILES[resource]
        shutil.copyfile(data_dir() / DEFAULT_FILES[resource], path)
        argv = self.resource_argv(sample_paths, resource, path)

        assert main(argv) == EXIT_OK
        capsys.readouterr()
        path.unlink()
        assert main(argv) == EXIT_MISSING_FILE
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("resource", sorted(DEFAULT_FILES))
    def test_bad_bytes_after_a_warm_call_name_the_line(
        self, sample_paths, tmp_path, monkeypatch, capsys, resource
    ):
        monkeypatch.delenv(DATA_ENV_VAR, raising=False)
        path = tmp_path / DEFAULT_FILES[resource]
        shutil.copyfile(data_dir() / DEFAULT_FILES[resource], path)
        argv = self.resource_argv(sample_paths, resource, path)

        assert main(argv) == EXIT_OK
        capsys.readouterr()
        good = path.read_bytes()
        path.write_bytes(good + b"\xff\n")
        assert main(argv) == EXIT_PARSE_ERROR
        line = good.count(b"\n") + 1
        assert f"{path}: line {line}: not UTF-8" in capsys.readouterr().err

    def test_no_command_writes_into_a_shared_parse(
        self, sample_paths, tmp_path, monkeypatch, capsys
    ):
        """After the commands of ``TestRepeatedCalls``, each object a fresh
        ``load_resources`` returns equals a direct parse of the same text."""
        monkeypatch.delenv(DATA_ENV_VAR, raising=False)
        config = tmp_path / "run.json"
        config.write_text('{"top_k": 1, "format": "histogram"}', encoding="utf-8")
        rp, r, m = sample_paths["pretagged"], sample_paths["corpus"], sample_paths["eval_corpus"]
        runs = [
            ["summarize", "--pretagged", rp, "--no-fallback", "--top-k", "1",
             "--format", "machine"],
            ["summarize", "--pretagged", rp],
            ["extract", "--corpus", r, "--no-fallback", "--format", "machine"],
            ["extract", "--corpus", r],
            ["summarize", "--pretagged", rp, "--config", str(config)],
            ["summarize", "--pretagged", rp],
            ["evaluate", "--corpus", m, "--format", "machine"],
            ["evaluate", "--corpus", m, "--top-k", "0"],
            ["mine", "--corpus", r],
        ]
        before = load_resources()
        for argv in runs:
            main(argv)
        capsys.readouterr()

        res = load_resources()
        shared = ("opinion_lexicon", "aspect_dictionary", "verb_categories", "pattern_set")
        assert all(getattr(res, name) is getattr(before, name) for name in shared)
        assert res.tag_lexicon is before.tag_lexicon

        def parse(fn, *resources):
            paths = tuple(data_dir() / DEFAULT_FILES[name] for name in resources)
            return fn(tuple(read_text(path) for path in paths), paths)

        opinions = parse(_parse_opinion_lexicon, "pos_lex", "neg_lex")
        assert res.opinion_lexicon == opinions
        dictionary = parse(_parse_aspect_dictionary, "aspects", "synonyms")
        assert res.aspect_dictionary.entries == dictionary.entries
        assert res.aspect_dictionary.widest == dictionary.widest
        patterns = parse(_parse_pattern_set, "patterns")
        assert res.pattern_set.patterns == patterns.patterns
        assert res.pattern_set.by_first_tag == patterns.by_first_tag
        assert res.tag_lexicon == parse(_parse_tag_lexicon, "tag_lexicon")
        verbs = parse(_parse_verb_categories, "verbs")
        assert res.verb_categories.orientations == verbs.orientations
        remembered = res.verb_categories.by_surface
        assert remembered
        assert remembered == {s: verbs.orientation_of_surface(s) for s in remembered}
