"""Experiment harness: generators, summaries, artifacts, CLI."""

import importlib.util
import json
import os
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from mpcmm import SparseMatrix, check_d_sparse, get_semiring, save_matrix
from mpcmm import semiring as semiring_module
from mpcmm.cli import main
from mpcmm.experiment import CASES, COMMON_FIELDS, ExperimentConfig, generate_instance, run_experiment
from mpcmm.instances import block_diagonal, random_d_sparse
from test_golden import CONFIGS as GOLDEN_CONFIGS

INT = get_semiring("int")


def test_seed_repeat_yields_identical_matrices():
    config = ExperimentConfig(case="square", n=16, seed=42)
    a1, b1, _ = generate_instance(config, INT)
    a2, b2, _ = generate_instance(config, INT)
    assert a1 == a2 and b1 == b2
    other = ExperimentConfig(case="square", n=16, seed=43)
    a3, _, _ = generate_instance(other, INT)
    assert a1 != a3


def test_blockdiag_structure():
    m = block_diagonal(16, 4, INT, np.random.default_rng(0))
    for r, c, _ in m.entries:
        assert r // 4 == c // 4, "entry outside its diagonal block"
    assert len(m.entries) == 4 * 16


def test_random_sparse_passes_validator():
    m = random_d_sparse(32, 3, INT, np.random.default_rng(1))
    assert check_d_sparse(m, 3)


def test_square_experiment_summary(tmp_path):
    config = ExperimentConfig(case="square", n=16, alpha=1.0, seed=1)
    summary = run_experiment(config, out_dir=str(tmp_path))
    assert summary["ok"] and summary["rounds"] == 4
    assert summary["oracle_match"] and summary["bound"]["lower_rounds"] == 4
    assert os.path.exists(summary["summary_path"])
    assert os.path.exists(summary["transcript_path"])
    text = open(summary["transcript_path"]).read().splitlines()
    assert text[0] == "round,processor,words_sent,words_received,peak_memory"
    assert len(text) == 1 + 4 * 16  # header + rounds * processors


def test_cap_factor_one_surfaces_bandwidth_violation(tmp_path):
    config = ExperimentConfig(case="square", n=16, alpha=1.0, seed=1, cap_factor=1)
    summary = run_experiment(config, out_dir=str(tmp_path))
    assert summary["ok"] is False
    assert summary["violation"]["type"] == "BandwidthExceeded"
    assert summary["violation"]["round"] == 1
    # square n=16 on a 4x4 grid: 4x4 tiles, M = 16 and budget 1 * M; each
    # processor ships its A and B tiles (32 words) in round 1
    assert summary["violation"]["words"] == 32
    assert summary["violation"]["budget"] == 16
    assert summary["violation"]["used"] is None


def test_rerun_is_byte_identical(tmp_path):
    config = ExperimentConfig(case="sparse-twophase", n=32, d=4, seed=7, instance="blockdiag")
    first = run_experiment(config, out_dir=str(tmp_path / "one"))
    second = run_experiment(config, out_dir=str(tmp_path / "two"))
    b1 = open(first["summary_path"], "rb").read()
    b2 = open(second["summary_path"], "rb").read()
    assert b1 == b2
    t1 = open(first["transcript_path"], "rb").read()
    t2 = open(second["transcript_path"], "rb").read()
    assert t1 == t2


def test_paired_sparse_rounds_in_summaries(tmp_path):
    base = dict(n=64, d=16, seed=3, instance="blockdiag")
    trivial = run_experiment(
        ExperimentConfig(case="sparse-trivial", **base), out_dir=str(tmp_path)
    )
    two = run_experiment(
        ExperimentConfig(case="sparse-twophase", **base), out_dir=str(tmp_path)
    )
    assert trivial["ok"] and two["ok"]
    assert two["rounds"] * 2 <= trivial["rounds"]
    assert two["decomposition"]["meets_layer_budget"]


def test_file_instance_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    a = random_d_sparse(16, 2, INT, rng)
    b = random_d_sparse(16, 2, INT, rng)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    save_matrix(a, pa)
    save_matrix(b, pb)
    config = ExperimentConfig(
        case="sparse-trivial", n=16, d=2, instance="file", file_a=str(pa), file_b=str(pb)
    )
    summary = run_experiment(config, out_dir=str(tmp_path))
    assert summary["ok"]


@pytest.mark.parametrize("low, high, narrow", [(1 << 31, 1 << 40, False), (0, (1 << 20) - 1, True)])
def test_tropical_file_words_pick_the_product_width(tmp_path, monkeypatch, low, high, narrow):
    # sparse-twophase blockdiag n=121 d=121 keeps its layers, so its rotation
    # slots multiply stacks of 121 11x11 tiles, 11**5 terms each: enough for
    # int32.  Words far above 2**30 keep every such product in int64; words
    # below 2**20 let each run in int32.  A stored INF is rejected as a stored
    # zero, so INF enters only as an absent entry.
    n, d = 121, 121
    rng = np.random.default_rng(16)
    rows = np.repeat(np.arange(n), d)
    cols = rows // d * d + np.tile(np.arange(d), n)
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path in paths:
        words = rng.integers(low, high, n * d, endpoint=True)
        save_matrix(SparseMatrix.from_arrays(n, n, rows, cols, words), path)
    widths, decide = [], semiring_module._trop_narrow

    def counted(a, b):
        widths.append(decide(a, b))
        return widths[-1]

    monkeypatch.setattr(semiring_module, "_trop_narrow", counted)
    config = ExperimentConfig(case="sparse-twophase", n=n, d=d, semiring="tropical",
                              instance="file", file_a=str(paths[0]), file_b=str(paths[1]))
    summary = run_experiment(config, out_dir=str(tmp_path))
    assert summary["ok"] and summary["oracle_match"] and not summary["fallback"]
    assert widths and set(widths) == {narrow}


@pytest.mark.parametrize(
    "fields",
    [dict(case="cube"), dict(instance="csv"), dict(semiring="real"), dict(n=0), dict(d=-1),
     dict(cap_factor=0)],
)
def test_config_rejects_bad_fields_at_construction(fields):
    with pytest.raises(ValueError, match=next(iter(fields))):
        ExperimentConfig(**{"case": "square", "n": 4, **fields})


@pytest.mark.parametrize("case", ["ndn", "dnd-n", "dnd-d"])
def test_rect_cases_reject_d_zero(case):
    with pytest.raises(ValueError, match="d must be >= 1"):
        run_experiment(ExperimentConfig(case=case, n=16, d=0), write=False)


# One changed value per field each case reads, plus the common fields.
_CHANGED = dict(n=32, d=8, alpha=0.5, semiring="bool", seed=2, eps=0.2, cap_factor=1,
                instance="blockdiag", redistribute=True, file_a="a.txt", file_b="b.txt")


@pytest.mark.parametrize("case", sorted(CASES))
def test_configs_differing_in_one_field_get_distinct_prefixes(case):
    base = ExperimentConfig(case=case, n=16, d=4)
    fields = (*COMMON_FIELDS, *CASES[case].fields)
    prefixes = {base.prefix()}
    for field in fields:
        prefixes.add(ExperimentConfig(**{**asdict(base), field: _CHANGED[field]}).prefix())
    assert len(prefixes) == 1 + len(fields)
    if "file_a" in CASES[case].fields:
        swapped = replace(base, file_a="b.txt", file_b="a.txt").prefix()
        assert swapped != replace(base, file_a="a.txt", file_b="b.txt").prefix()


@pytest.mark.parametrize("field, tag, value, near", [("alpha", "a", 0.5, 0.5000001),
                                                      ("eps", "e", 0.1, 0.1000001)])
def test_float_fields_get_exact_prefixes(field, tag, value, near):
    case = "square" if field == "alpha" else "sparse-twophase"
    base = ExperimentConfig(case=case, n=16, d=4, **{field: value})
    close = replace(base, **{field: near})
    assert f"-{tag}{value}-" in base.prefix() and f"-{tag}{near}-" in close.prefix()
    assert base.prefix() != close.prefix()


def _parent_prefix(config):
    """The artifact name before prefix() read the CASES field lists."""
    bits = [config.case, f"n{config.n}"]
    bits.append(f"a{config.alpha:g}" if config.case == "square" else f"d{config.d}")
    if config.case.startswith("sparse-"):
        bits += [f"e{config.eps:g}", config.instance]
    return "-".join(bits + [config.semiring, f"s{config.seed}"])


def test_golden_and_workload_prefixes_keep_their_parent_spelling():
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = [ExperimentConfig(seed=1, **fields) for fields in GOLDEN_CONFIGS.values()]
    configs += [c for name in workloads.NAMES for c in workloads.configs(name, 2718)]
    for config in configs:
        expected = _parent_prefix(config)
        if config.case == "sparse-trivial":  # it never reads eps
            expected = expected.replace(f"-e{config.eps:g}-", "-")
        if config.redistribute:  # the parent name collided with the plain run's
            expected = expected.replace(f"-a{config.alpha:g}-", f"-a{config.alpha:g}-r-")
        assert config.prefix() == expected


def test_outdir_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("MPCMM_OUTDIR", str(tmp_path / "envdir"))
    summary = run_experiment(ExperimentConfig(case="square", n=16, seed=2))
    assert str(tmp_path / "envdir") in summary["summary_path"]


class TestCli:
    def test_run_square(self, tmp_path, capsys):
        rc = main(["run", "--case", "square", "--n", "16", "--alpha", "1", "--seed", "2",
                   "--outdir", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["rounds"] == 4

    def test_run_dnd(self, tmp_path, capsys):
        rc = main(["run", "--case", "dnd-n", "--n", "64", "--d", "4",
                   "--outdir", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["bound"]["ok"]

    def test_bounds_command(self, capsys):
        rc = main(["bounds", "--case", "ndn", "--n", "16", "--d", "8"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["lower_rounds"] == 2 and out["measured_rounds"] == 2

    def test_verify_command(self, capsys):
        rc = main(["verify", "--case", "square", "--n", "16", "--seeds", "2"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0 and len(lines) == 6 and all(l.startswith("PASS") for l in lines)

    def test_bench_command(self, capsys):
        rc = main(["bench", "--case", "square", "--sizes", "16", "25"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0 and len(lines) == 2
        rows = [json.loads(l) for l in lines]
        assert rows[0]["rounds"] == 4 and rows[1]["rounds"] == 5

    def test_new_case_needs_only_a_registry_entry(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(CASES, "square-alias", CASES["square"])
        assert main(["run", "--case", "square-alias", "--n", "16", "--alpha", "0.5",
                     "--outdir", str(tmp_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rounds"] == 2 and out["ok"]
        assert out["summary_path"].endswith("square-alias-n16-a0.5-int-s1.summary.json")
        assert main(["verify", "--case", "square-alias", "--n", "16", "--seeds", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3 and all(l.startswith("PASS square-alias") for l in lines)
        assert main(["bounds", "--case", "square-alias", "--n", "16"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["case"] == "square-alias" and out["ok"]
        assert main(["bench", "--case", "square-alias", "--sizes", "16"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["case"] == "square-alias" and row["rounds"] == 4 and row["ok"]

    def test_run_over_budget_exit_code(self, tmp_path, capsys):
        rc = main(["run", "--case", "square", "--n", "16", "--cap-factor", "1",
                   "--outdir", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("argv", [
        ["run", "--case", "ndn", "--n", "16", "--d", "8", "--alpha", "2"],
        ["run", "--case", "square", "--n", "16", "--d", "4"],
        ["run", "--case", "sparse-trivial", "--n", "16", "--d", "4", "--eps", "0.2"],
        ["run", "--case", "dnd-n", "--n", "16", "--d", "4", "--redistribute"],
        ["bounds", "--case", "square", "--n", "16", "--instance", "random"],
        ["verify", "--case", "ndn", "--n", "16", "--d", "8", "--file-a", "a.txt"],
        ["bench", "--case", "dnd-d", "--sizes", "16", "--alpha", "1"],
    ])
    def test_flag_the_case_does_not_read_exits_2(self, argv, tmp_path, capsys):
        rc = main(argv + (["--outdir", str(tmp_path)] if argv[0] == "run" else []))
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("mpcmm: error: case ")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["bounds", "bench"])
    def test_only_run_takes_outdir(self, command, tmp_path, capsys):
        sizes = ["--n", "16"] if command == "bounds" else ["--sizes", "16"]
        with pytest.raises(SystemExit) as raised:
            main([command, "--case", "square", *sizes, "--outdir", str(tmp_path)])
        assert raised.value.code == 2 and "--outdir" in capsys.readouterr().err


def _file_instance_with_word(tmp_path, word):
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    pa.write_text(f"SPARSE 4 4 2\n1 1 {word}\n2 2 1\n")
    pb.write_text("SPARSE 4 4 2\n1 1 1\n2 2 1\n")
    return dict(case="sparse-trivial", n=4, d=1, instance="file", file_a=str(pa),
                file_b=str(pb))


@pytest.mark.parametrize("semiring", ["tropical", "bool"])
def test_out_of_domain_words_fail_before_any_schedule(tmp_path, monkeypatch, semiring):
    fields = _file_instance_with_word(tmp_path, 2**62)
    monkeypatch.setattr("mpcmm.experiment.build_schedule", None)  # must not be reached
    with pytest.raises(ValueError, match=f"outside the {semiring} domain"):
        run_experiment(ExperimentConfig(semiring=semiring, **fields), write=False)


def test_in_domain_file_words_still_run(tmp_path):
    fields = _file_instance_with_word(tmp_path, 2**62)
    assert run_experiment(ExperimentConfig(semiring="int", **fields), write=False)["ok"]
    fields = _file_instance_with_word(tmp_path, 1)
    for semiring in ("bool", "tropical"):
        assert run_experiment(ExperimentConfig(semiring=semiring, **fields), write=False)["ok"]


def test_cli_reports_out_of_domain_words_without_traceback(tmp_path, capsys):
    fields = _file_instance_with_word(tmp_path, 2**62)
    rc = main(["run", "--case", "sparse-trivial", "--n", "4", "--d", "1",
               "--instance", "file", "--file-a", fields["file_a"], "--file-b",
               fields["file_b"], "--semiring", "tropical", "--outdir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("mpcmm: error:") and "Traceback" not in err


@pytest.mark.parametrize("semiring", ["int", "bool", "tropical"])
def test_file_storing_the_zero_element_fails_before_any_schedule(tmp_path, monkeypatch,
                                                                 semiring):
    fields = _file_instance_with_word(tmp_path, get_semiring(semiring).zero)
    monkeypatch.setattr("mpcmm.experiment.build_schedule", None)  # must not be reached
    with pytest.raises(ValueError, match=f"A entry \\(0, 0\\) stores the {semiring} zero"):
        run_experiment(ExperimentConfig(semiring=semiring, **fields), write=False)


def test_cli_reports_a_stored_zero_without_traceback(tmp_path, capsys):
    fields = _file_instance_with_word(tmp_path, 0)
    rc = main(["run", "--case", "sparse-trivial", "--n", "4", "--d", "1",
               "--instance", "file", "--file-a", fields["file_a"], "--file-b",
               fields["file_b"], "--outdir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("mpcmm: error:") and "zero element" in err
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]  # no artifacts written


def test_cli_reports_a_negative_tropical_word_without_traceback(tmp_path, capsys):
    fields = _file_instance_with_word(tmp_path, -1)
    rc = main(["run", "--case", "sparse-trivial", "--n", "4", "--d", "1",
               "--instance", "file", "--file-a", fields["file_a"], "--file-b",
               fields["file_b"], "--semiring", "tropical", "--outdir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("mpcmm: error:") and len(err.splitlines()) == 1
    assert "outside the tropical domain [0, " in err
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]  # no artifacts written


@pytest.mark.parametrize("file_a", ["", "missing.txt"])
def test_cli_reports_a_missing_input_file_without_traceback(tmp_path, capsys, file_a):
    fields = _file_instance_with_word(tmp_path, 1)
    path = str(tmp_path / file_a) if file_a else ""
    argv = ["run", "--case", "sparse-trivial", "--n", "4", "--d", "1", "--instance", "file",
            "--file-b", fields["file_b"], "--outdir", str(tmp_path)]
    rc = main(argv + (["--file-a", path] if path else []))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("mpcmm: error:") and len(err.splitlines()) == 1
    assert ("--file-a" in err) if not path else (repr(path) in err)
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]  # no artifacts written


@pytest.mark.parametrize("eps", ["inf", "nan", "200"])
def test_cli_reports_an_eps_without_a_finite_budget_without_traceback(tmp_path, capsys, eps):
    # inf and nan are not exponents; at 200, d**(4 * eps2) leaves float range.
    rc = main(["run", "--case", "sparse-twophase", "--n", "16", "--d", "4", "--eps", eps,
               "--outdir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("mpcmm: error:") and len(err.splitlines()) == 1
    assert "eps2" in err
    assert not os.listdir(tmp_path)  # no artifacts written
