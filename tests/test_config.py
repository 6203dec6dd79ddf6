"""Tunables are declared once on RunConfig: every field is a config-file key
and a flag, reaches the run_config echo, and rejects names it cannot run."""

import inspect
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from perfcast import RunConfig, build_graph
from perfcast.cli import main
from perfcast.config import parse_algorithms

# field -> (text given in a file or flag, value echoed in run_config);
# every value differs from the default
GIVEN = {
    "algorithm": ("als", "als"),
    "protocol": ("in_groups", "in_groups"),
    "ridge_lambda": ("0.5", 0.5),
    "ridge_min_training_rows": ("4", 4),
    "clique_threshold": ("0.9", 0.9),
    "clique_min_overlap": ("4", 4),
    "als_k": ("2", 2),
    "als_lambda": ("0.1", 0.1),
    "als_max_iters": ("7", 7),
    "als_tol": ("1e-5", 1e-5),
    "svd_k": ("2", 2),
    "ensemble": ("ridge,als", ["ridge", "als"]),
    "seed": ("3", 3),
    "repeats": ("1", 1),
    "fractions": ("10,20", [0.1, 0.2]),
    "outlier_fraction": ("15", 0.15),
    "outlier_lo": ("0.5", 0.5),
    "outlier_hi": ("3", 3.0),
    "threads": ("2", 2),
}

# the run_config echo of the defaults, as written before it was derived
# from the fields
DEFAULT_ECHO = {
    "algorithm": "ensemble",
    "protocol": "in_groups_plus_regression",
    "ridge_lambda": 0.01,
    "ridge_min_training_rows": 3,
    "clique_threshold": 0.97,
    "clique_min_overlap": 3,
    "als_k": 1,
    "als_lambda": 0.01,
    "als_max_iters": 200,
    "als_tol": 1e-06,
    "svd_k": 1,
    "ensemble": ["cliques", "als"],
    "seed": 0,
    "repeats": 5,
    "fractions": [0.05, 0.1, 0.2, 0.3, 0.4, 0.5],
    "outlier_fraction": 0.1,
    "outlier_lo": 0.0,
    "outlier_hi": 4.0,
    "threads": 1,
}

COMMANDS = {
    "sweep": ["--algorithms", "ridge"],
    "outliers": ["--algorithms", "ridge"],
    "complete": ["--out", "completed.csv"],
    "evaluate": [],
}


def run_config_echo(matrix_csv, tmp_path, extra):
    # evaluate echoes every field; a sweep leaves out `algorithm`, which
    # its --algorithms replaces
    out = tmp_path / "report.json"
    assert main(["evaluate", str(matrix_csv), "--out-json", str(out),
                 *extra]) == 0
    echo = json.loads(out.read_text())["run_config"]
    assert echo.pop("input") == str(matrix_csv)
    assert echo.pop("command") == "evaluate"
    return echo


def test_every_field_is_tested():
    assert list(GIVEN) == [f.name for f in fields(RunConfig)]


def test_every_field_is_a_config_key(matrix_csv, tmp_path):
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k} = {text}\n"
                           for k, (text, _) in GIVEN.items()))
    echo = run_config_echo(matrix_csv, tmp_path, ["--config", str(cfg)])
    assert echo == {k: value for k, (_, value) in GIVEN.items()}


def test_every_field_is_a_flag(matrix_csv, tmp_path):
    flags = [arg for k, (text, _) in GIVEN.items()
             for arg in ("--" + k.replace("_", "-"), text)]
    echo = run_config_echo(matrix_csv, tmp_path, flags)
    assert echo == {k: value for k, (_, value) in GIVEN.items()}


def test_default_echo(matrix_csv, tmp_path):
    out = tmp_path / "fills.json"
    assert main(["complete", str(matrix_csv), "--out",
                 str(tmp_path / "completed.csv"),
                 "--fills-out", str(out)]) == 0
    echo = json.loads(out.read_text())["run_config"]
    assert echo.pop("input") == str(matrix_csv)
    assert echo.pop("output") == str(tmp_path / "completed.csv")
    assert echo == DEFAULT_ECHO


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("line", ["algorithm = magic", "protocol = magic",
                                  "protocol = regression",
                                  "ensemble = ridge,magic",
                                  "ensemble = ridge,ensemble",
                                  # svd is scored only by --algorithms
                                  "algorithm = svd",
                                  "ensemble = cliques,svd"])
def test_unknown_name_in_file_reports_line(matrix_csv, tmp_path, capsys,
                                           command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    rc = main([command, str(matrix_csv), *COMMANDS[command],
               "--config", str(cfg)])
    err = capsys.readouterr().err
    bad = re.split("[=,]", line)[-1].strip()
    assert rc == 1
    assert f"{cfg}:1:" in err and f"'{bad}' is not one of" in err


@pytest.mark.parametrize("flag", [["--protocol", "magic"],
                                  ["--protocol", "regression"],
                                  ["--ensemble", "ridge,magic"],
                                  ["--ensemble", "ridge,ensemble"],
                                  ["--algorithms", "ridge,magic"],
                                  ["--algorithms", "ridge,ridge"]])
def test_unknown_name_as_flag_is_usage_error(matrix_csv, tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(matrix_csv), *flag])
    assert exc.value.code == 2


def test_outlier_fraction_takes_one_percentage(matrix_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("outlier_fraction = 10,20\n")
    assert main(["outliers", str(matrix_csv), "--config", str(cfg)]) == 1
    assert f"{cfg}:1:" in capsys.readouterr().err


def test_repeated_key_in_file_names_both_lines(tmp_path, capsys):
    # checked before the matrix is read: the missing file is never reached
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\n# comment\nridge_lambda = 0.5\nseed = 4\n")
    assert main(["sweep", str(tmp_path / "missing.csv"),
                 "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}:4: key 'seed' is already set on line 1\n")


def test_repeated_ensemble_member_in_file_rejected(matrix_csv, tmp_path,
                                                   capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ensemble = ridge,als,ridge\n")
    assert main(["complete", str(matrix_csv), "--out",
                 str(tmp_path / "completed.csv"), "--config", str(cfg)]) == 1
    assert ("ensemble members must be distinct, got ridge, als, ridge"
            in capsys.readouterr().err)
    assert not (tmp_path / "completed.csv").exists()


# (command, flags, message): each setting is checked before the matrix is
# read, so a missing matrix file is never reached
BAD_SETTINGS = [
    ("evaluate", ["--repeats", "0"], "repeats must be >= 1, got 0"),
    ("complete", ["--threads", "0"], "threads must be >= 1, got 0"),
    ("sweep", ["--svd-k", "0"], "svd_k must be >= 1, got 0"),
    ("sweep", ["--outlier-lo", "5", "--outlier-hi", "1"],
     "0 <= outlier_lo < outlier_hi, got [5.0, 1.0]"),
    ("outliers", ["--outlier-lo", "-1"],
     "0 <= outlier_lo < outlier_hi, got [-1.0, 4.0]"),
    ("evaluate", ["--clique-threshold", "0"],
     "clique_threshold must be in (0, 1], got 0.0"),
    ("complete", ["--clique-threshold", "1.5"],
     "clique_threshold must be in (0, 1], got 1.5"),
    ("outliers", ["--ridge-lambda", "-1"],
     "ridge_lambda must be positive and finite, got -1.0"),
    ("evaluate", ["--ridge-min-training-rows", "1"],
     "ridge_min_training_rows must be at least 2, got 1"),
    ("evaluate", ["--als-k", "0"], "als_k must be >= 1, got 0"),
    ("sweep", ["--als-lambda", "-1"],
     "als_lambda must be positive and finite, got -1.0"),
    ("complete", ["--als-max-iters", "0"],
     "als_max_iters must be >= 1, got 0"),
    ("sweep", ["--seed", "-1"], "seed must be nonnegative, got -1"),
    # a repeated --ensemble member is a usage error (test_cli.py)
    ("complete", ["--als-tol", "-1"],
     "als_tol must be positive and finite, got -1.0"),
    ("evaluate", ["--ridge-lambda", "0"],
     "ridge_lambda must be positive and finite, got 0.0"),
    ("evaluate", ["--clique-min-overlap", "1"],
     "clique_min_overlap must be at least 2, got 1"),
    ("sweep", ["--clique-min-overlap", "-5"],
     "clique_min_overlap must be at least 2, got -5"),
    ("complete", ["--als-lambda", "0"],
     "als_lambda must be positive and finite, got 0.0"),
    ("complete", ["--ridge-lambda", "inf"],
     "ridge_lambda must be positive and finite, got inf"),
    ("complete", ["--algorithm", "als", "--als-lambda", "inf"],
     "als_lambda must be positive and finite, got inf"),
    ("evaluate", ["--als-tol", "nan"],
     "als_tol must be positive and finite, got nan"),
    ("evaluate", ["--als-tol", "inf"],
     "als_tol must be positive and finite, got inf"),
    ("outliers", ["--outlier-hi", "inf"],
     "outlier interval must be finite with 0 <= outlier_lo < outlier_hi, "
     "got [0.0, inf]"),
    ("sweep", ["--outlier-lo", "nan"],
     "0 <= outlier_lo < outlier_hi, got [nan, 4.0]"),
    ("sweep", ["--als-tol", "0"],
     "als_tol must be positive and finite, got 0.0"),
    ("outliers", ["--ridge-lambda", "nan"],
     "ridge_lambda must be positive and finite, got nan"),
]


@pytest.mark.parametrize("command,flags,message", BAD_SETTINGS)
def test_bad_setting_fails_before_the_input_is_read(tmp_path, capsys,
                                                    command, flags, message):
    matrix = tmp_path / "missing.csv"
    rc = main([command, str(matrix), *COMMANDS[command], *flags])
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err and "No such file" not in err


@pytest.mark.parametrize("source", ["flag", "file"])
def test_each_lambda_error_names_its_key(tmp_path, capsys, source):
    # both once failed with the one line "lambda must be positive, got 0.0"
    errors = []
    for key in ("ridge_lambda", "als_lambda"):
        if source == "flag":
            setting = ["--" + key.replace("_", "-"), "0"]
        else:
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = 0\n")
            setting = ["--config", str(cfg)]
        assert main(["evaluate", str(tmp_path / "missing.csv"),
                     *COMMANDS["evaluate"], *setting]) == 1
        errors.append(capsys.readouterr().err)
    assert errors == [
        "error: ridge_lambda must be positive and finite, got 0.0\n",
        "error: als_lambda must be positive and finite, got 0.0\n"]


@pytest.mark.parametrize("setting", [{"fractions": (0.1, 1.5)},
                                     {"fractions": (-0.1,)},
                                     {"outlier_fraction": 1.0}])
def test_fraction_out_of_range_rejected(setting):
    # the flag and file parsers take percentages and already reject these;
    # a RunConfig made in code must fail as early
    with pytest.raises(ValueError, match=r"must be in \[0, 1\)"):
        RunConfig(**setting)


@pytest.mark.parametrize("setting,message", [
    ({"algorithm": "bogus"}, "'bogus' is not one of ridge, cliques"),
    ({"protocol": "nope"}, "'nope' is not one of in_groups, "),
    # the regression baseline is algorithm ridge, not a clique protocol
    ({"protocol": "regression"},
     "'regression' is not one of in_groups, in_groups_plus_regression"),
    ({"fractions": ()}, "fractions must not be empty"),
    # svd is scored only by the sweeps, whose --algorithms takes it
    ({"algorithm": "svd"},
     "'svd' is not one of ridge, cliques, als, ensemble"),
])
def test_every_choice_checked_when_built(setting, message):
    # a RunConfig made in code fails as its flag or file value would
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig(**setting)


@pytest.mark.parametrize("setting,message", [
    # these once failed inside numpy with a bare TypeError, or not at all
    ({"als_k": 2.5}, "als_k must be of type int, got 2.5"),
    ({"als_max_iters": 3.5}, "als_max_iters must be of type int, got 3.5"),
    ({"ridge_min_training_rows": 2.5},
     "ridge_min_training_rows must be of type int, got 2.5"),
    ({"clique_min_overlap": 2.5},
     "clique_min_overlap must be of type int, got 2.5"),
    ({"svd_k": 1.5}, "svd_k must be of type int, got 1.5"),
    ({"repeats": 2.0}, "repeats must be of type int, got 2.0"),
    # a bool is no number, as model_from_json holds it
    ({"seed": True}, "seed must be of type int, got True"),
    ({"ridge_lambda": False}, "ridge_lambda must be of type float, got False"),
    ({"als_tol": "1e-6"}, "als_tol must be of type float, got '1e-6'"),
    ({"algorithm": 1}, "algorithm must be of type str, got 1"),
    # a bare name or number is no list of them
    ({"ensemble": "ridge"},
     "ensemble must be of type tuple[str, ...], got 'ridge'"),
    ({"ensemble": ("ridge", 1)},
     "ensemble must be of type tuple[str, ...], got ('ridge', 1)"),
    ({"fractions": 0.1},
     "fractions must be of type tuple[float, ...], got 0.1"),
    ({"fractions": "10"},
     "fractions must be of type tuple[float, ...], got '10'"),
])
def test_wrong_type_refused_naming_its_key(setting, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunConfig(**setting)


@pytest.mark.parametrize("setting", [
    {"als_k": np.int64(2)}, {"seed": np.uint32(3)}, {"repeats": np.int8(2)},
    {"ridge_lambda": 1}, {"clique_threshold": np.float32(0.5)},
    {"fractions": [0.1, np.float64(0.2)]}, {"ensemble": ["ridge", "als"]},
])
def test_numpy_numbers_and_lists_taken(setting):
    (key, value), = setting.items()
    got = getattr(RunConfig(**setting), key)
    if isinstance(value, list):  # stored as a tuple of the same items
        assert type(got) is tuple
        assert all(g is v for g, v in zip(got, value, strict=True))
    else:
        assert got is value


@pytest.mark.parametrize("key,value", [("fractions", [0.2, 0.4]),
                                       ("ensemble", ["ridge", "als"])])
def test_list_settings_hash_and_compare_as_tuples(key, value):
    # a list kept as it was made the frozen record unhashable, and unequal
    # to the same settings given as a tuple
    from_list = RunConfig(**{key: value})
    from_tuple = RunConfig(**{key: tuple(value)})
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)


@pytest.mark.parametrize("command", ["complete", "evaluate"])
def test_svd_max_outer_is_no_key(tmp_path, capsys, command):
    # svd_fit's own default is its one declaration; refused before the
    # matrix is read
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\nsvd_max_outer = 50\n")
    rc = main([command, str(tmp_path / "missing.csv"), *COMMANDS[command],
               "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{cfg}:2: unknown key 'svd_max_outer'" in err
    assert "No such file" not in err


def test_kernel_defaults_are_the_kernels_own():
    # the ridge and ALS kernels take RunConfig itself; the clique settings
    # start from build_graph's own defaults
    cfg = RunConfig()
    graph = inspect.signature(build_graph).parameters
    assert cfg.clique_threshold == graph["threshold"].default
    assert cfg.clique_min_overlap == graph["min_overlap"].default


@pytest.mark.parametrize("text", ["ridge,ridge", "als,ensemble,als"])
def test_repeated_algorithm_rejected(text):
    with pytest.raises(ValueError, match="algorithms must be distinct"):
        parse_algorithms(text)


def test_ensemble_cannot_nest():
    # the message of --ensemble ridge,ensemble
    with pytest.raises(ValueError, match="^'ensemble' is not one of ridge, "
                       "cliques, als$"):
        RunConfig(ensemble=("ridge", "ensemble"))


def test_ensemble_members_are_distinct():
    # a repeated member would silently count twice in the mean
    with pytest.raises(ValueError, match="ensemble members must be distinct"):
        RunConfig(ensemble=("cliques", "cliques", "als"))


def test_empty_ensemble_rejected():
    with pytest.raises(ValueError, match="^empty ensemble member list$"):
        RunConfig(ensemble=())


def test_als_lambda_must_be_positive():
    # as ridge_lambda: at 0 a row or column seen fewer than als_k times
    # leaves its factor without one solution
    with pytest.raises(ValueError, match="als_lambda must be positive "
                       "and finite, got 0.0"):
        RunConfig(als_lambda=0.0)


def test_clique_min_overlap_below_two_rejected():
    # fewer than two co-observed rows define no correlation
    with pytest.raises(ValueError,
                       match="clique_min_overlap must be at least 2, got -5"):
        RunConfig(clique_min_overlap=-5)
