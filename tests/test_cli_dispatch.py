"""``cli.main`` parses each argv in one argparse pass, with the bytes of two.

An argv that starts with a subcommand goes straight to that subcommand's
parser. Each call here must give the exit code, stdout and stderr (and,
when it parses, the namespace) of the top-level ``build_parser().parse_args``,
which hands the subcommand's arguments on to the same parser.
"""

import json

import pytest

import polyurn.cli as cli
import polyurn.oracle as oracle
from polyurn.urns import model_to_dict, one_draw_model

ONE = ["--one-draw", "3,1,1,2"]
PAIR = ["--two-draw", "15,3,4,1,3,21", "--w0", "5", "--b0", "2"]
RUN = ["--steps", "5", "--replicates", "2"]

ARGVS = {
    # every flag of every command
    "analyze-one-draw": ["analyze", *ONE],
    "analyze-pair-with": ["analyze", *PAIR, "--sampling", "with", "--format", "text"],
    "analyze-out": ["analyze", *ONE, "--out", "{tmp}/a.json", "--format", "json"],
    "analyze-model-file": ["analyze", "--model", "{tmp}/model.json"],
    "simulate-every-flag": ["simulate", *PAIR, "--sampling", "without", *RUN, "--seed", "3",
                            "--jobs", "1", "--out", "{tmp}/f.csv", "--trajectory-out",
                            "{tmp}/t.csv", "--trajectory-stride", "2", "--format", "json"],
    "simulate-csv": ["simulate", *ONE, *RUN, "--format", "csv"],
    "verify-every-flag": ["verify", *ONE, *RUN, "--seed", "1", "--jobs", "1", "--radius", "0.05",
                          "--prediction", "{tmp}/missing.json", "--out", "{tmp}/r.json",
                          "--format", "text"],
    "verify-default": ["verify", *ONE, *RUN],
    "verify-zero-steps": ["verify", *ONE, "--steps", "0"],
    "selftest-seed": ["selftest", "--seed", "4"],
    # abbreviations, '=' and '--'
    "abbreviated-flags": ["analyze", "--one", "3,1,1,2", "--form=text"],
    "abbreviated-pair": ["analyze", "--two", "15,3,4,1,3,21", "--w", "5", "--b", "2"],
    "ambiguous-traj": ["simulate", *ONE, *RUN, "--traj", "{tmp}/t.csv"],
    "ambiguous-s": ["simulate", *ONE, "--s", "3"],
    "double-dash-first": ["analyze", "--", *ONE],
    "double-dash-last": ["analyze", *ONE, "--", "extra"],
    "double-dash-alone": ["analyze", *ONE, "--"],
    "top-level-double-dash": ["--", "analyze", *ONE],
    # help at both levels
    "help": ["-h"],
    "help-long": ["--help"],
    "help-abbreviated": ["--he"],
    "analyze-help": ["analyze", "-h"],
    "simulate-help": ["simulate", "--help"],
    "verify-help-late": ["verify", *ONE, "-h"],
    "selftest-help": ["selftest", "--he"],
    "help-as-a-value": ["analyze", "--out", "-h"],
    # no command, unknown commands, flags before the command
    "empty": [],
    "unknown-command": ["frobnicate", *ONE],
    "misspelt-command": ["analyse", *ONE],
    "command-prefix": ["ana", *ONE],
    "flag-before-command": ["--one-draw", "1,0,0,1", "analyze"],
    "unknown-top-level-flag": ["--verbose", "analyze"],
    # unrecognized extras
    "extra-positional": ["analyze", *ONE, "extra", "more"],
    "extra-flag": ["analyze", *ONE, "--bogus"],
    "extra-flag-with-value": ["simulate", *ONE, *RUN, "--bogus=1", "-x"],
    "selftest-extra": ["selftest", "--seed", "1", "x"],
    "negative-number-extra": ["analyze", *ONE, "-5"],
    # bad choices, ints, floats and missing values
    "bad-format": ["analyze", *ONE, "--format", "xml"],
    "bad-sampling": ["simulate", *PAIR, "--sampling", "maybe"],
    "bad-steps": ["simulate", *ONE, "--steps", "ten"],
    "bad-jobs": ["verify", *ONE, "--jobs", "1.5"],
    "bad-seed": ["selftest", "--seed", "x"],
    "bad-radius": ["verify", *ONE, *RUN, "--radius", "wide"],
    "bad-stride": ["simulate", *ONE, "--trajectory-stride", ""],
    "missing-value": ["analyze", *ONE, "--out"],
    "missing-model": ["analyze"],
    "two-models": ["analyze", *ONE, "--model", "{tmp}/model.json"],
}


@pytest.fixture
def argv_of(tmp_path, monkeypatch):
    monkeypatch.setattr(oracle, "SUITES", oracle.SUITES[:1])
    (tmp_path / "model.json").write_text(json.dumps(model_to_dict(one_draw_model([2, 0, 0, 1]))))
    return lambda name: [arg.replace("{tmp}", str(tmp_path)) for arg in ARGVS[name]]


def _two_pass(argv):
    return cli.build_parser().parse_args(argv)


def _outcome(parse, argv, capsys):
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


@pytest.mark.parametrize("name", ARGVS)
def test_main_gives_the_exit_code_and_bytes_of_the_two_pass_parse(name, argv_of, monkeypatch,
                                                                  capsys):
    argv = argv_of(name)
    assert _outcome(cli._parse, argv, capsys) == _outcome(_two_pass, argv, capsys)
    ours = cli.main(argv), capsys.readouterr()
    monkeypatch.setattr(cli, "_parse", _two_pass)
    assert (cli.main(argv), capsys.readouterr()) == ours


def test_the_table_reaches_every_flag_of_every_command():
    flags = {arg.split("=")[0] for argv in ARGVS.values() for arg in argv if arg.startswith("--")}
    _, commands = cli._parsers()
    assert {argv[0] for argv in ARGVS.values() if argv} >= set(commands)
    for command in commands.values():
        for action in command._actions:
            assert set(action.option_strings) & (flags | {"-h"}), action.option_strings
