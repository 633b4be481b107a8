import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import torusapprox.approx as approx
import torusapprox.cli as cli
import torusapprox.counterexample as counterexample
import torusapprox.experiments as experiments
import torusapprox.overlap as overlap
import torusapprox.verification as verification
from torusapprox.approx import ApproxFunction, TargetSequence
from torusapprox.cli import run
from torusapprox.counterexample import build_counterexample, instance_from_prime_blocks
from torusapprox.errors import IdentityError
from torusapprox.experiments import ExperimentConfig, pairwise_overlap_sum
from torusapprox.rationals import _unlimited_int_digits, format_rational, parse_rational
from torusapprox.verification import check_counterexample, check_sifted_counts

SRC = Path(__file__).resolve().parent.parent / "src"


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


POOL_IMPORT = """
import sys
sys.path.insert(0, sys.argv[1])
import torusapprox.cli, torusapprox.verification
print(sorted(name for name in ("concurrent.futures", "multiprocessing") if name in sys.modules))
"""


def test_importing_the_cli_loads_no_process_pool():
    # The pool is imported only when a scan starts one with two or more
    # workers, so a CLI call pays nothing for it.
    done = subprocess.run(
        [sys.executable, "-c", POOL_IMPORT, str(SRC)], capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_overlap_row(capsys):
    code, out, _ = run_capture(
        capsys, ["overlap", "--q", "2", "--r", "3", "--psi", "const:1/4", "--y", "zero"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    row = lines[-1]
    assert header == "q,r,ell,m,n,D,exact_overlap,addend1,addend2,M,trivial_rhs"
    assert row == "2,3,1,1,6,3/2,1/12,1/24,1/12,1/24,7/48"


def test_counterexample_verify(capsys):
    code, out, _ = run_capture(
        capsys, ["counterexample", "--blocks", "1", "--eps", "1/2", "--verify"]
    )
    assert code == 0
    assert "# divergence_sum=5/12" in out
    row = out.strip().splitlines()[-1]
    assert "True,1/3,1/3,True" in row


def test_usage_errors_exit_2(capsys):
    code, _, err = run_capture(capsys, ["measure", "--q", "0", "--psi", "const:1/4"])
    assert code == 2 and "usage error" in err
    code, _, _ = run_capture(capsys, ["measure", "--q", "5", "--psi", "const:1/4",
                                      "--unknown-flag", "1"])
    assert code == 2
    code, _, _ = run_capture(capsys, ["no-such-subcommand"])
    assert code == 2
    code, _, err = run_capture(capsys, ["verify", "--suite", "bogus"])
    assert code == 2


def test_budget_exit_3(capsys):
    code, _, err = run_capture(
        capsys, ["pairwise", "--Q", "600", "--psi", "const:1/4", "--y", "zero"]
    )
    assert code == 3
    assert "budget refusal" in err


def test_byte_identical_runs_and_workers(capsys):
    argv = ["pairwise", "--Q", "10", "--psi", "const:1/4", "--y", "zero"]
    _, first, _ = run_capture(capsys, argv)
    _, second, _ = run_capture(capsys, argv)
    assert first == second
    _, with_workers, _ = run_capture(capsys, argv + ["--workers", "3"])
    assert with_workers == first


def test_mc_deterministic_per_seed(capsys):
    argv = ["mc", "--q-range", "2,3", "--psi", "const:1/4", "--samples", "2000",
            "--seed", "11"]
    _, first, _ = run_capture(capsys, argv)
    _, second, _ = run_capture(capsys, argv)
    assert first == second


def test_json_format_and_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_capture(
        capsys,
        ["measure", "--q", "6", "--psi", "const:1/4", "--y", "const:3/2",
         "--format", "json", "--out", str(out_path)],
    )
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert payload["rows"][0]["measure"] == "1/6"
    assert payload["config"]["subcommand"] == "measure"
    assert "fixture_version" in payload["config"]


class _FailingWriter:
    """A text file whose writes stop with OSError after a few bytes."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, text):
        self._handle.write(text[:5])
        raise OSError("disk full")

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


@pytest.mark.parametrize("fail_in", ["write", "replace"])
@pytest.mark.parametrize("argv", [
    ["measure", "--q", "6", "--psi", "const:1/4", "--out"],
    ["counterexample", "--primes", "2,3,5", "--save"],
])
def test_failed_write_keeps_the_old_file(capsys, monkeypatch, tmp_path, fail_in, argv):
    target = tmp_path / "report"
    target.write_text("old contents\n")
    if fail_in == "write":
        monkeypatch.setattr(
            counterexample, "open",
            lambda *a, **k: _FailingWriter(open(*a, **k)), raising=False,
        )
    else:
        def refuse(src, dst):
            raise OSError("rename refused")
        monkeypatch.setattr(counterexample.os, "replace", refuse)
    code, _, err = run_capture(capsys, argv + [str(target)])
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")
    assert target.read_text() == "old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report"]


@pytest.mark.parametrize("q_range", ["0", "-1", "0,5", "0..5"])
def test_mc_q_range_below_1_names_the_q_range(capsys, q_range):
    code, out, err = run_capture(capsys, ["mc", "--q-range", q_range, "--psi", "const:1/4"])
    assert code == 2 and out == ""
    assert err == "usage error: q_range must contain integers >= 1\n"


def test_removed_flags_exit_2(capsys):
    # pairwise uses no randomness, and verify prints only its suite lines.
    for argv in ("pairwise --Q 10 --psi const:1/4 --seed 1",
                 "verify --suite sift --format json"):
        code, out, err = run_capture(capsys, argv.split())
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err


def test_sift_suite_reports_a_raising_kernel(capsys, monkeypatch):
    def broken(x, y, n):
        raise IdentityError(f"sifted count error exceeds 2**omega(n) for n={n}")

    monkeypatch.setattr(verification, "sifted_interval_count", broken)
    result = check_sifted_counts(trials=5)
    assert not result.ok
    assert result.line().startswith("FAIL  sift: trial 0: sifted count error")
    code, out, _ = run_capture(capsys, ["verify", "--suite", "sift"])
    assert code == 1
    assert out.startswith("FAIL  sift: trial 0:")


def test_config_file_precedence(capsys, tmp_path):
    conf = tmp_path / "ta.conf"
    conf.write_text("psi=const:1/4\ny=zero\n")
    code, out, _ = run_capture(capsys, ["--config", str(conf), "measure", "--q", "6"])
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("6,1/4,0/1,1/6,1/6")
    # flags beat the config file
    code, out, _ = run_capture(
        capsys, ["--config", str(conf), "measure", "--q", "6", "--psi", "const:1/2"]
    )
    assert ",1/2," in out.strip().splitlines()[-1]


def test_config_line_conflicts_like_its_flag(capsys, tmp_path):
    conf = tmp_path / "ta.conf"
    conf.write_text("blocks=4\n")
    code, out, err = run_capture(
        capsys, ["--config", str(conf), "counterexample", "--primes", "2,3"]
    )
    assert (code, out) == (2, "")
    assert err == "usage error: counterexample takes one of --primes and --blocks, not both\n"


# One valid command line per subcommand in `cli._NEEDS`; each meets every need.
MEETS_NEEDS = {
    "measure": "measure --q 6 --psi const:1/4",
    "overlap": "overlap --q 2 --r 3 --psi const:1/4",
    "pairwise": "pairwise --Q 6 --psi const:1/4",
    "msum": "msum --Q 6 --psi div3",
    "phigcd": "phigcd --q 6",
    "sift": "sift --X 0 --Y 10 --n 6",
    "equidist": "equidist --Q 6 --psi const:1/4",
    "mc": "mc --q-range 2,3 --psi const:1/4 --samples 1000",
}
# Values for the flags of each conflict in `cli._CONFLICTS`, on top of a
# command line that is otherwise valid.
CONFLICT_VALUES = {
    "msum": ("msum --psi div3", {"Q": "10", "ladder": "4,8"}),
    "phigcd": ("phigcd", {"q": "5", "limit": "10"}),
    "counterexample": ("counterexample",
                       {"primes": "2,3", "blocks": "2", "eps": "1/2", "mode": "prime"}),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _alternatives(need) -> tuple:
    return (need,) if isinstance(need, str) else need


def _without(argv: list[str], flags) -> tuple[list[str], dict[str, str]]:
    """The command line less the given flags and their values, and those values by flag."""
    kept, dropped = [], {}
    pairs = iter(argv[1:])
    for token in pairs:
        if token in flags:
            dropped[token] = next(pairs)
        else:
            kept.append(token)
    return [argv[0], *kept], dropped


NEEDS = [
    pytest.param(command, need, id=f"{command}-{'|'.join(_alternatives(need))}")
    for command, needs in cli._NEEDS.items() for need in needs
]
CONFLICTS = [
    pytest.param(command, pair, id=f"{command}-{'|'.join(pair)}")
    for command, pairs in cli._CONFLICTS.items() for pair in pairs
]


def test_every_subcommand_with_needs_has_a_valid_command_line(capsys):
    assert set(MEETS_NEEDS) == set(cli._NEEDS)
    assert set(CONFLICT_VALUES) == set(cli._CONFLICTS)
    for argv in MEETS_NEEDS.values():
        code, _, err = run_capture(capsys, argv.split())
        assert code == 0, err


@pytest.mark.parametrize("command,need", NEEDS)
def test_a_missing_need_exits_2_naming_the_flag(capsys, command, need):
    flags = [_flag(dest) for dest in _alternatives(need)]
    argv, dropped = _without(MEETS_NEEDS[command].split(), flags)
    assert dropped
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: {command} needs {' or '.join(flags)}\n"


@pytest.mark.parametrize("command,need", NEEDS)
def test_a_need_met_by_a_config_line_runs(capsys, tmp_path, command, need):
    flags = [_flag(dest) for dest in _alternatives(need)]
    argv, dropped = _without(MEETS_NEEDS[command].split(), flags)
    conf = tmp_path / "ta.conf"
    conf.write_text("".join(f"{flag[2:]}={value}\n" for flag, value in dropped.items()))
    code, _, err = run_capture(capsys, ["--config", str(conf), *argv])
    assert code == 0, err


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("command,pair", CONFLICTS)
def test_a_conflict_exits_2_from_a_flag_or_a_config_line(capsys, tmp_path, command, pair,
                                                         via_config):
    base, values = CONFLICT_VALUES[command]
    first, second = pair
    argv = [*base.split(), _flag(first), values[first]]
    line = f"{_flag(second)[2:]}={values[second]}\n"
    if via_config:
        conf = tmp_path / "ta.conf"
        conf.write_text(line)
        argv = ["--config", str(conf), *argv]
    else:
        argv += [_flag(second), values[second]]
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (
        f"usage error: {command} takes one of {_flag(first)} and {_flag(second)}, not both\n"
    )


def test_table_flags_belong_to_their_subcommand_and_have_no_default():
    # A default would make a need always met, or a conflict always fire.
    _, commands = cli._build_parser()
    named = [(command, dest) for command, needs in cli._NEEDS.items()
             for need in needs for dest in _alternatives(need)]
    named += [(command, dest) for command, pairs in cli._CONFLICTS.items()
              for pair in pairs for dest in pair]
    for command, dest in named:
        parser = commands[command]
        assert _flag(dest) in parser._option_string_actions, (command, dest)
        assert parser._option_string_actions[_flag(dest)].dest == dest
        assert parser.get_default(dest) is None, (command, dest)


def test_config_lines_reach_every_flag(capsys, tmp_path):
    conf = tmp_path / "ta.conf"
    conf.write_text("format=json\npsi=const:1/4\n")
    code, out, _ = run_capture(capsys, ["--config", str(conf), "measure", "--q", "6"])
    assert code == 0
    assert json.loads(out)["rows"][0]["measure"] == "1/6"
    conf.write_text("suite=sift\n")
    code, out, _ = run_capture(capsys, ["--config", str(conf), "verify"])
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == ["PASS  sift"]


def test_config_windows_reach_equidist_and_the_flag_beats_them(capsys, tmp_path):
    conf = tmp_path / "ta.conf"
    conf.write_text("windows=0:1/3\n")
    argv = ["--config", str(conf), "equidist", "--Q", "12", "--psi", "const:1/4"]
    code, out, _ = run_capture(capsys, argv)
    assert code == 0
    assert "# windows=0:1/3" in out.splitlines()
    assert out.splitlines()[-1].startswith("0/1:1/3,")
    code, out, _ = run_capture(capsys, argv + ["--windows", "0:1"])
    assert code == 0
    assert "# windows=0:1" in out.splitlines()
    assert out.splitlines()[-1] == "0/1:1/1,0/1"


@pytest.mark.parametrize("line,command,named", [
    ("bogus=1", "equidist --Q 12", "'bogus'"),
    ("per-q=1", "equidist --Q 12", "'per-q'"),  # a flag, but one that takes no value
    ("format=xml", "equidist --Q 12", "'format'"),
    ("q=abc", "measure", "--q"),
])
def test_bad_config_lines_exit_2_naming_the_key(capsys, tmp_path, line, command, named):
    conf = tmp_path / "ta.conf"
    conf.write_text(line + "\n")
    argv = ["--config", str(conf), *command.split(), "--psi", "const:1/4"]
    code, out, err = run_capture(capsys, argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")
    assert named in err


def test_counterexample_save_and_load(capsys, tmp_path):
    path = tmp_path / "inst.json"
    code, _, _ = run_capture(
        capsys, ["counterexample", "--primes", "2,3,5", "--save", str(path)]
    )
    assert code == 0
    code, out, _ = run_capture(
        capsys, ["measure", "--q", "6", "--psi", f"cx:{path}", "--y", f"cx:{path}"]
    )
    assert code == 0
    # psi(6) = 6/60 = 1/10, measure = 2 * phi(6) * psi / 6 = 1/15
    assert out.strip().splitlines()[-1].startswith("6,1/10,")


def test_sift_row(capsys):
    code, out, _ = run_capture(capsys, ["sift", "--X", "0", "--Y", "10", "--n", "6"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "0/1,10/1,6,3,10/3,1/3,4"


def test_phigcd_row(capsys):
    code, out, _ = run_capture(capsys, ["phigcd", "--q", "6", "--m", "3"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "6,3,20,20,True"


def test_equidist_summary(capsys):
    code, out, _ = run_capture(
        capsys,
        ["equidist", "--Q", "12", "--psi", "const:1/4", "--windows", "0:1/2,0:1"],
    )
    assert code == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert lines[0] == "window,max_deviation"
    assert lines[2] == "0/1:1/1,0/1"


def test_equidist_summary_is_the_fold_of_the_per_q_rows(capsys):
    argv = ["equidist", "--Q", "40", "--psi", "pow:1/2,1", "--y", "const:1/3",
            "--windows", "0:1/3,1/4:3/4,1/2:1"]
    code, out, _ = run_capture(capsys, argv)
    assert code == 0
    code, per_q, _ = run_capture(capsys, argv + ["--per-q"])
    assert code == 0
    worst = {}
    for line in per_q.splitlines()[7:]:  # six config lines and the columns
        _, window, _, deviation = line.split(",")
        worst[window] = max(worst.get(window, Fraction(0)), parse_rational(deviation))
    assert len(worst) == 3 and all(worst.values())
    summary = [line.split(",") for line in out.splitlines()[7:]]
    assert summary == [[w, format_rational(d)] for w, d in worst.items()]
    # Each window's maximum starts at 0: no q has psi > 0 here.
    code, out, _ = run_capture(capsys, ["equidist", "--Q", "3", "--psi", "const:0"])
    assert code == 0
    assert out.splitlines()[-1] == "0/1:1/2,0/1"


def test_equidist_runs_at_Q_1(capsys):
    # A_1 = [0, 1/4) + [3/4, 1) is well defined; only a Q below 1 is refused.
    argv = ["equidist", "--Q", "1", "--psi", "const:1/4", "--per-q"]
    code, out, err = run_capture(capsys, argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "1,0/1:1/2,1/2,0/1"


def test_only_pairwise_prints_its_worker_count(capsys):
    cfg = ExperimentConfig(Q=3, psi=ApproxFunction.constant(Fraction(1, 4)),
                           target=TargetSequence.zero(), workers=2)
    assert "workers" not in cfg.describe()
    code, _, err = run_capture(capsys, ["mc", "--q-range", "2,3", "--psi", "const:1/4",
                                        "--samples", "2000"])
    assert code == 0
    assert "workers=" not in err
    code, out, err = run_capture(capsys, ["pairwise", "--Q", "10", "--psi", "const:1/4",
                                          "--workers", "2"])
    assert code == 0
    assert "workers" not in out
    lines = err.splitlines()
    assert lines[0] == "workers=2"
    assert re.fullmatch(r"pairs closed_form=45 merge=0 seconds=\d+\.\d{3}", lines[1])
    assert len(lines) == 2


@pytest.mark.parametrize("Q,asked,ran", [("2", "3", "1"), ("3", "3", "2")])
def test_pairwise_prints_the_workers_that_ran(capsys, Q, asked, ran):
    # A scan runs at most Q - 1 workers, and a single worker runs
    # in-process; the test above has the uncapped case.
    code, _, err = run_capture(capsys, ["pairwise", "--Q", Q, "--psi", "const:1/4",
                                        "--workers", asked])
    assert code == 0
    assert err.splitlines()[0] == f"workers={ran}"


def test_mc_prints_its_tables_on_stderr_only(capsys):
    code, out, err = run_capture(capsys, ["mc", "--q-range", "2,3,6", "--psi", "const:1/4",
                                          "--samples", "2000", "--seed", "7"])
    assert code == 0
    assert out.splitlines()[-1].startswith("2000,1324,0.662,")
    assert "tables" not in out
    # One table per q, of q + 2 steps: 4 + 5 + 8.
    assert re.fullmatch(r"tables=3 entries=17 seconds=\d+\.\d{3}\n", err)
    # The arcs of q = 1, 2, 3 leave out finitely many points, so every
    # sample is hit before q = 4 and no further table is built or charged.
    code, out, err = run_capture(capsys, ["mc", "--q-range", "1..20000", "--psi", "const:1/4",
                                          "--samples", "1000"])
    assert code == 0
    assert out.splitlines()[-1].startswith("1000,1000,1.0,")
    assert re.fullmatch(r"tables=3 entries=12 seconds=\d+\.\d{3}\n", err)


def test_verify_single_suite(capsys):
    code, out, _ = run_capture(capsys, ["verify", "--suite", "counterexample"])
    assert code == 0
    assert out.startswith("PASS  counterexample")


def test_verify_times_each_suite_on_stderr_only(capsys, monkeypatch):
    code, out, err = run_capture(capsys, ["verify", "--suite", "counterexample"])
    assert code == 0
    assert re.fullmatch(r"suite=counterexample seconds=\d+\.\d{3}\n", err)
    quiet = subprocess.run(
        [sys.executable, "-c", "from torusapprox.cli import main; main()",
         "verify", "--suite", "counterexample"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert quiet.returncode == 0
    assert quiet.stdout == out
    # One stderr line per suite, after that suite's report line.
    monkeypatch.setattr(cli, "SUITES", {
        "counterexample": check_counterexample,
        "sift": lambda: check_sifted_counts(trials=200),
    })
    code, out, err = run_capture(capsys, ["verify", "--suite", "all"])
    assert code == 0
    reports = [line.split(":")[0] for line in out.splitlines()]
    assert reports == ["PASS  counterexample", "PASS  sift"]
    lines = err.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"suite=counterexample seconds=\d+\.\d{3}", lines[0])
    assert re.fullmatch(r"suite=sift seconds=\d+\.\d{3}", lines[1])


def test_a_failed_identity_is_its_suites_fail_line_and_later_suites_run(capsys, monkeypatch):
    def broken(*args):
        raise IdentityError("ell * em * en != phi(q) phi(r)")

    monkeypatch.setattr(verification, "_decompose", broken)
    monkeypatch.setattr(cli, "SUITES", {name: verification.SUITES[name]
                                        for name in ("coprime-count", "sift")})
    code, out, err = run_capture(capsys, ["verify", "--suite", "all"])
    assert code == 1
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "FAIL  coprime-count", "PASS  sift"]
    assert out.splitlines()[0] == "FAIL  coprime-count: ell * em * en != phi(q) phi(r)"
    assert "identity failure" not in out + err


EXACT_CAP_REFUSAL = ("budget refusal: exact accumulation is capped at Q = 39; "
                     "use enclosure mode beyond that\n")


@pytest.mark.parametrize("via_config", [False, True])
def test_exact_cap_from_a_flag_or_a_config_line_moves_the_refusal(capsys, tmp_path,
                                                                  via_config):
    argv = ["pairwise", "--Q", "40", "--psi", "const:1/4"]
    if via_config:
        conf = tmp_path / "ta.conf"
        conf.write_text("exact-cap=39\n")
        argv = ["--config", str(conf), *argv]
    else:
        argv += ["--exact-cap", "39"]
    code, out, err = run_capture(capsys, argv)
    assert (code, out, err) == (3, "", EXACT_CAP_REFUSAL)


def test_exact_cap_admits_a_scan_past_the_default_cap(capsys):
    argv = ["pairwise", "--Q", "513", "--psi", "const:1/4"]
    code, out, _ = run_capture(capsys, argv)
    assert (code, out) == (3, "")
    code, out, _ = run_capture(capsys, argv + ["--exact-cap", "513"])
    assert code == 0
    assert out.splitlines()[-1].startswith("513,1,")


# Rows whose message must name the option at fault: a value that starts
# with "-" and a digit is joined to its flag, not read as one.
NAMED_OPTION = {
    "mc --q-range -3,5 --psi const:1/4": "q_range",
    "mc --q-range -3..5 --psi const:1/4": "q_range",
    "pairwise --Q 8 --ps div3 --wor 1": "--ps div3 --wor 1",
    "counterexample --m 3": "--m 3",
    "counterexample --eps abc": "eps",
    "phigcd --q 5 --limit 10": "phigcd takes one of --q and --limit, not both",
    "msum --Q 10 --ladder 4,8 --psi div3 --m 3": "msum takes one of --Q and --ladder, not both",
    "counterexample --primes 2,3 --eps 1/2 --blocks 4 --mode prime":
        "counterexample takes one of --primes and --blocks, not both",
    "counterexample --primes 2,3 --mode prime":
        "counterexample takes one of --primes and --mode, not both",
    "phigcd --limit 0": "ratio scan needs limit >= 1",
    "phigcd --limit -5": "ratio scan needs limit >= 1",
    "equidist --Q 5 --psi const:1/4 --windows 0:1/2,0:1/2": "window 0:1/2 is given twice",
    "msum --ladder 5,5 --psi div3": "ladder value 5 is given twice",
    "equidist --Q 5 --psi const:1/4 --windows 0:1/2,1/4:3/4,0/3:2/4":
        "window 0:1/2 is given twice",
    # A modulus below 1 is refused by its flag, not by the engine's check.
    "overlap --q 3 --r 0 --psi const:1/4": "argument --r: wants an integer >= 1, got '0'",
    "sift --X 0 --Y 10 --n 0": "argument --n: wants an integer >= 1, got '0'",
    "equidist --Q 0 --psi const:1/4": "argument --Q: wants an integer >= 1, got '0'",
    "pairwise --Q 5 --psi const:1/4 --exact-cap -5":
        "argument --exact-cap: wants an integer >= 1, got '-5'",
    "pairwise --Q 5 --psi const:1/4 --exact-cap 0":
        "argument --exact-cap: wants an integer >= 1, got '0'",
    "counterexample --primes=": "block 1 has no primes",
    "counterexample --eps=": "bad eps ''",
    "counterexample --primes 2,3;": "block 2 has no primes",
    "measure --q 5 --psi const:1/4 --out=": "argument --out: wants a file path, got ''",
    "pairwise --Q 8 --psi div3 --out=": "argument --out: wants a file path, got ''",
    "counterexample --save=": "argument --save: wants a file path, got ''",
    "--config= measure --q 5 --psi const:1/4": "argument --config: wants a file path, got ''",
}


@pytest.mark.parametrize("argv", [
    "pairwise --Q 1 --psi const:1/4 --y zero",
    "pairwise --Q 8 --workers 0 --psi const:1/4 --y zero",
    "pairwise --Q 8 --psi const:1/4 --mode enclosure --precision 8",
    "counterexample --eps abc",
    "counterexample --primes 4,6",
    "--config /nonexistent measure --q 5 --psi const:1/4",
    "measure --q 0 --psi const:1/4",
    "measure --q 5 --psi const:-1/4",
    "overlap --q 0 --r 3 --psi const:1/4",
    "overlap --q 3 --r 0 --psi const:1/4",
    "msum --ladder 1,2 --psi div3",
    # One row per ladder value: a value given twice is refused.
    "msum --ladder 5,5 --psi div3",
    "phigcd --q 0",
    "sift --X 0 --Y 10 --n 0",
    "equidist --Q 0 --psi const:1/4",
    "equidist --Q 10 --psi const:1/4 --windows 1/2:1/4",
    "mc --q-range 2,3 --psi const:1/4 --samples 10",
    "mc --q-range 5..3 --psi const:1/4",
    "verify --suite bogus",
    "measure --q 3 --psi const:1/0",
    "measure --q 3 --psi const:1/4 --y const:1/0",
    "sift --X=1/0 --Y 5 --n 6",
    "equidist --Q 5 --psi const:1/4 --windows 0:1/0",
    "msum --Q 4 --m 0 --psi const:1/4",
    "msum --Q 4 --m -3 --psi const:1/4",
    # Parse errors: one line, not argparse's usage block.
    "pairwise --bogus 3",
    "pairwise --Q",
    "nosuchcmd",
    "pairwise --mode fast --Q 8 --psi const:1/4",
    "mc --q-range -3,5 --psi const:1/4",
    "mc --q-range -3..5 --psi const:1/4",
    "pairwise --Q 8 --psi const:1/4 --mode " + "x" * 3000,
    # Abbreviated flags are refused, not expanded to --psi, --workers, --mode.
    "pairwise --Q 8 --ps div3 --wor 1",
    "counterexample --m 3",
    # Flags that exclude each other; the ratio scan names its limit.
    "phigcd --q 5 --limit 10",
    "msum --Q 10 --ladder 4,8 --psi div3 --m 3",
    "counterexample --primes 2,3 --eps 1/2 --blocks 4 --mode prime",
    "counterexample --primes 2,3 --mode prime",
    "phigcd --limit 0",
    "phigcd --limit -5",
    # One max-deviation row per window: a window given twice is refused.
    "equidist --Q 5 --psi const:1/4 --windows 0:1/2,0:1/2",
    "equidist --Q 5 --psi const:1/4 --windows 0:1/2,1/4:3/4,0/3:2/4",
    # A cap below 1 is refused by its flag, not reported as a budget refusal.
    "pairwise --Q 5 --psi const:1/4 --exact-cap -5",
    "pairwise --Q 5 --psi const:1/4 --exact-cap 0",
    # An empty list is given, not absent: refused, not the default schedule.
    "counterexample --primes=",
    "counterexample --eps=",
    "counterexample --primes 2,3;",
    # An empty path is given, not absent: refused before any work, not
    # read as "no file" with the report on stdout.
    "measure --q 5 --psi const:1/4 --out=",
    "pairwise --Q 8 --psi div3 --out=",
    "counterexample --save=",
    "--config= measure --q 5 --psi const:1/4",
])
def test_bad_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run_capture(capsys, argv.split())
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")
    assert NAMED_OPTION.get(argv, "") in err


NINES = "9" * 4000


@pytest.mark.parametrize("argv", [
    # Q = 3 starts at most two processes even if the cap were missing.
    "pairwise --Q 3 --psi const:1/4 --y zero --workers 65",
    "pairwise --Q 3 --psi const:1/4 --y zero --workers 1000000",
    "pairwise --Q 10 --psi const:1/4 --mode enclosure --precision 20000",
    "pairwise --Q 10 --psi const:1/4 --mode enclosure --precision 2049",
    "measure --q 100000000000000000000 --psi const:1/4",
    "measure --q 1000001 --psi const:1/4",
    "overlap --q 1000001 --r 3 --psi const:1/4",
    # Refused before the q set is built or a sample is drawn.
    "mc --q-range 2 --samples 100000000000000 --psi const:1/4",
    "mc --q-range 1..2000000 --samples 1000 --psi const:1/4",
    "mc --q-range 1..1000000 --samples 1000 --psi const:1/4",
    "mc --q-range 1..100000000000000000000 --samples 1000 --psi const:1/4",
    # 10**8 coordinate tests fill the cap, so the first arc table, of
    # q = 900001, is refused before it is built.
    "mc --q-range 900001..1000000 --samples 1000 --psi const:1/4",
    # Block 2 has 2^k - 1 divisors for a k past the materialization cap.
    "counterexample --blocks 2 --verify",
    "counterexample --primes 2,3,5,7,11,13,17,19 --verify",
    "phigcd --q 10000001",
    # The dimension cap is 64.
    "pairwise --Q 3 --m 65 --psi const:1/4",
    "msum --Q 4 --m 65 --psi const:1/4",
    "phigcd --q 12 --m 65",
    "phigcd --limit 100 --m 65",
    # Past the overlap-row cap 2**15, refused before any row or set is built.
    "msum --Q 32769 --psi div3",
    "pairwise --Q 32769 --psi const:1/4 --mode enclosure",
    # The dimension is checked before a target tuple of length m is built.
    pytest.param(f"pairwise --Q 5 --m {NINES} --psi div3", id="pairwise-m-4000-digits"),
    pytest.param(f"mc --q-range 2 --m {NINES} --psi const:1/4", id="mc-m-4000-digits"),
    # A number echoed back is shortened: the line stays short for any input.
    pytest.param(f"measure --q {NINES} --psi const:1/4", id="measure-q-4000-digits"),
    pytest.param(f"phigcd --q {NINES}", id="phigcd-q-4000-digits"),
    pytest.param(f"phigcd --limit {NINES}", id="phigcd-limit-4000-digits"),
    pytest.param(f"msum --Q {NINES} --psi div3", id="msum-Q-4000-digits"),
    pytest.param(f"pairwise --Q {NINES} --mode enclosure --psi const:1/4",
                 id="pairwise-Q-4000-digits"),
    # Block 3's starting point has about 1,900 digits.
    "counterexample --blocks 4",
])
def test_resource_caps_exit_3_with_one_line(capsys, argv):
    code, out, err = run_capture(capsys, argv.split())
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("budget refusal: ")
    assert len(err.encode()) <= 200


@pytest.mark.parametrize("argv", [
    "msum --Q 32769 --psi div3",
    "msum --ladder 8,32769 --psi div3",
    "pairwise --Q 32769 --psi const:1/4 --mode enclosure",
])
def test_row_cap_refuses_before_any_row_or_set(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("a row or a set was built before the row cap refused it")

    for module in (overlap, experiments):  # the sieve of `_overlap_rows`, and experiments' own
        monkeypatch.setattr(module, "spf_table", refuse)
    monkeypatch.setattr(experiments, "build_approx_set", refuse)
    code, out, err = run_capture(capsys, argv.split())
    assert code == 3 and out == ""
    assert err == "budget refusal: Q = 32769 exceeds the overlap-row cap 32768\n"


def test_row_cap_is_read_at_call_time(capsys, monkeypatch):
    monkeypatch.setattr(overlap, "_ROW_CAP", 16)
    code, out, err = run_capture(capsys, ["msum", "--Q", "17", "--psi", "div3"])
    assert code == 3 and out == ""
    assert err == "budget refusal: Q = 17 exceeds the overlap-row cap 16\n"
    code, _, _ = run_capture(capsys, ["msum", "--Q", "16", "--psi", "div3"])
    assert code == 0


@pytest.mark.parametrize("q,r", [("1000000000000037", "1000000000000037"),
                                 ("3", "1000000000000037")])
def test_overlap_refuses_past_the_piece_cap_before_factorizing(capsys, monkeypatch, q, r):
    def factorize(n):
        raise AssertionError("a modulus was factorized before the piece cap refused it")

    monkeypatch.setattr(overlap, "factorize", factorize)
    code, out, err = run_capture(capsys, ["overlap", "--q", q, "--r", r, "--psi", "const:1/4"])
    assert code == 3 and out == ""
    assert err == (
        "budget refusal: q = 1000000000000037 exceeds the approximation-set cap 1000000\n"
    )


def test_counterexample_verify_builds_each_block_union_once(capsys, monkeypatch):
    calls = []
    build = counterexample.block_union_set

    def counted(inst, j):
        calls.append(j)
        return build(inst, j)

    monkeypatch.setattr(counterexample, "block_union_set", counted)
    code, out, _ = run_capture(capsys, ["counterexample", "--primes", "2,3;5,7", "--verify"])
    assert code == 0
    assert out.splitlines()[-1].endswith(",True")
    assert calls == [1, 2]


def test_one_eps_is_copied_to_every_block(capsys, tmp_path):
    saved = tmp_path / "cx.json"
    code, out, _ = run_capture(
        capsys, ["counterexample", "--blocks", "2", "--eps", "1/2", "--save", str(saved)]
    )
    assert code == 0
    assert "# eps=1/2" in out.splitlines()
    blocks = json.loads(saved.read_text())["blocks"]
    assert [block["eps"] for block in blocks] == ["1/2", "1/2"]


def test_deferred_block_refusal_names_block_and_divisor_count(capsys, tmp_path):
    saved = tmp_path / "cx.json"
    code, out, err = run_capture(
        capsys, ["counterexample", "--blocks", "2", "--verify", "--save", str(saved)]
    )
    count = build_counterexample(2).blocks[1].divisor_count
    digits = str(count)
    assert len(digits) > 60  # so the line shows its first 20 digits and its length
    shown = f"{digits[:20]}...({len(digits)} digits)"
    assert code == 3 and out == ""
    assert err == f"budget refusal: block 2: {shown} divisors exceed the materialization cap\n"
    assert not saved.exists()  # refused before anything is written
    # Without --verify the same instance is reported as before.
    code, out, _ = run_capture(capsys, ["counterexample", "--blocks", "2"])
    assert code == 0 and out.splitlines()[-1].endswith(f",{count}")


@pytest.mark.parametrize("argv", [
    ["measure", "--q", "9" * 5000, "--psi", "const:1/4"],
    ["sift", "--X", "1/" + "x" * 5000, "--Y", "5", "--n", "6"],
    ["msum", "--ladder", "8," * 3000, "--psi", "const:1/4"],
    ["mc", "--q-range", "a" * 5000, "--psi", "const:1/4"],
    ["measure", "--q", "5", "--psi", "x" * 500],
    ["measure", "--q", "5", "--psi", "const:1/4", "--y", "y" * 500],
    ["measure", "--q", "5", "--psi", "pow:" + "1" * 500],
    ["pairwise", "--Q", "8", "--psi", "const:1/4", "--mode", "x" * 3000],
    ["pairwise", "--Q", "8", "--psi", "const:1/4", "--" + "z" * 3000, "1"],
], ids=["int", "rational", "ladder", "q-range", "psi", "target", "psi-pow", "choice",
        "unrecognized"])
def test_usage_errors_echo_a_bounded_input(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")
    assert len(err) < 200
    assert "characters)" in err


def _p6_file(**block_fields) -> str:
    """The saved P = 6 instance with some of block 1's entries replaced."""
    obj = instance_from_prime_blocks([[2, 3]]).to_json_obj()
    obj["blocks"][0].update(block_fields)
    return json.dumps(obj)


PSI_FILE = "measure --q 2 --psi {}"
Y_FILE = "measure --q 2 --psi const:1/4 --y {}"


@pytest.mark.parametrize("command,kind,text", [
    (PSI_FILE, "cx", _p6_file(psi={"3": "1/4", "6": "1/2"})),
    (PSI_FILE, "cx", _p6_file(psi={"2": "1/6", "3": "1/4", "5": "5/12", "6": "1/2"})),
    (PSI_FILE, "cx", json.dumps({"mode": "explicit"})),
    (PSI_FILE, "cx", _p6_file(divisors="abc")),
    (PSI_FILE, "cx", "[]"),
    (PSI_FILE, "table", "5\n"),
    (PSI_FILE, "table", "2,1/4\n2,1/3\n"),
    (PSI_FILE, "table", "2,1/4,extra\n"),
    (Y_FILE, "table", "2,1/5\n3,1/7\n2,1/5\n"),
    (Y_FILE, "table", "0,1/2\n"),
    (Y_FILE, "table", "-4,1/5\n"),
    ("pairwise --Q 8 --m 2 --psi const:1/4 --y {}", "table", "2,1/5,1/3,1/7\n"),
], ids=["cx-psi-2-missing", "cx-psi-5-extra", "cx-no-blocks", "cx-divisors-str",
        "cx-json-list", "table-one-column", "table-q-twice", "table-extra-column",
        "target-table-q-twice", "target-table-q-0", "target-table-q-negative",
        "target-table-wider-than-m"])
def test_bad_input_files_exit_2_with_one_line(capsys, tmp_path, command, kind, text):
    path = tmp_path / "input"
    path.write_text(text)
    code, out, err = run_capture(capsys, command.format(f"{kind}:{path}").split())
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [
    "pairwise --Q 1000001 --psi const:1/4 --mode enclosure",
    "equidist --Q 1000001 --psi const:1/4",
])
def test_oversized_scans_refuse_before_building_a_set(capsys, monkeypatch, argv):
    def build_approx_set(*args):
        raise AssertionError("a set was built before the Q cap refused the scan")

    monkeypatch.setattr(experiments, "build_approx_set", build_approx_set)
    code, out, err = run_capture(capsys, argv.split())
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("budget refusal: ")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reports_render_integers_past_the_str_digit_limit(capsys, monkeypatch, fmt):
    # The ratio's numerator and denominator run to thousands of digits.
    monkeypatch.setattr(approx, "_DIMENSION_CAP", 600)
    argv = f"pairwise --Q 30 --m 600 --psi const:1/3 --format {fmt}".split()
    code, out, err = run_capture(capsys, argv)
    assert code == 0
    if fmt == "csv":
        text = out.splitlines()[-1].split(",")[-1]
    else:
        text = json.loads(out)["rows"][0]["ratio"]
    expected = pairwise_overlap_sum(ExperimentConfig(
        Q=30, psi=ApproxFunction.constant(Fraction(1, 3)), target=TargetSequence.zero(600),
        m=600,
    )).ratio
    assert expected.denominator > 10**4300
    with _unlimited_int_digits():
        assert parse_rational(text) == expected
    # Input keeps the limit once the report is rendered.
    code, out, err = run_capture(capsys, ["measure", "--q", "9" * 5000, "--psi", "const:1/4"])
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")
