import json

import pytest

from torusapprox.cli import run


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_verify_single_suite(capsys):
    code, out, _ = run_capture(capsys, ["verify", "--suite", "counterexample"])
    assert code == 0
    assert out.startswith("PASS  counterexample")


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
    "msum --ladder 1,2 --psi div3",
    "phigcd --q 0",
    "sift --X 0 --Y 10 --n 0",
    "equidist --Q 10 --psi const:1/4 --windows 1/2:1/4",
    "mc --q-range 2,3 --psi const:1/4 --samples 10",
    "verify --suite bogus",
])
def test_bad_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run_capture(capsys, argv.split())
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")
