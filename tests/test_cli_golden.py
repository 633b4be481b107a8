"""Golden corpus: SHA-256 digests of the exact CLI reports.

Any change to the arithmetic, the interval representation or the report
rendering that alters a single byte of these reports fails here.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torusapprox.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


PAIRWISE_M2 = "bb7e97b86031ec54d2d98fbe85181117ecb242033fc982fa470f671929fe0976"
PAIRWISE_MERGE = "65bcde36f8f6b69c202f2edd94dea047440488cd537c59e8f3ef2fa12da57d33"
SIFT = "98bb2f5c134507794f1a955d57ae479a4cea662bf460ef50a51bcb2b70afeec3"
VERIFY_COUNTEREXAMPLE = "4d50a061bbfc43655fa460f93400123c6a487141e6a7bb83d564fe6b0112d30b"

GOLDEN = [
    ("measure --q 12 --psi const:1/3 --y const:2/7",
     "a8297e89cd927490cd437e8e8736c3e8dd9a0386665f50969e1a0cc1abd65a1b"),
    # Touching arcs at psi = 1/2 with a negative target, overlapping arcs
    # (measure 5/6 below the closed form 1) and the full circle: these pin
    # the report's `ok` flag on each branch of the builder.
    ("measure --q 30 --psi const:1/2 --y const:-7/3",
     "40acbd7c5516eba0c3716298f0c6d02fe72b8dfa7fcf3db9cecd842903950272"),
    ("measure --q 12 --psi const:3/2 --y const:5/2",
     "354c52a41556dec808ea155640388888ef8f671f92dc06baae0bdeffef09e73f"),
    ("measure --q 3 --psi const:2 --y zero",
     "6a5173417c4586b13c0ec247b8118874ba040bbad727217de4f03af2422169d0"),
    # Touching arcs whose last run straddles 1 (residues 7 and 8 at y = 2),
    # and overlapping arcs whose merged run crosses 1 (measure 5/6).
    ("measure --q 9 --psi const:1/2 --y const:2",
     "9882ac99e7421452c719b1bde65bf13ee9b43620af01f7a8b74a97c5f59a171f"),
    ("measure --q 9 --psi const:3/4 --y const:2/3",
     "be9686902df1ab23576945608b3dffc6f77f953fbe0d4b55001b5a681866e659"),
    ("overlap --q 12 --r 9 --psi const:1/2 --y const:1/5",
     "8d0d69793f8927ee7af1b59bfbcb5fa9b01c4058ed5542a14ea497c7ad7b28a7"),
    ("overlap --q 12 --r 18 --psi const:1/4 --y const:1/3",
     "45219c07ed33ad99d0d1a76a488a610a26692ffd551e1ca98d860d50013698f4"),
    ("pairwise --Q 40 --m 2 --psi const:1/4 --y const:1/5", PAIRWISE_M2),
    # The worker count goes to stderr only; the report must not move.
    ("pairwise --Q 40 --m 2 --psi const:1/4 --y const:1/5 --workers 2", PAIRWISE_M2),
    # Touching arcs off centre: 2 splits 767 of the 1128 pairs, whose
    # overlap terms run over the odd multiples of their steps.
    ("pairwise --Q 48 --psi const:1/2 --y const:1/3",
     "8f62b1b68899c75b0cec8c2f104b16374a703f4632d69da06789945fd3bd4408"),
    ("pairwise --Q 40 --psi pow:1/2,1 --y zero --mode enclosure --precision 64",
     "1121f0fa785ffff19bd722f7e6014260c523c5aaaf8a2f9a5d196624ca14ae8d"),
    # Two target columns, the coordinates 0 and 2 sharing one, exact and
    # enclosed.
    ("pairwise --Q 40 --m 3 --psi const:1/4 --y const:0,1/3,0",
     "2db08962fa69e52098ab53d7eb049eafc21da7429247c6436ef3d2ab335f218f"),
    ("pairwise --Q 40 --m 3 --psi pow:1/2,1 --y const:0,1/3,0 --mode enclosure --precision 64",
     "a95e0a8674110a8282b7ebd44a8849d01107a46e16c833f3834bebd8589dfd8b"),
    # An exact cap at Q admits the scan and leaves the report as at the
    # default cap.
    ("pairwise --Q 40 --psi const:1/4 --exact-cap 40",
     "32ca0067a47ec1b8c526b42fac06528802cf17a7b1504ef4f86dc087e9db1872"),
    # Weights above 1/2 send all 276 pairs, over two columns, to the
    # interval merge.
    ("pairwise --Q 24 --m 2 --psi const:3/4 --y const:0,1/3", PAIRWISE_MERGE),
    ("pairwise --Q 24 --m 2 --psi const:3/4 --y const:0,1/3 --workers 2", PAIRWISE_MERGE),
    # Zero weights: the ratio 0/0 renders as `undefined`.
    ("pairwise --Q 24 --psi const:0",
     "905445e39ed7630c54318f90511b29dc01d6e025f5c7e69600e9bd8dafaa17a0"),
    ("equidist --Q 30 --psi const:1/4 --y const:1/3 --windows 0:1/3,1/4:3/4",
     "47246124dd4c7a879b8c40fa621e8a3dfce7e6ab6881e4f6aeb575f3721ef347"),
    ("equidist --Q 30 --psi const:1/4 --y const:1/3 --windows 0:1/3,1/4:3/4 --per-q",
     "c6dc0ef003761dacb417ea30fc05e0ef34391ae137fe692ec9ab236c4542f3b0"),
    # Touching arcs against windows, one of them ending at 1.
    ("equidist --Q 30 --psi const:1/2 --y const:1/3 --windows 0:1/2,1/3:1 --per-q",
     "5eb8b728d934157b5f041c9889a71b8c876049848518628ccb08612fa03104cd"),
    ("msum --ladder 16,32 --m 3 --psi div3",
     "9064102a8fdd94dfb53bef38f530f895214261cce21ad9af740dc36ff83a6543"),
    ("msum --Q 24 --m 2 --psi const:3/4",
     "5a5020fbc696ec6517e24c221f533877871e6043fe6a0802a2668f35cb51ff63"),
    ("mc --q-range 2,3,6 --psi const:1/4 --samples 2000 --seed 7",
     "4beda6487cff73735475285f144ed878013a0064698ae287f89925daa684df41"),
    ("mc --q-range 2,3,6 --psi const:1/4 --samples 2000 --seed 7 --grid",
     "1b93a9639edd1ebad02dc4efa084eef1a63c86f3970698e44f8f5afc7a82a2da"),
    # 30000 draws span eight batches of 4096; the m = 3 run's 5000 samples
    # are not a multiple of its 1365 samples per batch.
    ("mc --q-range 2,3,6 --psi const:1/4 --samples 30000 --seed 7",
     "edf6df23996a1b1b7a5d7d65e6a48f9304eff0365fac556f565edce6bc1d0f64"),
    ("mc --q-range 2,3,5 --m 3 --psi const:1/3 --y const:1/5,2/7,0 --samples 5000 --seed 11",
     "a476599214fb5d3f342c3cec20ad4a7e8bd29c851107bff535f0f8258cc0eac0"),
    # JSON reports keep their config's types: integer Q and seed, and a
    # null precision outside enclosure mode.
    ("pairwise --Q 40 --m 2 --psi const:1/4 --y const:1/5 --format json",
     "46a1c89a20dcec220fabf4b43bc5b7bf496a7f6086963d0db6b039613a511fdb"),
    ("pairwise --Q 40 --psi pow:1/2,1 --mode enclosure --precision 64 --format json",
     "3e112f0e915acea296c38bec570adeaeb2a87c3950bb22a34f063323f9180875"),
    ("mc --q-range 2,3,6 --psi const:1/4 --samples 2000 --seed 7 --format json",
     "5edea1fc5f37c6e1f10cd386bbab511bb4d4cfb378bd64f09e586475dee76000"),
    ("equidist --Q 30 --psi const:1/4 --y const:1/3 --windows 0:1/3,1/4:3/4 --format json",
     "0cf03b743a3ed06cd0c4a37b82f7e7e5a87102347e57cb1ab3f24d4e00a80354"),
    ("phigcd --q 6 --m 3",
     "a64c1b48b7addbd68bd67ce864ee24e8e3dc2e60254a23f42bfe4cf88fee2c2c"),
    # 360 has 24 divisors.
    ("phigcd --q 360 --m 4",
     "529b579099ff9889ed87cf73f9d861e4763bd2380f74fc571f845c688af69754"),
    # 720720 = 2^4 3^2 5 7 11 13 has 240 divisors.
    ("phigcd --q 720720 --m 4",
     "8310d9bb2c2d73b2c17a880d7ae3a99ea8dcbce99aaec0d80e903bd0e9998267"),
    ("phigcd --limit 300 --m 3",
     "cf857586b534c59e161b442fd5e20f00d987a31076d0b53110f3b3513fa20da8"),
    ("sift --X=-7/3 --Y 50 --n 30", SIFT),
    # A negative rational as a separate argument gives the same report.
    ("sift --X -7/3 --Y 50 --n 30", SIFT),
    ("counterexample --blocks 1 --eps 1/2 --verify",
     "da0e8317a565cf00a5bddd8b5a45faffd5e32bac2a2343e3694526c6f0854db8"),
    # One eps for every block; block 2 has 15 primes and 32,767 divisors.
    ("counterexample --blocks 2 --eps 1/2",
     "ac5b89233cb26daafd5c784859d73c293b728a13a0d8235eece04f37ea282ac8"),
    ("counterexample --primes 2,3,5,7,11 --verify",
     "b85ea9007c33647ebd489a0a1f9a4d8ab6e097ae248abb4289f27976942c7f07"),
    ("verify --suite counterexample", VERIFY_COUNTEREXAMPLE),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_report_digest(capsys, command, digest):
    code = run(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert sha256(out.encode()) == digest


@pytest.mark.parametrize("module", ["torusapprox", "torusapprox.cli"])
def test_python_dash_m_runs_the_cli(module):
    done = subprocess.run(
        [sys.executable, "-m", module, "verify", "--suite", "counterexample"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0
    assert sha256(done.stdout) == VERIFY_COUNTEREXAMPLE


GOLDEN_UNDER_O = """
import contextlib, hashlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from torusapprox.cli import run
digests = []
for command in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(command.split())
    digests.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
print(json.dumps(digests))
"""


def test_golden_reports_hold_under_optimize_flag():
    # `python -O` strips asserts; no report byte may depend on one.
    done = subprocess.run(
        [sys.executable, "-O", "-c", GOLDEN_UNDER_O, str(SRC),
         json.dumps([command for command, _ in GOLDEN])],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[0, digest] for _, digest in GOLDEN]


def test_counterexample_save_digests(capsys, tmp_path):
    path = tmp_path / "inst.json"
    code = run(["counterexample", "--primes", "2,3,5", "--save", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert sha256(out.encode()) == (
        "275c66aeae483a8ffb5379b697229960363a025e9389f21ab93eefc8f734cf45"
    )
    assert sha256(path.read_bytes()) == (
        "205be918054637692f7196b2b895648ad3681be5af861288fe57a1efdff7ace1"
    )
