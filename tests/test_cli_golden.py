"""Golden corpus: SHA-256 digests of the exact CLI reports.

Any change to the arithmetic, the interval representation or the report
rendering that alters a single byte of these reports fails here.
"""

import hashlib

import pytest

from torusapprox.cli import run


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


PAIRWISE_M2 = "bb7e97b86031ec54d2d98fbe85181117ecb242033fc982fa470f671929fe0976"
SIFT = "98bb2f5c134507794f1a955d57ae479a4cea662bf460ef50a51bcb2b70afeec3"

GOLDEN = [
    ("measure --q 12 --psi const:1/3 --y const:2/7",
     "a8297e89cd927490cd437e8e8736c3e8dd9a0386665f50969e1a0cc1abd65a1b"),
    ("overlap --q 12 --r 18 --psi const:1/4 --y const:1/3",
     "45219c07ed33ad99d0d1a76a488a610a26692ffd551e1ca98d860d50013698f4"),
    ("pairwise --Q 40 --m 2 --psi const:1/4 --y const:1/5", PAIRWISE_M2),
    # The worker count goes to stderr only; the report must not move.
    ("pairwise --Q 40 --m 2 --psi const:1/4 --y const:1/5 --workers 2", PAIRWISE_M2),
    ("pairwise --Q 40 --psi pow:1/2,1 --y zero --mode enclosure --precision 64",
     "1121f0fa785ffff19bd722f7e6014260c523c5aaaf8a2f9a5d196624ca14ae8d"),
    ("equidist --Q 30 --psi const:1/4 --y const:1/3 --windows 0:1/3,1/4:3/4",
     "47246124dd4c7a879b8c40fa621e8a3dfce7e6ab6881e4f6aeb575f3721ef347"),
    ("msum --ladder 16,32 --m 3 --psi div3",
     "9064102a8fdd94dfb53bef38f530f895214261cce21ad9af740dc36ff83a6543"),
    ("mc --q-range 2,3,6 --psi const:1/4 --samples 2000 --seed 7",
     "4beda6487cff73735475285f144ed878013a0064698ae287f89925daa684df41"),
    ("mc --q-range 2,3,6 --psi const:1/4 --samples 2000 --seed 7 --grid",
     "1b93a9639edd1ebad02dc4efa084eef1a63c86f3970698e44f8f5afc7a82a2da"),
    ("phigcd --q 6 --m 3",
     "a64c1b48b7addbd68bd67ce864ee24e8e3dc2e60254a23f42bfe4cf88fee2c2c"),
    ("phigcd --limit 300 --m 3",
     "cf857586b534c59e161b442fd5e20f00d987a31076d0b53110f3b3513fa20da8"),
    ("sift --X=-7/3 --Y 50 --n 30", SIFT),
    # A negative rational as a separate argument gives the same report.
    ("sift --X -7/3 --Y 50 --n 30", SIFT),
    ("counterexample --blocks 1 --eps 1/2 --verify",
     "da0e8317a565cf00a5bddd8b5a45faffd5e32bac2a2343e3694526c6f0854db8"),
    ("verify --suite counterexample",
     "4d50a061bbfc43655fa460f93400123c6a487141e6a7bb83d564fe6b0112d30b"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_report_digest(capsys, command, digest):
    code = run(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert sha256(out.encode()) == digest


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
