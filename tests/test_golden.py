"""Golden corpus: sha256 digests of CLI output on fixed hosts and seeds.

The search engine may be restructured, but no verdict, certificate,
effort count, trace line, CSV row or closure dump may change by a byte.
Each case runs ``bergeham.cli.main`` in-process on a host written by
``bergeham gen``; its digest covers the exit code and all of stdout.

The cases reach every branch of the search: a spanning path closed
directly, after rotations at its tip, and after rotations at both ends;
a spanning path that cannot be closed; a budget that runs out before a
closure, between closures and inside an absorption step; a stuck search
and restarts that run out; the oracle fallback saying yes and no; and
single-edge and pair absorption that lengthen the path or close it, and
a pair scan (TCM36) that tests thousands of candidate pairs before one
closes, or runs out of budget among them; and τ₂ prefixes (TCM36) whose
one matching triple is a bridge, so that no search can close them.
Budgets include 0 and small values that run out mid-search.
"""

import hashlib

import pytest

from bergeham.cli import main

HOSTS = {
    "K10": ["--family", "complete", "--n", "10"],
    "K30": ["--family", "complete", "--n", "30"],
    "TCM24": ["--family", "two_cliques_matching", "--n", "24", "--seed", "1"],
    "TCM36": ["--family", "two_cliques_matching", "--n", "36", "--seed", "1"],
    "B9": ["--family", "binomial", "--n", "9", "--p", "0.08", "--seed", "0"],
    "B12": ["--family", "binomial", "--n", "12", "--p", "0.06", "--seed", "6"],
    "B13": ["--family", "binomial", "--n", "13", "--p", "0.08", "--seed", "0"],
    "B14": ["--family", "binomial", "--n", "14", "--p", "0.25", "--seed", "2"],
    "B15": ["--family", "binomial", "--n", "15", "--p", "0.2", "--seed", "112"],
    "B16": ["--family", "binomial", "--n", "16", "--p", "0.15", "--seed", "3"],
}

# (command, host, extra arguments, sha256 of "exit=<code>\n" + stdout)
CASES = [
    ("decide", "K10", [],
     "d7ba96ddd0a86b0e9b6cfe04b60c4ff31d06db079b24ea0f958b9bc696b6ad38"),
    ("decide", "K10", ["--budget", "0"],
     "13da753f07210a3640d2f6749b356892544825a95ba2b67730f6f468f80c6677"),
    ("decide", "K10", ["--budget", "0", "--fallback"],
     "4b59db580321757de9774e137e9bff2302f504323ac7be09a46421f8a579b3d7"),
    ("decide", "K30", ["--seed", "5"],
     "cf7eba4cf3f0a2fb273ee1920f394ac891ca1d9d37bf9f72f6cb741235558fcc"),
    ("decide", "K30", ["--budget", "20"],
     "de42a26b157c2b4f79f45461a08ec234827b63494ea39e78aad06eb0230da08b"),
    ("decide", "TCM24", [],
     "31d8075c6088df8ee6cd0365535c14f044f50153ef216017ca1dc0f16bd10a00"),
    ("decide", "TCM24", ["--budget", "60"],
     "6c7f0c4d6d14ce3d834ef44e73ed7cae97df76b7da6c7d36a47b785fb8d1fc7f"),
    ("decide", "B9", ["--fallback"],
     "148831dfae78ee3103863dd204690ec5399f4c747ca80f793b8591266f528c71"),
    ("decide", "B12", ["--seed", "3"],
     "4491120cbf953a5e1216d897255356b9dbcd80f10b5e1351402b6dae5e24b0c7"),
    ("decide", "B14", ["--budget", "40"],
     "fab8c841bcf448f89a6c81d2f9a3b51d577f69023fcf3a6680869867ffa34765"),
    ("decide", "B15", [],
     "1c95cf62e35da06076bb65d174858b48aeb92247cd21878a07428b09d16dc6e5"),
    ("decide", "B16", ["--seed", "7"],
     "555e29c46dc7b366be80b6128e3c2e1ef8f5e90d8d1a726c3445a67e39dfad95"),
    ("absorb", "K10", [],
     "a81494c9d1df02f351b11095b80d0d6c2a69608b6d44386ec287141679144f68"),
    ("absorb", "K30", ["--seed", "2"],
     "921dfb019e72031e4f947fac2a6fefc2ac9cbf633353a6c24e064215840ca145"),
    ("absorb", "TCM24", ["--seed", "3"],
     "d8590320ba48b00476c2ba510bbae787d202e7561d7c332afc76dbcf18cc0abc"),
    ("absorb", "TCM24", ["--budget", "0"],
     "4a6364e4037cbcf808d4964154fd302c3691be3f80269f58d3de6a23297760a7"),
    ("absorb", "TCM36", ["--seed", "9494955178128197401"],
     "77a7de7572e3d35cdd631a25ff79a9dde525a5871b30e07f2b9dd3019ae3deea"),
    ("absorb", "TCM36", ["--seed", "9494955178128197401", "--budget", "15000"],
     "23a8480904dd0f735725dfb036bc54c5b0436ae70ef65ec88673f6eecf58b104"),
    ("absorb", "B12", ["--seed", "6"],
     "2d42063ee3b620f86898cf430611c1ebd299cbe864235ca4bd53fba5723b26aa"),
    ("absorb", "B12", ["--seed", "6", "--budget", "10"],
     "858849d266eae6118755963667df061b516a934101df70e9f5b4e65233c02212"),
    ("absorb", "B12", ["--seed", "6", "--budget", "20"],
     "4649b1deefa6c8e3854be4decf3bad1f54a964e842636acaec7c6051a4e151f5"),
    ("absorb", "B12", ["--seed", "6", "--budget", "20", "--d0", "1"],
     "9bb184a7527dfd3ed03761933f758dcfdf1ec2b85870f8ef366c258b1011c011"),
    ("absorb", "B13", ["--d0", "1", "--seed", "0"],
     "84fb56431859fcc8609f4dbc5b78468e470f1ef14555b1f75ce0d5249f002bf7"),
    ("absorb", "B14", ["--d0", "2", "--seed", "4"],
     "858b9d56985b40362ac364c6f4ceca06ede92dde545f4c8f592b4d02f588fed3"),
    ("absorb", "B15", ["--d0", "1", "--seed", "1"],
     "ea1f96c454862de0e0e263ce572cc6d30bffc5566cea453b9f63bca61b7ad6f8"),
    ("absorb", "B16", ["--d0", "1", "--seed", "6"],
     "b4d9bcc763ca3179cce12813618b27663c1748f451d3045f3a453d50d303feee"),
    ("tau", "K10", ["--trials", "6", "--seed", "3"],
     "0e16e2c8f468d48fd302683bde165fb37286f002a88930038c1326cc12db015f"),
    ("tau", "K30", ["--trials", "4", "--seed", "9"],
     "3bf553845a910f85276596ccb0e5e267b30121b24ed79839301c8a9436ad5256"),
    ("tau", "TCM24", ["--trials", "8", "--seed", "1", "--budget", "2000"],
     "47b8bdad306ba3550d454e0dedd5b90b8cb9c65927ea2c7bb102a53ced63d355"),
    ("tau", "TCM36", ["--trials", "12", "--seed", "1"],
     "3eb892b56c91b3d5de8509fa4ff73a08345f73686ae1a5aede879ea1fb7780f8"),
    ("tau", "B16", ["--trials", "3", "--seed", "2", "--full-tau-bh"],
     "68841e100cba0b4e9decd42b4257d01680c8aada2cf66c21279da95d4b58ca13"),
    ("rotate-trace", "K10", [],
     "781df8d480882bc7b78f5c62706811c4de92aa501b1adc2b316c5b587f1561fb"),
    ("rotate-trace", "TCM24", ["--budget", "25"],
     "5dd47995a197e09fd7001a55c78424672f6c0bd1421c6d6a32fbb3c8fb47d6cb"),
    ("rotate-trace", "B14", [],
     "027a41c6046a9a39b4c9d551a774149a073b373fd18604b2c14a34b3e8091e07"),
    ("rotate-trace", "B16", ["--budget", "0"],
     "6323f60ca94495aeaac10341f87ffc98815d22c6f3fdd38e7452784509e82a78"),
]


@pytest.fixture(scope="module")
def host_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-hosts")
    files = {}
    for name, spec in HOSTS.items():
        path = root / f"{name}.txt"
        assert main(["gen", *spec, "--out", str(path)]) == 0
        files[name] = str(path)
    return files


def run_case(command, host_file, extra, capsys) -> str:
    capsys.readouterr()
    code = main([command, "--host", host_file, *extra])
    out = capsys.readouterr().out
    return hashlib.sha256(f"exit={code}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize(
    "command,host,extra,digest",
    CASES,
    ids=[f"{c}-{h}-{'_'.join(x) or 'default'}" for c, h, x, _ in CASES],
)
def test_golden(command, host, extra, digest, host_files, capsys):
    assert run_case(command, host_files[host], extra, capsys) == digest
