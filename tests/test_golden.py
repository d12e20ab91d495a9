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
import json

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
     "f459a1f81561730443f9cab08383e5d9bed69eee34189ef06c849ea32d09c001"),
    ("decide", "TCM24", ["--budget", "60"],
     "f459a1f81561730443f9cab08383e5d9bed69eee34189ef06c849ea32d09c001"),
    ("decide", "B9", ["--fallback"],
     "23d7b8d161f77f568dafc19b4b265f8a77581997ddc22fd11ed7b604286418a2"),
    ("decide", "B12", ["--seed", "3"],
     "603e5ea58dd76a8e51c7e439d7ad57893c590ed95e3586c2a5b2a1ad7bc1b2cb"),
    ("decide", "B14", ["--budget", "40"],
     "fab8c841bcf448f89a6c81d2f9a3b51d577f69023fcf3a6680869867ffa34765"),
    ("decide", "B15", [],
     "cbb4c2124a2c822857323933df7123d607fd74ea67955d8206f01691fc250a4f"),
    ("decide", "B16", ["--seed", "7"],
     "3d1095d398d0179c92bb7ad3df3d24ec0017afdff7bb4559da9350b4271ddd55"),
    ("absorb", "K10", [],
     "441ee1125795209aacf5f776125ea7d972591f497f6611dc905d212263aec93e"),
    ("absorb", "K30", ["--seed", "2"],
     "ef629af0cd3eb8f39fc202d159ae1c934da73bbc0cfdae6deaf112aba3638539"),
    ("absorb", "TCM24", ["--seed", "3"],
     "d2dcfda622572a6b7a4bf804cf5d0c24f517b7c9dcf91af488cbd8a0fb5262a9"),
    ("absorb", "TCM24", ["--budget", "0"],
     "4a6364e4037cbcf808d4964154fd302c3691be3f80269f58d3de6a23297760a7"),
    ("absorb", "TCM36", ["--seed", "9494955178128197401"],
     "67fbc4ad13998c9ff5e012d56678f95b68e92e60f45a171474b3d56697bea2cc"),
    ("absorb", "TCM36", ["--seed", "9494955178128197401", "--budget", "15000"],
     "18c113fb5a317bda0294108e0d87821767d03cf0be4421f65b17ca54ce7361c0"),
    ("absorb", "B12", ["--seed", "6"],
     "c7293f11b463705e89a3671e6b9d9f2b5718c85183959585fa42e945600114a1"),
    ("absorb", "B12", ["--seed", "6", "--budget", "10"],
     "858849d266eae6118755963667df061b516a934101df70e9f5b4e65233c02212"),
    ("absorb", "B12", ["--seed", "6", "--budget", "20"],
     "3b04c4adde65e882f8c7e5c9245e11f85460bc91f6d621ead54f6ba7513d1b73"),
    ("absorb", "B12", ["--seed", "6", "--budget", "20", "--d0", "1"],
     "ef36ae967d996c98edcfe32e6e42de70388b3a88228fae42d8c9c4bd57312c7b"),
    ("absorb", "B13", ["--d0", "1", "--seed", "0"],
     "84fb56431859fcc8609f4dbc5b78468e470f1ef14555b1f75ce0d5249f002bf7"),
    ("absorb", "B14", ["--d0", "2", "--seed", "4"],
     "858b9d56985b40362ac364c6f4ceca06ede92dde545f4c8f592b4d02f588fed3"),
    ("absorb", "B15", ["--d0", "1", "--seed", "1"],
     "b8e2ee2d84fab2364d746dca88575dd5e7fa794ea7d587acb3a9b4d0325027c8"),
    ("absorb", "B16", ["--d0", "1", "--seed", "6"],
     "7d374e3d2aaa5c15e0fe6fbb9d2e1054051d581920b70ee423b813d310973bdb"),
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


# The decide and absorb cases again, with ``effort`` dropped from every
# JSON line: (command, host, extra arguments, sha256 of "exit=<code>\n"
# + stdout, each line re-serialised without its "effort" key). A change
# that only spends less effort, and so re-records digests above, must
# leave these alone: verdicts, certificates, best lengths and absorption
# traces stay put.
EFFORT_FREE = [
    ("decide", "K10", [],
     "126224d2eb062b05f641c4784e684e1703ee38098e39847de6649a3c140d86ef"),
    ("decide", "K10", ["--budget", "0"],
     "b250f8478f3ee6e39789d9633424ffff906b1af694407d38089e7b02cfa232fb"),
    ("decide", "K10", ["--budget", "0", "--fallback"],
     "61d976dce199eeeeab2dfcaa3418a2d2fbc2a377874c43a25c7271ee1769a898"),
    ("decide", "K30", ["--seed", "5"],
     "042f1b7c67217fc73408d9065c9bfd2681fdb9e2d73ba1558ac76053667d8e30"),
    ("decide", "K30", ["--budget", "20"],
     "03cbe27221eda66c3794fef8d5683254ab94e74bdd3d3cef3da8772848e936e6"),
    ("decide", "TCM24", [],
     "5ad7f9486a4d5d0f62751c2fc669e7fc0dfb646bfcdd60fd158cd21dcfe7139c"),
    ("decide", "TCM24", ["--budget", "60"],
     "5ad7f9486a4d5d0f62751c2fc669e7fc0dfb646bfcdd60fd158cd21dcfe7139c"),
    ("decide", "B9", ["--fallback"],
     "559d8f67767ce9a01a5471218187bb694424056cae49cb1aea89938f8d5b15bd"),
    ("decide", "B12", ["--seed", "3"],
     "416d98575a06e50d78a4dd5e0f82fbc593493e6c53fa3bafd114449a750f6466"),
    ("decide", "B14", ["--budget", "40"],
     "306cc1a39f05dca31af9510ce715725e195c8ca0bd300aafb02c8fed536e2442"),
    ("decide", "B15", [],
     "27a4d59576321a33ae0a6b85b25e2081fdebac5d669d706e60026d9d19f976d5"),
    ("decide", "B16", ["--seed", "7"],
     "2431a1aab4f1267876c721e15a0f5341f41d0d7e90be3bb622362e00e522979a"),
    ("absorb", "K10", [],
     "d28a22bea29f44fedc096ffab6c70b4e8073e99cdd843c85803c4d5e6d41eea3"),
    ("absorb", "K30", ["--seed", "2"],
     "fda413cf0ca294b690c02a34cd6e81f5a6f650da763b6cdd4a1a23de97efec69"),
    ("absorb", "TCM24", ["--seed", "3"],
     "87a324d9fec852e209c80ae369e8fa8fe9c68c21b2a1563f026b0953145d057a"),
    ("absorb", "TCM24", ["--budget", "0"],
     "d026d9887659aa58716bb08d69824b4db1c58d5c3565ac3df03db2f68a3b0f01"),
    ("absorb", "TCM36", ["--seed", "9494955178128197401"],
     "23cb28d35fbc9f6cb3c51bd122d67f4617a353ea0f720b69a898a47fb8d88237"),
    ("absorb", "TCM36", ["--seed", "9494955178128197401", "--budget", "15000"],
     "dc4017fb284dff2bebe87ab9c7d803d0d0a411f7b4522420f1bce65745324cf4"),
    ("absorb", "B12", ["--seed", "6"],
     "ad3cdb8f3cade01199113f3834634135f5d0ce3e9fbed32e10e9df87a406bf81"),
    ("absorb", "B12", ["--seed", "6", "--budget", "10"],
     "376eca5cf78223832e4d30006bc090716eb797dcd1f9ec4f4bc85d532ae37df8"),
    ("absorb", "B12", ["--seed", "6", "--budget", "20"],
     "ad3cdb8f3cade01199113f3834634135f5d0ce3e9fbed32e10e9df87a406bf81"),
    ("absorb", "B12", ["--seed", "6", "--budget", "20", "--d0", "1"],
     "e0080e47954d2ceaa90bd74a60ba2785f5806ca676e75d313f828b92aaa5629b"),
    ("absorb", "B13", ["--d0", "1", "--seed", "0"],
     "f552665b3f63e75290990c4ec160239d1a3961830e5ae6505531af4399ee6858"),
    ("absorb", "B14", ["--d0", "2", "--seed", "4"],
     "017151ca1755cebc340be4812f51caaa0ac6e73ef97dcad31b4d05d760ec36e9"),
    ("absorb", "B15", ["--d0", "1", "--seed", "1"],
     "2bdd386ca9207daa72c331cc36b6ce8a40a652a0b526484f5b34d197f40ed3da"),
    ("absorb", "B16", ["--d0", "1", "--seed", "6"],
     "3c78e858d51a93da2b724071c8db0809380fae4a9fd2ebed857921f4a54a8d8e"),
]


def run_case_without_effort(command, host_file, extra, capsys) -> str:
    capsys.readouterr()
    code = main([command, "--host", host_file, *extra])
    lines = []
    for line in capsys.readouterr().out.splitlines():
        payload = json.loads(line)
        payload.pop("effort", None)
        lines.append(json.dumps(payload, sort_keys=True) + "\n")
    return hashlib.sha256(f"exit={code}\n{''.join(lines)}".encode()).hexdigest()


def test_effort_free_cases_cover_decide_and_absorb():
    golden = [(c, h, x) for c, h, x, _ in CASES if c in ("decide", "absorb")]
    assert [(c, h, x) for c, h, x, _ in EFFORT_FREE] == golden


@pytest.mark.parametrize(
    "command,host,extra,digest",
    EFFORT_FREE,
    ids=[f"{c}-{h}-{'_'.join(x) or 'default'}" for c, h, x, _ in EFFORT_FREE],
)
def test_golden_without_effort(command, host, extra, digest, host_files, capsys):
    assert run_case_without_effort(command, host_files[host], extra, capsys) == digest
