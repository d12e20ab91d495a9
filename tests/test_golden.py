"""Golden corpus: sha256 digests of CLI output on fixed hosts and seeds.

The search engine may be restructured, but no verdict, certificate,
effort count, trace line, CSV row or closure dump may change by a byte.
Each case runs ``bergeham.cli.main`` in-process on a host written by
``bergeham gen``; its digest covers the exit code and all of stdout.

The cases reach every branch of the search: a spanning path closed
directly, after rotations at its tip, and after rotations at both ends;
a spanning path that cannot be closed; a budget that runs out in greedy
growth before any closure (K30), inside a rotation closure, where the
witness stream refuses a rotation (B12 at budget 150), and inside an
absorption step; a stuck search and restarts that run out; the oracle
fallback saying yes and no; single-edge and pair absorption that
lengthen the path or close it, and a pair scan (TCM36) that tests
thousands of candidate pairs before one closes, or runs out of budget
among them; and τ₂ prefixes (TCM36) whose one matching triple is a
bridge, so that no search can close them; and the τ_BH search of
``tau --full-tau-bh``, which bisects past τ₂ to a conclusive hitting
time (K9R4) or stops at an unknown probe (TCM24).
Budgets include 0 and small values that run out mid-search.

The ``oracle`` cases pin the exact search's certificates for r = 2, 3
and 4 (K5R2, K5, K10, K9R4) and on a sparse host where the search
backtracks hundreds of times before it closes (B10); its "no" after a
full search (B10N), on a host with fewer edges than vertices (B9) and on
a disconnected host (TC8), each exit 1; and both guard refusals, n above
``--max-n`` (K12) and edges above ``--max-edges`` (K10), each exit 2.

``python tests/test_golden.py`` prints the recorded and the current
digest of every ``CASES``, ``EFFORT_FREE``, ``CHECKS`` and
``SAMPLED_CHECKS`` entry and of the ``is_expander`` calls, flags the ones
that moved, and exits 1 if any did.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

if __name__ == "__main__":
    # run as a script: report on the package in this tree, not an installed one
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bergeham.cli import main
from bergeham.generators import binomial, complete, two_cliques
from bergeham.hypergraph import is_expander

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
    "K3": ["--family", "complete", "--n", "3"],
    "E6": ["--family", "binomial", "--n", "6", "--p", "0"],
    "K5": ["--family", "complete", "--n", "5"],
    "K5R2": ["--family", "complete", "--n", "5", "--r", "2"],
    "TC8": ["--family", "two_cliques", "--n", "8"],
    "K12": ["--family", "complete", "--n", "12"],
    "K60R2": ["--family", "complete", "--n", "60", "--r", "2"],
    "K9R4": ["--family", "complete", "--n", "9", "--r", "4"],
    "B10": ["--family", "binomial", "--n", "10", "--p", "0.08", "--seed", "8"],
    "B10N": ["--family", "binomial", "--n", "10", "--p", "0.15", "--seed", "2"],
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
    ("decide", "B12", ["--seed", "3", "--budget", "150"],
     "503b6732eebbfe7b78a5450f6d39f90e609a6a685fa97ec09913e32b0196ff98"),
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
     "56c7cf21b349a2bb9c7d50ccec5896f3f4459a8611bc5f9830662cdf11d52c4d"),
    ("absorb", "TCM24", ["--budget", "0"],
     "4a6364e4037cbcf808d4964154fd302c3691be3f80269f58d3de6a23297760a7"),
    ("absorb", "TCM36", ["--seed", "9494955178128197401"],
     "8a310e2d274955698a40fc24d83a9c0a062b419f5d226836d7f619bbd2c6157a"),
    ("absorb", "TCM36", ["--seed", "9494955178128197401", "--budget", "15000"],
     "8b25823f57b66b5e2a8333f7af539a7a75eac86717649c10ef69af3cc9c97c29"),
    ("absorb", "B12", ["--seed", "6"],
     "d92e9691100490d3b5d7548f7dd25aaea5c28c183fe7007ed2395b33e5672f86"),
    ("absorb", "B12", ["--seed", "6", "--budget", "10"],
     "858849d266eae6118755963667df061b516a934101df70e9f5b4e65233c02212"),
    ("absorb", "B12", ["--seed", "6", "--budget", "20"],
     "53e150fe271bad82eee22859d437700c06453dbb7bffa5750b75b07c2019ed7c"),
    ("absorb", "B12", ["--seed", "6", "--budget", "20", "--d0", "1"],
     "f8c0552be3df3f7b4d443dd0f862b30f754336d6984d15b504d49f07f3b85a2e"),
    ("absorb", "B13", ["--d0", "1", "--seed", "0"],
     "8c9c6c593b8ca199b6ee51e0e479ec322de0c0eed17f1393013b08be07251176"),
    ("absorb", "B14", ["--d0", "2", "--seed", "4"],
     "858b9d56985b40362ac364c6f4ceca06ede92dde545f4c8f592b4d02f588fed3"),
    ("absorb", "B15", ["--d0", "1", "--seed", "1"],
     "68640f33c7c945c0ed8974ae94783116d766a9a4f0cf56247bb297eea459ef76"),
    ("absorb", "B16", ["--d0", "1", "--seed", "6"],
     "d609dfcd83e6cf7e16524e7e273b114c5d49a1811fb9dee7407ca4f2837697ec"),
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
    ("tau", "K9R4", ["--trials", "8", "--seed", "1", "--full-tau-bh"],
     "bf51e29478aa218922e835b64ffe3e7978725cd3d441560655e0009ee4a992b9"),
    ("tau", "TCM24", ["--trials", "6", "--seed", "1", "--budget", "2000", "--full-tau-bh"],
     "02fbe476dbe7d35954e2b95e76ea31b765d786ef09e46f11f6362f7d97be0218"),
    ("rotate-trace", "K10", [],
     "781df8d480882bc7b78f5c62706811c4de92aa501b1adc2b316c5b587f1561fb"),
    ("rotate-trace", "TCM24", ["--budget", "25"],
     "5dd47995a197e09fd7001a55c78424672f6c0bd1421c6d6a32fbb3c8fb47d6cb"),
    ("rotate-trace", "B14", [],
     "027a41c6046a9a39b4c9d551a774149a073b373fd18604b2c14a34b3e8091e07"),
    ("rotate-trace", "B16", ["--budget", "0"],
     "6323f60ca94495aeaac10341f87ffc98815d22c6f3fdd38e7452784509e82a78"),
    ("oracle", "K5", [],
     "ff166f1e179f80cff40bcf63fd5700a1c906b75dc9cafc69ca879cd393051c02"),
    ("oracle", "K10", [],
     "4fd1ebc7c3c696405cdf50fbac5672f588265b1993d21afa28b035970a9a4d8a"),
    ("oracle", "K5R2", [],
     "2ae860ac722116edf85a9ba8316c5180ccbe87ee74fece2d2935cc75c9658421"),
    ("oracle", "K9R4", [],
     "f0fc78e3a696c215c50ab4a180acd73badb6c39a99d4db540a0cc4d9929bdcec"),
    ("oracle", "B10", [],
     "951abcd86bd19dff9ac92a3027123970eb263cca4bf3df7375f3cbb76029f113"),
    ("oracle", "B10N", [],
     "818ef15b3fca9926528aa9c1493dc00e4d9a97d4cdbec0f19d6f200e16d2ab15"),
    ("oracle", "B9", [],
     "818ef15b3fca9926528aa9c1493dc00e4d9a97d4cdbec0f19d6f200e16d2ab15"),
    ("oracle", "TC8", [],
     "818ef15b3fca9926528aa9c1493dc00e4d9a97d4cdbec0f19d6f200e16d2ab15"),
    ("oracle", "K12", [],
     "5f8bd21203fdbe78b3339b6c8102f5a67cea53316e7b8797aa7aea63e498d985"),
    ("oracle", "K10", ["--max-edges", "100"],
     "5f8bd21203fdbe78b3339b6c8102f5a67cea53316e7b8797aa7aea63e498d985"),
]


def write_hosts(root: Path) -> dict:
    """Writes every host of ``HOSTS`` under ``root``; returns name -> path."""
    files = {}
    for name, spec in HOSTS.items():
        path = root / f"{name}.txt"
        assert main(["gen", *spec, "--out", str(path)]) == 0
        files[name] = str(path)
    return files


@pytest.fixture(scope="module")
def host_files(tmp_path_factory):
    return write_hosts(tmp_path_factory.mktemp("golden-hosts"))


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
    ("decide", "B12", ["--seed", "3", "--budget", "150"],
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


# The structural property checks: exact ``props`` and ``thresholds``
# output, digested whole as in ``CASES``. Between them and
# ``SAMPLED_CHECKS`` they reach every status each property can report in
# each mode: an edgeless host (E6) verifies P4 and P5 and violates P7; at
# eps 0.9, P6 is not vacuous on complete(5, 3), where it is violated, nor
# on complete(5, 2), where it holds; complete(60, 2) is sampled beyond the
# exact guard.
CHECKS = [
    ("props", "E6", ["--eps", "0.3"],
     "819d2b6ed9be0da6cdfdfafe60f0a5366b55727fb0da013420ab679a85c228ae"),
    ("props", "K5", ["--eps", "0.9"],
     "848e7a2c856ef55808524240209b31f3db7ae47f4cdb4bdcdec34b151bbca182"),
    ("props", "K5R2", ["--eps", "0.9"],
     "6e4c756d2bf134f2949c6b2ecec3331562b30e6fbfa005d1c927abc4cd356257"),
    ("props", "TC8", ["--eps", "0.5"],
     "f6d5030c3e129eea0f0e075063f411e0b6f1bf255568bf36e87a4197e2cc62c0"),
    ("props", "K12", ["--eps", "0.5"],
     "790c37aebf96cddda67963fb3286186f83082ab39da5aee559be755a59a46a46"),
    ("props", "B12", ["--eps", "0.3"],
     "b6c1caa3dcb269ad60c0a94e885995251355c410471f78fd5835ebd8d4fd8c7d"),
    ("props", "B12", ["--eps", "0.3", "--d0", "1"],
     "07a7bb8947124a49714426124b3d79efc0ff9d34d5e7664b5d7c7c075391aa61"),
    ("thresholds", "E6", ["--eps", "0.3"],
     "5f8bd21203fdbe78b3339b6c8102f5a67cea53316e7b8797aa7aea63e498d985"),
    ("thresholds", "K5", ["--eps", "0.9"],
     "83ee34bf7468e434746f4c888548365506e3b395f1c09586a1f623eee8017d09"),
    ("thresholds", "TC8", ["--eps", "0.5"],
     "397ad8bf34e13d7e0821988500549f4ef13d581cd357b97f59acce34c8238bf6"),
    ("thresholds", "K12", ["--eps", "0.5"],
     "ec782edd7a9dba42bbbfbba82f57d80aa4de48b358fd965afefc1c0b3e0f0e1b"),
    ("thresholds", "B12", ["--eps", "0.3"],
     "4faf6dd4a5fb8bc84a6883bf152b8ef3fd0c76f6da73a2ffad0d3ee17b4d1063"),
]

# Sampled ``props`` output with P7 dropped from its JSON line (digested
# like ``EFFORT_FREE``): P4-P6 draw from one seeded stream, in that order,
# and must keep every draw; P7 is decided exactly, not sampled. On
# complete(3, 3) a P5 draw with no room for W draws nothing more, and P6
# draws after it.
SAMPLED_CHECKS = [
    ("props", "E6",
     ["--eps", "0.3", "--mode", "sampled", "--trials", "50", "--seed", "1"],
     "5c6f072eecccf29de868df8593091ba38ef6fb9fb5f737bb755ccd32a240de90"),
    ("props", "K5", ["--eps", "0.9", "--mode", "sampled", "--seed", "2"],
     "62035e343eb804d1b5c20a028fe8ecb48d1601142c3bb582b094441f9b7f0841"),
    ("props", "TC8", ["--eps", "0.5", "--mode", "sampled", "--seed", "3"],
     "c221c3bc82bfb871d55f9a41d7e2d58d5e14f10f2d2b65932a7cdd3f335477ae"),
    ("props", "K12", ["--eps", "0.5", "--mode", "sampled"],
     "51c8849d6104d6045e90c08513dbbd3b8cb641f1a2dc24d737a5275799aec6b3"),
    ("props", "B12",
     ["--eps", "0.3", "--mode", "sampled", "--trials", "300", "--seed", "4"],
     "3a3fcc7141e71deff9a197f67c437f8e202bd30a475f50e78210129508fdd371"),
    ("props", "B12", ["--eps", "0.3", "--d0", "1", "--mode", "sampled", "--seed", "5"],
     "4f7c8cccd312003f0a210463690dcd040bc1d14f2bd94667b0f46ddbae66c83b"),
    ("props", "K5R2", ["--eps", "0.9", "--mode", "sampled", "--trials", "20"],
     "9848b64215920c9979278880b8ce59d01f47671edb702e5a838efd2c63980159"),
    ("props", "K3",
     ["--eps", "0.9", "--mode", "sampled", "--trials", "20", "--seed", "2"],
     "7e657157d6e151b78bca713648006dd30a85545e3a83a7594c80e4a9d8555ed7"),
    ("props", "K60R2",
     ["--eps", "0.99", "--mode", "sampled", "--trials", "20", "--seed", "6"],
     "150c8b88399dda3379bb7cb4fd6cf117a1ee16162338eaef7ede7e3b1af9faea"),
]


def run_case_without_p7(command, host_file, extra, capsys) -> str:
    capsys.readouterr()
    code = main([command, "--host", host_file, *extra])
    lines = []
    for line in capsys.readouterr().out.splitlines():
        payload = json.loads(line)
        payload.pop("P7", None)
        lines.append(json.dumps(payload, sort_keys=True) + "\n")
    return hashlib.sha256(f"exit={code}\n{''.join(lines)}".encode()).hexdigest()


@pytest.mark.parametrize(
    "command,host,extra,digest",
    CHECKS,
    ids=[f"{c}-{h}-{'_'.join(x)}" for c, h, x, _ in CHECKS],
)
def test_golden_checks(command, host, extra, digest, host_files, capsys):
    assert run_case(command, host_files[host], extra, capsys) == digest


@pytest.mark.parametrize(
    "command,host,extra,digest",
    SAMPLED_CHECKS,
    ids=[f"{c}-{h}-{'_'.join(x)}" for c, h, x, _ in SAMPLED_CHECKS],
)
def test_golden_sampled_checks(command, host, extra, digest, host_files, capsys):
    assert run_case_without_p7(command, host_files[host], extra, capsys) == digest


# Direct ``is_expander`` calls, exhaustive and sampled: (host, k, alpha,
# exhaustive, trials, seed). One digest covers the JSON of every result in
# turn; the calls reach ``verified``, ``violated`` and
# ``no_counterexample``, and a sampled violation carries its ``trials``.
EXPANDER_HOSTS = {
    "K4": lambda: complete(4, 3),
    "K8": lambda: complete(8, 3),
    "K12": lambda: complete(12, 3),
    "TC8": lambda: two_cliques(8, 3),
    "E6": lambda: binomial(6, 3, 0.0, seed=0),
    "B8": lambda: binomial(8, 3, 0.25, seed=3),
    "B12": lambda: binomial(12, 3, 0.06, seed=6),
}
EXPANDER_CALLS = [
    (host, k, alpha, exhaustive, 300, seed)
    for host, k, alpha, seed in [
        ("K4", 1, 2, 1), ("K4", 1, 2.5, 2), ("K8", 3, 1, 3), ("K8", 3, 2, 4),
        ("K12", 2, 2, 5), ("K12", 4, 2, 6), ("TC8", 1, 2, 7), ("TC8", 4, 2, 8),
        ("E6", 2, 2, 9), ("B8", 2, 1, 10), ("B8", 3, 2, 11), ("B12", 3, 1, 12),
        ("B12", 4, 1, 13),
    ]
    for exhaustive in (True, False)
]
EXPANDER_DIGEST = (
    "fe4e854ac3caf83da0fee090f40212ec34690fe595c42fd94ca80ce9792716dc"
)


def expander_digest() -> str:
    hosts = {name: build() for name, build in EXPANDER_HOSTS.items()}
    lines = []
    for host, k, alpha, exhaustive, trials, seed in EXPANDER_CALLS:
        res = is_expander(
            hosts[host], k, alpha, exhaustive=exhaustive, trials=trials, seed=seed
        )
        lines.append(json.dumps(res.to_json(), sort_keys=True) + "\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def test_golden_expander_calls():
    assert expander_digest() == EXPANDER_DIGEST


def test_check_cases_reach_every_status(host_files, capsys):
    """Each property reaches each status it can report in each mode."""
    reached = set()
    for table, mode in ((CHECKS, "exact"), (SAMPLED_CHECKS, "sampled")):
        for command, host, extra, _ in table:
            if command != "props":
                continue
            capsys.readouterr()
            assert main([command, "--host", host_files[host], *extra]) == 0
            for name, res in json.loads(capsys.readouterr().out).items():
                reached.add((mode, name, res["status"]))
    both = ("verified", "violated")
    expected = {("exact", f"P{i}", s) for i in range(1, 8) for s in both}
    expected |= {("sampled", f"P{i}", s) for i in (1, 2, 3, 6) for s in both}
    expected |= {("sampled", f"P{i}", s) for i in (4, 5, 6)
                 for s in ("violated", "no_counterexample")}
    assert expected <= reached
    hosts = {name: build() for name, build in EXPANDER_HOSTS.items()}
    statuses = {
        is_expander(hosts[h], k, a, exhaustive=x, trials=t, seed=s).status
        for h, k, a, x, t, s in EXPANDER_CALLS
    }
    assert statuses == {"verified", "violated", "no_counterexample"}


def report() -> int:
    """Prints the recorded and the current digest of every ``CASES``,
    ``EFFORT_FREE``, ``CHECKS`` and ``SAMPLED_CHECKS`` entry and of the
    ``is_expander`` calls, flagging the ones that moved; returns how many
    moved."""
    out = io.StringIO()

    def readouterr():
        # what ``run_case`` reads of pytest's capsys: the output since last read
        text = out.getvalue()
        out.seek(0)
        out.truncate()
        return SimpleNamespace(out=text)

    capture = SimpleNamespace(readouterr=readouterr)
    tables = [("CASES", CASES, run_case)]
    tables.append(("EFFORT_FREE", EFFORT_FREE, run_case_without_effort))
    tables.append(("CHECKS", CHECKS, run_case))
    tables.append(("SAMPLED_CHECKS", SAMPLED_CHECKS, run_case_without_p7))
    rows = []
    with tempfile.TemporaryDirectory() as root, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        files = write_hosts(Path(root))
        for table, cases, run in tables:
            for command, host, extra, digest in cases:
                current = run(command, files[host], extra, capture)
                rows.append((table, command, host, extra, digest, current))
    current = expander_digest()
    rows.append(("EXPANDER", "is_expander", "calls", [], EXPANDER_DIGEST, current))
    moved = 0
    for table, command, host, extra, digest, current in rows:
        flag = "ok" if current == digest else "MOVED"
        moved += current != digest
        print(f"{flag:5} {table} {command} {host} {' '.join(extra)}".rstrip())
        print(f"      recorded {digest}")
        print(f"      current  {current}")
    print(f"{moved} of {len(rows)} digests moved")
    return moved


if __name__ == "__main__":
    sys.exit(1 if report() else 0)
