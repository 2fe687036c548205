"""Golden bytes: SHA-256 digests of the encoded balls and of exact-only CLI output.

The digests were recorded before elements became flat coordinate tuples (the
``nilprog powers`` digest, before sets were keyed on the elements) and must
not move with any change to the in-memory element shapes: ``encode``
bytes, ball order and every exact report stay byte-identical.  Commands whose
float digits come from BLAS (``spectrum``, ``mix``, ``verify spectral`` and
``verify mixing``) are left out, and so is ``verify powers`` (several seconds;
criterion 04 and ``test_power_law_cover_follows_code_order`` pin its numbers).
"""

import hashlib

import pytest

from cayleylab.cli import run
from cayleylab.growth import enumerate_ball
from cayleylab.zoo import construct_family, standard_zoo
from reference_bfs import tuple_bfs

# (spec label, max_radius or None for the closed ball, sha256 of the ball's
# encodings, in ball order); a ball to a radius is the tuple BFS's, as only
# closures are enumerated
BALL_DIGESTS = [
    ("cyclic:n=2", None, "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db"),
    ("cyclic:n=8", None, "f790bad2d759a89231491a8bea3db8d8c4a0e6f8b3f5206cff316b4df7d93970"),
    ("cyclic:n=12", None, "eb08761657a8302b594e6f8f47bde3c8d014df68a2308ce84c49b089da83ff55"),
    ("cyclic:n=16", None, "f074746c5fe4c15463d273205d95c4dc12470895324d3eeec146e6e0ee910c32"),
    ("cyclic:n=20", None, "efce976cca6af32e08da8fe1fddded825695fa4fe89a40bb777e958dad18384f"),
    ("cyclic:n=100", None, "9e8b128f212ff6eeaa506089a7c4ab12ddb934af5d0d4958ea623ef8a310850f"),
    ("abelian:moduli=4,moduli=4,moduli=9", None, "00e80aeb54c97fafe54f4dc600f30684b3e36dc137d9afcf140c2c377bad1fd2"),
    ("ut:dim=3,p=3", None, "57acd98bea3cfa105044b619b90177a6022f0714af95ba7d73615af0cda3f6fd"),
    ("ut:dim=3,p=5", None, "b0417daa8206370bc703ff6325944b60633e26e22704ac472f30563037972da8"),
    ("ut:dim=3,p=7", None, "2ce5412bdde9ff0b73b4c578a29e21f1efbdefa974b5f433652dd64527a6c78e"),
    ("ut:dim=3,p=11", None, "810867780a79e343d21ab4ba6225881f5ee00b68a8ae58c5fb472260af89366d"),
    ("ut:dim=4,p=3", None, "7062ff3d7a69b3c131b1759c133817321083b22521db2b7aefeb7726615eb072"),
    ("lamplighter:m=3", None, "ba280613e24dcab88eadf887fb8d77e5db5f93bcf30a28e604c1840083e9b7bb"),
    ("lamplighter:m=4", None, "41e4b4f62b1e5505615886c6b64a4aa6d7ac3a1a8cd82369d8fe7c41e2bf1d29"),
    ("lamplighter:m=5", None, "1e2399d2cc66d33f73f4c244b32592caa0ecf4207711e0841af6927898862b62"),
    ("lamplighter:m=6", None, "bd1ca73cede93c80c4923033355d532de17a09fd97ec6b697e1c5d7a24b59119"),
    ("lamplighter:m=8", None, "77dbc2b64621e4d7df7c21ac37ab3d11712b60d8a243838809101824d2457dc7"),
    ("symfp:n=2,p=3,variant=L", None, "7c1c99b52417ff1449901f8bb25b0bda4e5f2a7ab64e7e22d4ecdf2e06b6c62e"),
    ("symfp:n=2,p=3,variant=Gprime", None, "d5157091998a11c2633a32a0e6b65e1971cbf0c97845bec9cc4a8f9e5a212c66"),
    ("symfp:n=2,p=3,variant=G", None, "d5895add739e8bf0f27753144e23cb445075423f52e6db9a9f02a01d343b52d7"),
    ("symfp:n=3,p=7,variant=L", None, "961539cd0f06ca8acbb5f8bc3d326912e04b1511b2723ff6a05db6b20c519da9"),
    ("symfp:n=3,p=7,variant=Gprime", None, "d6d6cedc52c720f649a95bfd3c76ebf01296b60b315608395117ddfc580af3af"),
    ("symfp:n=3,p=7,variant=G", None, "824975b5da446eff70c2f0903f7d392bd89e8977d4b2bce91ef2ded0591981c1"),
    ("symfp:n=4,p=5,variant=Gprime", None, "d5f48f07367b21f7031ffa20e74f7652f550d351be21c6ebc7c535dfc8fbeba9"),
    ("symfp:n=4,p=5,variant=G", None, "abf4ab7f82eb6c49a9463c43a774cba4fa4d2258edcb2fa9836146a32ea793ab"),
    ("product(lamplighter:m=3)x(cyclic:n=8)", None, "af7afca82c6b9868e99f157e11674cfef42aff0aaf13f6f4b8f1fc2ecf01fbec"),
    ("cyclic:n=300", None, "e8f0ebaa9b1cde22dc472e4d8aaa6ac298fe8ad188170d96f9e8dbbf8e1676a2"),
    (
        "product(cyclic:n=6)x(product(cyclic:n=5)x(lamplighter:m=3))",
        None,
        "48d80c8daf7c32cec5ddc19dcf13612eca7fbf5da4d1dbe0983e7e50280feafc",
    ),
    ("freenil:r=2,s=3", 4, "eb9bd11f2e79720d5d715a4392ba6e76292830790740371b103491a863ae694b"),
    ("product(freenil:r=2,s=2)x(cyclic:n=3)", 3, "cf85664e35f6387aa868e5bbf546771be36a0874ca53b4cea8bca68480c61888"),
    ("freenil:r=3,s=2", 3, "ce50759a1588ee1d2224140c51b778d12c014a5e87a90081dbeb12c90fede194"),
    ("freenil:r=1,s=4", 30, "6e2e8f5ab3c505ee9f2a38410e88d894652bba51ed9abc5973c054f4ea0f5508"),
    ("product(cyclic:n=5)x(freenil:r=2,s=2)", 3, "43019703556f0938f1954f7843ea2f21f3559d94139b6b70ba62527e5facafb1"),
]

# (argv, exit code, sha256 of the in-process stdout)
STDOUT_DIGESTS = [
    ("zoo list", 0, "15dfbba2125a125fc37b2ff425b796d6e38ab3e9acdc5de69190932e3ce66481"),
    ("verify lgg", 0, "c8ed8be29c5ab29ee338df097b19d1c95ede237eff38cf11046a28aa4545c8c4"),
    ("verify commdepth", 0, "f931e7c990f795c49ab1b1081584c798b6021b6826e78fc66ae653d700284829"),
    ("verify nesting", 0, "042c47c31e8e3439c5d83d87d40ddcaab06baeff79bdc1576797862084648412"),
    ("zoo lgg -n 3 -p 7", 0, "b51205dc7e60d009aca6c45472e427f1304a73ce8e01cde95353377e39afdc50"),
    ("nilprog nest -r 2 -s 2 -L 2,1", 0, "cb96e80524ef4c83c13d2e0e6113667ab85d2f239dc637a38539fee4e0427449"),
    ("nilprog nest -r 2 -s 2 -L 2,1 --format json", 0, "c6a3866ada69f5cb661179e0fbd7a7465e17ce56919334ff56480bff4a47a9ac"),
    ("nilprog proper -r 2 -s 2 -L 1,1", 0, "ee98326946459b4eaf076d2f709bc9e89b6488f8a4e01ca07b941cdfab6223c5"),
    ("grow -g cyclic:100 --eps 0.5 --delta 0.5", 0, "d236709ef1fbeb74ed35f8333e046bfb418736b59810db3d0f70e4e6199ea901"),
    ("grow -g cyclic:100 --eps 0.5 --delta 0.5 --format json", 0, "96086e94145d3ae12b71625de11413a070bd65c91e0e36d2a4e3e9828fcf4a60"),
    ("nilprog powers -r 2 -s 2 -L 1,1 -n 2 -M 2 --format json", 0, "c1babd0e4821427521368abb8f9812e069cc0f648b20557b94f9fec93ef6b357"),
    ("verify growth -g product(lamplighter:3)x(cyclic:8)", 0, "b92db5633672353642d6eff460cd68bc7931866446b6f0d829948e672a07d2ac"),
    ("grow -g product(freenil:r=2,s=2)x(cyclic:3) -r 4", 0, "34951ba843ff4f3e4d4b88428526c9c67973c186a32ba4a23f6aa9487e6ad9c1"),
    ("grow -g symfp:n=3,p=7,variant=Gprime --format csv", 0, "4f43225451894a51bc6ae8c85dcbf075073bd0ac56e288211cdc8317840db683"),
    ("cheeger -g lamplighter:3", 0, "0a51b27dbc0d46c53933fb65d5fb0b8fa7dda72af97a3701961e5c72a2480fcc"),
    ("diam -g product(cyclic:6)x(product(cyclic:5)x(lamplighter:3))", 0, "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7"),
    ("grow -g freenil:r=2,s=3 -r 6 --format csv", 0, "58e607d654e97d0b9f077299854cd2ffac683a3d1203b69e8b1444dfcfafc62d"),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_ball_codes():
    zoo = {inst.label for inst in standard_zoo(max_order=5000)}
    assert zoo <= {label for label, _, _ in BALL_DIGESTS}
    for label, radius, digest in BALL_DIGESTS:
        inst = construct_family(label)
        assert inst.label == label
        elements = enumerate_ball(inst.group, inst.gens).elements if radius is None else tuple_bfs(inst.group, inst.gens, radius)[0]
        assert sha256(b"".join(map(inst.group.encode, elements))) == digest, label


@pytest.mark.parametrize("argv, code, digest", STDOUT_DIGESTS, ids=[argv for argv, _, _ in STDOUT_DIGESTS])
def test_golden_stdout(capsys, argv, code, digest):
    assert run(argv.split()) == code
    assert sha256(capsys.readouterr().out.encode()) == digest
