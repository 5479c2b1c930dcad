"""Golden CLI outputs: the sha256 of stdout of fixed `walg` commands.

The digests were taken from the code before the even and SUSY reductions
were merged into one engine; any change to a rendered value, its term order
or the structured document shows up here. Re-take them only for a change
that is meant to alter the output. The sl3-principal and sl4-principal
`generators` digests were taken from the code that searched the powers of
k of each unknown, before each ansatz monomial got one power of k.
"""

import hashlib

import pytest

import helpers
from walgebras.cli import main
from walgebras.liealg import save_algebra

COMMANDS = (
    "generators --algebra sl2",
    "bracket-table --algebra sl2 --route direct",
    "bracket-table --algebra sl2 --route closed",
    "generators --algebra sl3-principal",
    "generators --algebra sl3-minimal",
    "bracket-table --algebra sl3-minimal --route direct",
    "bracket-table --algebra sl3-minimal --route closed",
    "generators --algebra osp12",
    "bracket-table --algebra osp12 --route direct",
    "bracket-table --algebra osp12 --route closed",
    "generators --algebra sl21",
    "bracket-table --algebra sl21 --route direct",
    "bracket-table --algebra sl21 --route closed",
    "susy-generators --algebra osp12",
    "susy-bracket --algebra osp12 0 0",
    "brst-generators --algebra osp12",
    "brst-table --algebra osp12",
    "susy-generators --algebra sl21",
    "susy-bracket --algebra sl21 0 0",
    "brst-generators --algebra sl21",
    "brst-table --algebra sl21",
)

DIGESTS = {
    "text": {
        "generators --algebra sl2":
            "b24eef4eee69817aae368aa50883f2e51852f29572294c231f32712d95c74bf2",
        "bracket-table --algebra sl2 --route direct":
            "58f38141550ac6d910b0d7b1fa5a746710d2dfa394f107c278f0630bdb5a9faa",
        "bracket-table --algebra sl2 --route closed":
            "58f38141550ac6d910b0d7b1fa5a746710d2dfa394f107c278f0630bdb5a9faa",
        "generators --algebra sl3-principal":
            "bfe493a3977153744bbff300ea425916aadf06274f3cdec0073da390ad3317dd",
        "generators --algebra sl3-minimal":
            "c6a554c2570c16b5e3d2b7c001f149e70017195d5a65966b1d14f25c4261ff54",
        "bracket-table --algebra sl3-minimal --route direct":
            "b4d5ca42b2ab019e197d6845d84af4b3c26828daf46dfadae2d7769b6f4c07cd",
        "bracket-table --algebra sl3-minimal --route closed":
            "b4d5ca42b2ab019e197d6845d84af4b3c26828daf46dfadae2d7769b6f4c07cd",
        "generators --algebra osp12":
            "7ba279ba1925974e675d59a93ca073d0f8aafdd5529adaaad4d3f1fb46e49cd4",
        "bracket-table --algebra osp12 --route direct":
            "a251acc6891989a48184d2728ace4ef157be663009cfb3a9d479ec32733a059f",
        "bracket-table --algebra osp12 --route closed":
            "a251acc6891989a48184d2728ace4ef157be663009cfb3a9d479ec32733a059f",
        "generators --algebra sl21":
            "5c9a25f495e677256b3d9caadd71b1b76bafce57a4bbbfa23b7dac6f1aa37fef",
        "bracket-table --algebra sl21 --route direct":
            "128c49d5cc764a09e8c52e3973d2d530e55c6d5349db98fd4a1699bf7e2a8aa3",
        "bracket-table --algebra sl21 --route closed":
            "128c49d5cc764a09e8c52e3973d2d530e55c6d5349db98fd4a1699bf7e2a8aa3",
        "susy-generators --algebra osp12":
            "609fe4929a43b21fa2e29d2772df52dfeacdddb31683ec913eef32863c6bd8f9",
        "susy-bracket --algebra osp12 0 0":
            "a9918e4a4caca8431e8316ba9fb934a84729cfa50a168fde5f19fd7e93ed2920",
        "brst-generators --algebra osp12":
            "f0df2e03f0982bd608e76b8107d68c51f284980aa73104f7e55175deda947281",
        "brst-table --algebra osp12":
            "477b0f4984fc9d6dc0fa12ca08cf8f9201fdfd8a264b7427f0ea6ecf9951e2a2",
        "susy-generators --algebra sl21":
            "a89411c7b04fe571ea860ed90826c17e77347521261bc0720d4d6f5b6d7d7483",
        "susy-bracket --algebra sl21 0 0":
            "a9918e4a4caca8431e8316ba9fb934a84729cfa50a168fde5f19fd7e93ed2920",
        "brst-generators --algebra sl21":
            "fd480bd4c3012101057a05faddaaed536fcc01da15c968407d080e3fa1c4cda2",
        "brst-table --algebra sl21":
            "70abc2dbe24f6b81da09084aa44659156a38e43d309f0636fc9f25bc5c84d1c5",
    },
    "structured": {
        "generators --algebra sl2":
            "44c4d4071660725ab2818c1d510dda05b08c33c87fc47b595e48deb8455eefd2",
        "bracket-table --algebra sl2 --route direct":
            "a3a0c7dce80e460e06d51441d6cfe705a6cdb433b858e6362efdb5d51628b445",
        "bracket-table --algebra sl2 --route closed":
            "7beb469ab77990b9605f211f6debaa995bf00b29ad369456b65a4294519a02cf",
        "generators --algebra sl3-principal":
            "9cf9ff48288544319feabffd68942cd877614c81d56fdd80f437ddf9c04e7554",
        "generators --algebra sl3-minimal":
            "f8e0fe372a3e50723548b5a28cb8e909f50ccce7190ede471ec74bac3c9cdd41",
        "bracket-table --algebra sl3-minimal --route direct":
            "14b4b98261c0a4786ee311ee4467ccb024f68c5051824d716c2d0cdba83b9458",
        "bracket-table --algebra sl3-minimal --route closed":
            "73856eb41b84cd3019f365c83906916386432f5e3ca55eae8eef89303f0e5d0c",
        "generators --algebra osp12":
            "324c7729885367f2b7bf7098e2b8098d86bc70df5bb07b753f35a7229f126fca",
        "bracket-table --algebra osp12 --route direct":
            "be57c0ffceb722446c44187d540e64f19b2163823d3750de38001008ab2b1143",
        "bracket-table --algebra osp12 --route closed":
            "80c0742c492de672d77a726ea8668da7ccaff4238db308b4ed30ef4c63a5f623",
        "generators --algebra sl21":
            "06f0e95fba3533deedbe1c3ce96296a15fabf1c4443cf2b794234c2c0704c0e9",
        "bracket-table --algebra sl21 --route direct":
            "4c8b8fe3f4f7d2b198976d85842dd1c54d8ce8bc16dba9ba1dade4dc771d1393",
        "bracket-table --algebra sl21 --route closed":
            "9693eb529f99bf5c390e7021f4e978118c06c413da01831a0dceb55f6ac02974",
        "susy-generators --algebra osp12":
            "5f312d21bc742608b977566e754331f0652252829e579bd3308df724528004d4",
        "susy-bracket --algebra osp12 0 0":
            "c3b52e56ff60cf772acd229f15a0ac1a91bb4aa6c2fdbb7252697ce027f9748d",
        "brst-generators --algebra osp12":
            "a51151a4dcbacec28dae7bf89e54d3d9accb753ab63c4d968f5c9397d1d87e1e",
        "brst-table --algebra osp12":
            "8a438188b54bfc7ba935af56fbc28701951f4beaf28201956815b3fd26fa5911",
        "susy-generators --algebra sl21":
            "9a4e663743cd8d98dc46adcf8c258731c4d440bfb00fd1ad73192fed67d40369",
        "susy-bracket --algebra sl21 0 0":
            "e9722a6639705b66c9e3a9bddb766716fd92b5108bccda256e34ef55a09d46e7",
        "brst-generators --algebra sl21":
            "ec55b88c8181a85599d91bd38e0ac87f65cb5afc1904d24603e0aec9552b4e48",
        "brst-table --algebra sl21":
            "3c89edcba32a4e06c849fec60635e17b7aebb40027626e51a0a48bc577c83069",
    },
}


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_golden_cli_outputs(capsys, fmt):
    changed = []
    for cmd in COMMANDS:
        code = main(cmd.split() + ["--format", fmt])
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode()).hexdigest()
        if code != 0 or digest != DIGESTS[fmt][cmd]:
            changed.append("%s (exit %d)" % (cmd, code))
    assert changed == []


# `walg generators` on the sl4-principal file (weights 2, 3 and 4, the
# weight-4 generator up to k^3), written from helpers.sl4_principal
SL4_DIGESTS = {
    "text": "dd29b79145738d5f6775f9593a72515bd6a32a75bc359eb4a02ad75e5ae63aee",
    "structured":
        "b2dba4a6ad81b2fd4aff89a03001534de6b56ccc3e01832a52927a4c14bdb2fa",
}


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_golden_sl4_generators(capsys, tmp_path, fmt):
    path = tmp_path / "sl4_principal.json"
    save_algebra(helpers.sl4_principal(), str(path))
    code = main(["generators", "--algebra", str(path), "--format", fmt])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        (0, SL4_DIGESTS[fmt])
