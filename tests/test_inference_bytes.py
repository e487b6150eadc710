"""Pinned output bytes of the fit and the upper bound.

Each digest below is the SHA-256 of the ``repr`` of ``fit`` results, or of
``upper_bound`` values (or the error one raises), on the flip tables of
``test_pinned_edges``. ``repr`` of a float is its shortest round-trip
form, so a change in any last bit of an estimate, an interval edge or a
bound fails here, where ``test_pinned_edges`` allows the declared search
resolution. A faster search must find the same floats; a deliberate
change of the optimizer's results must bump the artifact version and
re-pin these digests in the same change.
"""

import hashlib

import pytest

from nedmsim.inference import (
    FIT_DELTA_WIDTHS,
    NonConvergenceError,
    SearchBox,
    fit,
    search_ceilings,
    upper_bound,
)
from test_pinned_edges import (
    BOUND_CASES,
    BOUND_CLS,
    FIT_BOX,
    FIT_CASES,
    FIT_CLS,
    zero_flip_dataset,
)

# per table: fits in the pinned box (d_n to 1/xi, delta to 3/xi) and in
# the fit command's default box, each at 3 sigma and 95%
FIT_DIGESTS = {
    "dn0.01_delta0.0": "54694f065d5cb493c8e77b6d43f5072faebdb5e9ac595ddcc28f2d468870b4f0",
    "dn0.01_delta0.3": "cccfaa8496c7e929756e24f5e31a604cf6dd71171d0b457fe380560ef4937317",
    "dn0.01_delta1.0": "1d3aac4da644597e806a02ebed51c6477741fbf4d06f977fc17529df67368457",
    "dn0.01_delta2.5": "299aac68e1b1535b6cbc988d6bd1f4516488fe0331cf4301248b34d13836495e",
    "dn0.0_delta0.0": "46afd181acb25900df0c94d3de4a45436935890f18693d664698b810401215f8",
    "dn0.0_delta0.3": "46afd181acb25900df0c94d3de4a45436935890f18693d664698b810401215f8",
    "dn0.0_delta1.0": "46afd181acb25900df0c94d3de4a45436935890f18693d664698b810401215f8",
    "dn0.0_delta2.5": "46afd181acb25900df0c94d3de4a45436935890f18693d664698b810401215f8",
    "dn0.3_delta0.0": "81cd39336e1ce8f355605eae1a518dc49232cc3e6ff338e8edf63dbbe0dff363",
    "dn0.3_delta0.3": "9e92069b9f1f9f7c2689b531c94d2ebcf8db58ed58e7cc2fddeb3651c78952e6",
    "dn0.3_delta1.0": "80bfa9ccad3dfbc2b9a152edc593a459b9d3c6bb235cd1ec8a05b008f56078e7",
    "dn0.3_delta2.5": "98e935b3e78f2cb7782305eca95b4ca449747bd0981cf8069c1eb343d3d24797",
    "dn0.9_delta0.0": "1db74ed413e128a693586813c6a2f8061300d5e168cfd4c63d89569b1ad1b7ad",
    "dn0.9_delta0.3": "02ccb6a54c65a55d0aec91c43b582440ac099e9383bca68442ab82a4128b9ec7",
    "dn0.9_delta1.0": "d21e4679bffb73e01fcc9719f4e605b1cf9e17b8598f5be40569052f1d979194",
    "dn0.9_delta2.5": "b1949a03ee880b37fa88c74ec0ed74ebaef56f9cbf6dd99255c669ac792c1e8a",
    "zero_flip_8e6": "cebb6b1debdb1c06bce02da0ff89529dbc4be2554ad5522a0ea65f50c1effdce",
    "zero_flip_8e8": "22dea70e820f7ebb6af038b22897fadddd635670cccd0d35d8e5a6d8944e7cfb",
}
# per case: bounds at CL 0.9 and 0.95 over the case's delta range
BOUND_DIGESTS = {
    "dn0.01_delta0.0": "1124f46e4dd91a38215e663ca2cb7d8a8871b09627f8fc9933e7f042bfc3375e",
    "dn0.01_delta0.3": "d7329588ab170a2f82cfb3d14d81749a1124a0ad32f5c0006941a104bfccc51f",
    "dn0.01_delta1.0": "c0a474a7a46e960a45a54c73ac473390837a1404234fdf03bab75419b6de7a2a",
    "dn0.01_delta2.5": "55e25864ab4303447a49b60c2323fea49d41da200911f9307fb3a69b98c75d9d",
    "dn0.0_delta0.0": "62aa074deb003b9495eff37d8b2cc8fc7ff8e68452b955c0f5fa9661d43b644b",
    "dn0.0_delta0.3": "62aa074deb003b9495eff37d8b2cc8fc7ff8e68452b955c0f5fa9661d43b644b",
    "dn0.0_delta1.0": "62aa074deb003b9495eff37d8b2cc8fc7ff8e68452b955c0f5fa9661d43b644b",
    "dn0.0_delta2.5": "62aa074deb003b9495eff37d8b2cc8fc7ff8e68452b955c0f5fa9661d43b644b",
    "dn0.3_delta0.0": "8fb3b17a4ab1770befeecafac2da08859c1423bf43b9ffc4157b35006602c744",
    "dn0.3_delta0.3": "874917c38c84eb7db776a52efc156d48835e771bbc7f79d54d0e29463173a202",
    "dn0.3_delta1.0": "24633775f157f125c1f3e7fc209672c44be81d15f88f92ea257347054f232939",
    "dn0.3_delta2.5": "5c01f5c559621d27037089dede235d9d7409d1843a507a2e0f23c671f5ec55b1",
    "dn0.9_delta0.0": "866806abf2b2f943865b43082183a8f3f399200ab90c0f2c4d4722cf465dba7b",
    "dn0.9_delta0.3": "996a830ee04f963eb226910f76a907b46da56b68736b5b77f5028885ba8620bb",
    "dn0.9_delta1.0": "0219f24aa3ee48b1b78cef4be5a0cc0ab29900c274b37edecea27aa98a931b54",
    "dn0.9_delta2.5": "1e52c373a479a43145767c31a68e4fc447f3a10222d48587c430da29130498b7",
    "zero_flip_8e6_delta0.01": "2743b75085f32565a762dcd52b853976ba38307966af8d886b61e4deb770e0dd",
    "zero_flip_8e6_delta0.1": "002341806aedb803d26740e91078d4e5d9e5f9f5403b4d4cf598bcaa34b911b5",
    "zero_flip_8e6_delta1.0": "b9976a26a24fca2a4c47f1f0d2599e2c306faefd84e3dda74cf03d01cb303ba7",
    "zero_flip_8e8_delta0.01": "50c738321dc90da4b9d6594869897faed8e7cef4976a8eb35dd2c906196dc4bc",
    "zero_flip_8e8_delta0.1": "1b0c497fc938e41c9f67e2d7c4bc9b5d013080980d301d994f4cd05d4c2a6eb1",
    "zero_flip_8e8_delta1.0": "31d2533013f694e423e509b0416a7191c190daacd041735918bb39e2180613c6",
}
# criterion 6's design, 8e6 trials, CL 0.95 at the default ceilings
ZERO_FLIP_DEFAULT_DIGEST = "9e9e36b0b69702a27897c9b2dd8b64efa3870233dbbcb7fc00da961c89132448"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _bound_repr(dataset, cl, **kwargs) -> str:
    try:
        return repr(upper_bound(dataset, cl=cl, **kwargs))
    except NonConvergenceError as exc:  # the error is part of the pinned output
        return repr(exc)


def fit_text(name: str) -> str:
    dataset = FIT_CASES[name]
    dn_max, delta_max = search_ceilings(dataset, FIT_DELTA_WIDTHS)
    boxes = (FIT_BOX, SearchBox(dn_max=dn_max, delta_max=delta_max))
    return "\n".join(
        repr(fit(dataset, box, interval_cl=cl)) for box in boxes for cl in FIT_CLS.values()
    )


def bound_text(name: str) -> str:
    dataset, delta_bounds = BOUND_CASES[name]
    return "\n".join(
        _bound_repr(dataset, cl, delta_bounds=delta_bounds) for cl in BOUND_CLS.values()
    )


@pytest.mark.parametrize("name", sorted(FIT_CASES))
def test_fit_bytes(name):
    assert sha256(fit_text(name)) == FIT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(BOUND_CASES))
def test_bound_bytes(name):
    assert sha256(bound_text(name)) == BOUND_DIGESTS[name]


def test_zero_flip_bound_at_default_ceilings_bytes():
    text = _bound_repr(zero_flip_dataset(8e6), 0.95)
    assert sha256(text) == ZERO_FLIP_DEFAULT_DIGEST
