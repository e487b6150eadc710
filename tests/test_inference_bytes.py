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
    "dn0.01_delta0.0": "9fce8eb696c2d1ae879253c9372bb46aed0c57ef9c089fdee70cf5f354e77e5a",
    "dn0.01_delta0.3": "5bab22bff6e7c85a3fbae57b1bb6ab8a56fde4bc4bd48a22151cc97e2386a456",
    "dn0.01_delta1.0": "a6ff1f0c750c9e0acdc8f343c9c4b61ac5d6b93d9cf53bcd745d936d71dddadb",
    "dn0.01_delta2.5": "2d8a96b9e92dec938691f3ca34d7a01c246f3ec008c6738d2c5beb13bace8ca9",
    "dn0.0_delta0.0": "5bdcfaea3c93c9c57d2cbab95862e87698dd5f10ec98596ddc85d0fc9b2ee2ec",
    "dn0.0_delta0.3": "5bdcfaea3c93c9c57d2cbab95862e87698dd5f10ec98596ddc85d0fc9b2ee2ec",
    "dn0.0_delta1.0": "5bdcfaea3c93c9c57d2cbab95862e87698dd5f10ec98596ddc85d0fc9b2ee2ec",
    "dn0.0_delta2.5": "5bdcfaea3c93c9c57d2cbab95862e87698dd5f10ec98596ddc85d0fc9b2ee2ec",
    "dn0.3_delta0.0": "0b46abf912d9cc62148115f07592b319d672fc14c12715c490febb1507420949",
    "dn0.3_delta0.3": "d66763e1c6abeca6d4d5716d9074404139f8d83752fa1b77790778944f78222a",
    "dn0.3_delta1.0": "c70ca4f3e42ef0f05aff24587e1b7a78774553b77655b7c63da31c37bff84202",
    "dn0.3_delta2.5": "bf20f94c48704cf9b83077395af259e0fe2b6ac8f9b0b1dae0476cb1a66c54c2",
    "dn0.9_delta0.0": "90d73c7a664f4500679a6d93cebabed00db15b776694e79b4023fe3a34347de4",
    "dn0.9_delta0.3": "a7d94fc102ec19ad677f67eed161284e206ab9347a5910a4a023b2bea0e15a25",
    "dn0.9_delta1.0": "a37f2cb8b9489df02a29252af2518d4fdacb7680f874ee5a7a6b66f7700c095d",
    "dn0.9_delta2.5": "e6f3d5c540dc97e8c7681c16bad4d94ef94d4aa7cc0d657ae439e2d68ddb7ffb",
    "zero_flip_8e6": "d61696c737f102e7f95bc59910c290d586b6627e4187d193bc52c66f721f884d",
    "zero_flip_8e8": "da5ec7ce6612d807b17e94d1b292ba9776cc7a8935267eeb1781873640bfb4c1",
}
# per case: bounds at CL 0.9 and 0.95 over the case's delta range
BOUND_DIGESTS = {
    "dn0.01_delta0.0": "d313cdea2966b6e964a3a6ccac744e432704af1c020cf3846f98d1f5a852a7bf",
    "dn0.01_delta0.3": "a05a1bbdea4803b79b51dc4feebdf052adef54f28578ed03479decbf2e26494a",
    "dn0.01_delta1.0": "14bccc8f186e06f2c6e336e081af1a82a000a8f0381916541095b0eca3efb612",
    "dn0.01_delta2.5": "a5980fe5ab0124e7b75b97e97948784a26076f075ebeb32ccea119661bd7a368",
    "dn0.0_delta0.0": "9639f86ad3e3786cbe50ac0fbb06ae1972cce5b792e0f659d737fc764eea89bf",
    "dn0.0_delta0.3": "9639f86ad3e3786cbe50ac0fbb06ae1972cce5b792e0f659d737fc764eea89bf",
    "dn0.0_delta1.0": "9639f86ad3e3786cbe50ac0fbb06ae1972cce5b792e0f659d737fc764eea89bf",
    "dn0.0_delta2.5": "9639f86ad3e3786cbe50ac0fbb06ae1972cce5b792e0f659d737fc764eea89bf",
    "dn0.3_delta0.0": "ed0112ce9b75e8e56a75a05823785a4aa6bbe326f3b0dd8fae97cbf42c72ea18",
    "dn0.3_delta0.3": "93427df2fe8afaebf4547e16664d4d8a5713cfec6876c937d7d8a1c043267997",
    "dn0.3_delta1.0": "d395e3b519fa5f79bc1c4dff649959131f11ce5d631cfb780b544e836415c774",
    "dn0.3_delta2.5": "d296c7cb96540e5d78bc7c0361cf6c10d9af87f44d828247d329f5041fee4b01",
    "dn0.9_delta0.0": "a5b6145ef81bbd84001145ee220208062704a6aa81145d5554d176094c05e5d8",
    "dn0.9_delta0.3": "44941603b257641a391e3efe54e7a1504d16a654173eb5c65fc5deb015ff3b72",
    "dn0.9_delta1.0": "a4469d777d262a9f3b8e40ed157e9fc37bf746ec32d7c935b4ebf4ed77411110",
    "dn0.9_delta2.5": "f3f25f7ed867f3452ccc380538be4fa16a87a77bdb1afe408b0a7e5bbc9da353",
    "zero_flip_8e6_delta0.01": "4585f5964e477b3de1537ace50559fc16afd33088475c34f451562efb62d3602",
    "zero_flip_8e6_delta0.1": "f505ab6015b43c4c087adbe3c5f9555abad28fd07853e9c5101a2fbc91e5fad1",
    "zero_flip_8e6_delta1.0": "a1338a2907b0214b54ad4023fe8e1d17277fadfa6499135ab40e85b7a1edeb5f",
    "zero_flip_8e8_delta0.01": "8d1b3c52cabac612d60391ec32657e7fc94af9bce32f7f007bda4ca9bc324bc1",
    "zero_flip_8e8_delta0.1": "4de79165eef167503aa21a65d9819c196a3ab23c582a7c0b7c4a0f361b60b576",
    "zero_flip_8e8_delta1.0": "45a615a54e7d676cb0e62a172baeb3ff7054690940fea37c16aa0158f55f12f3",
}
# criterion 6's design, 8e6 trials, CL 0.95 at the default ceilings
ZERO_FLIP_DEFAULT_DIGEST = "d3be26dd687170281534786dc7e845f558aa946263fc7111e2a6bc2ba4551af3"


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
