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
    "dn0.0_delta0.0": "1c05274136cc6ca30576a46317103ded87b923285a0aa3815662b96cd654f9d0",
    "dn0.0_delta0.3": "1c05274136cc6ca30576a46317103ded87b923285a0aa3815662b96cd654f9d0",
    "dn0.0_delta1.0": "1c05274136cc6ca30576a46317103ded87b923285a0aa3815662b96cd654f9d0",
    "dn0.0_delta2.5": "1c05274136cc6ca30576a46317103ded87b923285a0aa3815662b96cd654f9d0",
    "dn0.3_delta0.0": "0b46abf912d9cc62148115f07592b319d672fc14c12715c490febb1507420949",
    "dn0.3_delta0.3": "d66763e1c6abeca6d4d5716d9074404139f8d83752fa1b77790778944f78222a",
    "dn0.3_delta1.0": "c70ca4f3e42ef0f05aff24587e1b7a78774553b77655b7c63da31c37bff84202",
    "dn0.3_delta2.5": "bf20f94c48704cf9b83077395af259e0fe2b6ac8f9b0b1dae0476cb1a66c54c2",
    "dn0.9_delta0.0": "90d73c7a664f4500679a6d93cebabed00db15b776694e79b4023fe3a34347de4",
    "dn0.9_delta0.3": "a7d94fc102ec19ad677f67eed161284e206ab9347a5910a4a023b2bea0e15a25",
    "dn0.9_delta1.0": "a37f2cb8b9489df02a29252af2518d4fdacb7680f874ee5a7a6b66f7700c095d",
    "dn0.9_delta2.5": "e6f3d5c540dc97e8c7681c16bad4d94ef94d4aa7cc0d657ae439e2d68ddb7ffb",
    "zero_flip_8e6": "1871aaa6983487fd21f1cf8c1ce8f889e7d9bf161bfc61239e047cf00df9ac9d",
    "zero_flip_8e8": "2f30315f53d7d0bc39058835d237a1febef301c68d537004f10a0a77503deb34",
}
# per case: bounds at CL 0.9 and 0.95 over the case's delta range
BOUND_DIGESTS = {
    "dn0.01_delta0.0": "09dfb32905f0638515aa6595d197511572dec52f4f9dca6ec2ede2ffa6412168",
    "dn0.01_delta0.3": "a8b152f6f877ff2edde8e84523f45b78bbcd6a8c05da9103f31fce88f76f161a",
    "dn0.01_delta1.0": "68d2d8f5227634ce3b515d36d0966bcfa06ae4833dc57afee01dece22371de54",
    "dn0.01_delta2.5": "5260f3c0154a780855991ad9fc2e95c90e386b949525eb98b55ade4ad41d6704",
    "dn0.0_delta0.0": "02044d86a9f9af2567674c6fff84df78f745fbbb0d2d2e77dc5723b040ee3bb5",
    "dn0.0_delta0.3": "02044d86a9f9af2567674c6fff84df78f745fbbb0d2d2e77dc5723b040ee3bb5",
    "dn0.0_delta1.0": "02044d86a9f9af2567674c6fff84df78f745fbbb0d2d2e77dc5723b040ee3bb5",
    "dn0.0_delta2.5": "02044d86a9f9af2567674c6fff84df78f745fbbb0d2d2e77dc5723b040ee3bb5",
    "dn0.3_delta0.0": "3fb62494a74100fd63e3e0318569cc5d9531001245f96232891ccb6181c6cf70",
    "dn0.3_delta0.3": "688ffd2425ca191ba94fad1f7cf0169846d90a00ea36d8e30c4600aec37d6b84",
    "dn0.3_delta1.0": "a84453a89142c728e9b60223195b1b3d60d41a7ae9b27fdad98f6d4cfd0ca925",
    "dn0.3_delta2.5": "c82a8b2e48f86ff063c1298b0f969ef424c76b6d3003985fb0357010b76608d6",
    "dn0.9_delta0.0": "a5b6145ef81bbd84001145ee220208062704a6aa81145d5554d176094c05e5d8",
    "dn0.9_delta0.3": "44941603b257641a391e3efe54e7a1504d16a654173eb5c65fc5deb015ff3b72",
    "dn0.9_delta1.0": "a4469d777d262a9f3b8e40ed157e9fc37bf746ec32d7c935b4ebf4ed77411110",
    "dn0.9_delta2.5": "cdb1c3ec45d34b44c16a21907a7d927878c37b7922c4ea8280d85e977e781459",
    "zero_flip_8e6_delta0.01": "ef818c415ccfce65bf58dde37b03bf1d653dd6303e222ebdf5b7c4e8b0003ff5",
    "zero_flip_8e6_delta0.1": "77e285e165296d350b8a87654d4e4df3e25723b426ddc6d888632f92e9223c80",
    "zero_flip_8e6_delta1.0": "d4a80b2a7033edda679c4900e265db51879577ffdde7ceebe9080e279aedf8e2",
    "zero_flip_8e8_delta0.01": "1671002464fc3849f8eb8ad461b350e7b85c216c90e6c60a60342b2881568d19",
    "zero_flip_8e8_delta0.1": "cabcbdc671db3991e3946ffab9ab80a9ed36e98d97a0abfa883e255800979a95",
    "zero_flip_8e8_delta1.0": "fd6eb90447b6788ea3c703f6fd0e320f34b601e0bd8aa51d0ff128a8b40a15e7",
}
# criterion 6's design, 8e6 trials, CL 0.95 at the default ceilings
ZERO_FLIP_DEFAULT_DIGEST = "1a552cc774a2268988785edee9207ee89e5132c7e29dcf6c5bfd64e826a13d19"


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
