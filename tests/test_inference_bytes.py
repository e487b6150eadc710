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
    "dn0.01_delta0.0": "036bc76a745e230ae0b04492cc212d30826ad6a8ab7415c6cc1e7b9f3f3e3d0d",
    "dn0.01_delta0.3": "a647fe21626e37d94a8bad6532945be44879228b9596aeb10d1459c5029535e3",
    "dn0.01_delta1.0": "0219f6f3d45e604850a74dc3084de348484a43ca6db2a307b0f9d5e67dc0a96b",
    "dn0.01_delta2.5": "778a80d71b7e5c7faa20ff639c2a3979dac606e8a89c6868fac0be90c8cc3919",
    "dn0.0_delta0.0": "1d0edfa631b290ba2bc20f5f52dbe3f7f19e70968e26b691d4adfbd5b8101cb6",
    "dn0.0_delta0.3": "1d0edfa631b290ba2bc20f5f52dbe3f7f19e70968e26b691d4adfbd5b8101cb6",
    "dn0.0_delta1.0": "1d0edfa631b290ba2bc20f5f52dbe3f7f19e70968e26b691d4adfbd5b8101cb6",
    "dn0.0_delta2.5": "1d0edfa631b290ba2bc20f5f52dbe3f7f19e70968e26b691d4adfbd5b8101cb6",
    "dn0.3_delta0.0": "fd91a756dbf9973508d8a21ca5ce7e3d4cd2a1c3fac58ba0ed2211815bc651d9",
    "dn0.3_delta0.3": "4d76303b881435199407adf4f9ba41e2ffcecc8e07f5748d378cf3179d8cfd42",
    "dn0.3_delta1.0": "2c0b9b1574b36dc80f5b66d980a9ac1e4ebcbe3c9c8e0c61072c2299804c609c",
    "dn0.3_delta2.5": "20ab4007c518f94a9768bd39984524d1fc28d839439b44ee7cd0383ba05d47be",
    "dn0.9_delta0.0": "7e39cf0e81460f2d865778c70bd36fd03e3979007b9d98347f141c2323baba6d",
    "dn0.9_delta0.3": "5eca23c28f51144880a0933b1d8b9ac0539d2e77ff08fc1c978c8b7e2ad526cf",
    "dn0.9_delta1.0": "ec39331091511849b0caffd1baac8ba0eb3b361f22277b1a6620ad00c38938e0",
    "dn0.9_delta2.5": "7137acdad96593f9a9367393fc538c56e64fa029aaa56be5decd340bcf8d0603",
    "zero_flip_8e6": "e5de97d645a3d7ea3e3851231e8b8082434f922d7cff5336e7bdda5f826035f7",
    "zero_flip_8e8": "dc1272f1ac88bedcdbc1cace7e233210a84b60b3e2f56728d54124571a343555",
}
# per case: bounds at CL 0.9 and 0.95 over the case's delta range
BOUND_DIGESTS = {
    "dn0.01_delta0.0": "988f94d5fd97d5955de9d011988df3685f88e52fa735e7dfde31b383605083ad",
    "dn0.01_delta0.3": "890e7da94351f238db04f92038d6605c3d9fa8508161b83d8f977e4c32d1c4b7",
    "dn0.01_delta1.0": "43d6844b963f895ba09dd1c5d2521b030884b0d88a7c8387f4bb36dcb9d35d43",
    "dn0.01_delta2.5": "d9316b6fe6cd88cc24d4bba99d2be5af0e11149cbc6af7ac0681c5e77586de92",
    "dn0.0_delta0.0": "ebe070a3af36bea31deeac181a6d595d87e4213e52ab141bf170487d0c0a1d8e",
    "dn0.0_delta0.3": "ebe070a3af36bea31deeac181a6d595d87e4213e52ab141bf170487d0c0a1d8e",
    "dn0.0_delta1.0": "ebe070a3af36bea31deeac181a6d595d87e4213e52ab141bf170487d0c0a1d8e",
    "dn0.0_delta2.5": "ebe070a3af36bea31deeac181a6d595d87e4213e52ab141bf170487d0c0a1d8e",
    "dn0.3_delta0.0": "66a44e974eef44f9fba77c2a1747e7d1c4de04fd09fe9c0a1fea0dc1c168ca6f",
    "dn0.3_delta0.3": "2305e884d2770f7b6b10ea729e96b42748457fc69db150e819047ce41b01559f",
    "dn0.3_delta1.0": "f2f4668c01a8742d6a4956b11b66903849f0c2eb95af996d550a652bd13e52f8",
    "dn0.3_delta2.5": "85ace7d4a28636d698c61506343b38898d724f39bbae45b3b72677cff8909889",
    "dn0.9_delta0.0": "27f0dc5995b1211d36b29a8082762c7e73806ef48053a89b299a9a2ef3203028",
    "dn0.9_delta0.3": "b0c84aa68e390bf97235b7a6d5285134ceaf78f5408eb33d7b1a11f37e005f8b",
    "dn0.9_delta1.0": "34661653eb140817e4f7e2a229a636c843e099f765fe3589f6e88ccfd092181a",
    "dn0.9_delta2.5": "bbba3ca4b087a4ea33f3ffa3dfc82c4c842c0255d48b332500070152ee30c8bd",
    "zero_flip_8e6_delta0.01": "9309599f88f458c162bcc4ae54888eab3928e57f2b7d042e816180ec45b87d24",
    "zero_flip_8e6_delta0.1": "af16b449389ecd29e0a677d9fec000f7cbbad2306c224745910b0faa1b1868f5",
    "zero_flip_8e6_delta1.0": "ee1543cba4e8ed9149890682c20aebe7e491970c3dedcf99955484ff830a916d",
    "zero_flip_8e8_delta0.01": "c08872ca13e87b8a1fb0f18346d00035fde061571e6c616444b9b214437b3687",
    "zero_flip_8e8_delta0.1": "0fe5c6c0e8fe352454ecf2950d6823469a2248eb8583b6ec864b892139ba2fce",
    "zero_flip_8e8_delta1.0": "b9a3b7d582fc794d958ab09179861d8a9a542f8cc96ced7daf7d92c8407849a0",
}
# criterion 6's design, 8e6 trials, CL 0.95 at the default ceilings
ZERO_FLIP_DEFAULT_DIGEST = "6895c6d813dc1a69d8e0b4de7b7cc2e2ebef33b8778a107c195709e1da4d1819"


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
