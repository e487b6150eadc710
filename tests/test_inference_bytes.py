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
    "dn0.01_delta0.0": "6d7d749133f9200b75a54c1ec2f0995f5bd0dea0854766eed59e4f82acc96344",
    "dn0.01_delta0.3": "9f2d19c05776880963634aa5ecc25d3547d1113534a2ded4a694737d58f6771b",
    "dn0.01_delta1.0": "08252902723d1702bc99d53b273fa0a519f9a2eb5ff69af1cdbaff7b9bf844d6",
    "dn0.01_delta2.5": "6a2dc9a14a996df96b9874bd17a57534feea988f4c886bc3c659f538fda3f7ce",
    "dn0.0_delta0.0": "1d0edfa631b290ba2bc20f5f52dbe3f7f19e70968e26b691d4adfbd5b8101cb6",
    "dn0.0_delta0.3": "1d0edfa631b290ba2bc20f5f52dbe3f7f19e70968e26b691d4adfbd5b8101cb6",
    "dn0.0_delta1.0": "1d0edfa631b290ba2bc20f5f52dbe3f7f19e70968e26b691d4adfbd5b8101cb6",
    "dn0.0_delta2.5": "1d0edfa631b290ba2bc20f5f52dbe3f7f19e70968e26b691d4adfbd5b8101cb6",
    "dn0.3_delta0.0": "d6ecb148a9fe01c7df87c50ecd1bf2a3b3c6ce569cbcf11c7213c7be2edbb4db",
    "dn0.3_delta0.3": "168fdd17ee0e92869da1b90180205edf880215a2937ddcff3b5eb710d0637e42",
    "dn0.3_delta1.0": "3d9d42902af90d02be11b7d6a977237427e68bbba428f0bc9cd12bfcf7caef8f",
    "dn0.3_delta2.5": "82fd8b0b6de534e25a35c7a9d2f365924ffc3b19a3da4ea9e936890a59371b05",
    "dn0.9_delta0.0": "6d5fec25c276d0209fe85d52a47bc33b7c69a1d449f3708b176be6920c572553",
    "dn0.9_delta0.3": "455c77d778b36fbbd6cc220288cf69288fba36e5d0172b8908a6c2b6609277a4",
    "dn0.9_delta1.0": "780d13f68b7f501d1359e7af27afc76909b89ab4e4a60cf89a2d6c6887201fdb",
    "dn0.9_delta2.5": "380ae5ceb71f0c93f84fd8be602f98af8678026e3164fc21c3dacef0c1db024e",
    "zero_flip_8e6": "e5de97d645a3d7ea3e3851231e8b8082434f922d7cff5336e7bdda5f826035f7",
    "zero_flip_8e8": "dc1272f1ac88bedcdbc1cace7e233210a84b60b3e2f56728d54124571a343555",
}
# per case: bounds at CL 0.9 and 0.95 over the case's delta range
BOUND_DIGESTS = {
    "dn0.01_delta0.0": "f9866da6f597b41eb720302a441bb2ba71ee08fc2288bad0779c9a8f3b25bf24",
    "dn0.01_delta0.3": "4b5e796a9082a65f4b92de8ba50f3c27c891200f5e9b338f77467bcaa2432f6d",
    "dn0.01_delta1.0": "5701e080d0210f1cf007ecbbd4028046c2f03d47a9025ceabdd9ca692978613c",
    "dn0.01_delta2.5": "edd81044f086f965dba31ea5b9af5c6f1f649f4a13cffc5d4807a879c7d5bc29",
    "dn0.0_delta0.0": "ebe070a3af36bea31deeac181a6d595d87e4213e52ab141bf170487d0c0a1d8e",
    "dn0.0_delta0.3": "ebe070a3af36bea31deeac181a6d595d87e4213e52ab141bf170487d0c0a1d8e",
    "dn0.0_delta1.0": "ebe070a3af36bea31deeac181a6d595d87e4213e52ab141bf170487d0c0a1d8e",
    "dn0.0_delta2.5": "ebe070a3af36bea31deeac181a6d595d87e4213e52ab141bf170487d0c0a1d8e",
    "dn0.3_delta0.0": "aca3ae9cd9850d59d0b5020df12bddcd827db6ae4e6695937a87a4976b47c78d",
    "dn0.3_delta0.3": "bb4e7b661c6bcf0938b01af196531dddbac6daa365f45916a722de33cfebeaf7",
    "dn0.3_delta1.0": "960a77861d7078328bc90f5c3ac2224862c1a8091487c1c6fa1f3fa85155cd2b",
    "dn0.3_delta2.5": "395b2ef16efdab287c02952a0ac9fbe858801f70bdc79d84105b021becefb369",
    "dn0.9_delta0.0": "96229f63b94dc2351651a2afbd25006ef70bdf3d56eef12910d1fc588f9d5704",
    "dn0.9_delta0.3": "b489ae2cdbd2a64c9b78dd26e30bdee3574013b45dde83faa91e34c6e2a6d026",
    "dn0.9_delta1.0": "2f9eb222eefceaaeb91d7021355e4114df3746a9f81a79bf48486d21f3e2ad0b",
    "dn0.9_delta2.5": "e9ace6d2824fd108dc3f3d4d4629a211c072b7aab63ddf3e8fffa82e386ff512",
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
