"""Byte-identity gate on the command line output.

Each case hashes, with SHA-256, the output of ``ghzqss run`` for one
variant/strategy pair in one form (plain, ``--hadamard-bias 0.3`` or
``--secrets``) at seeds 0, 4 and 7919, and each ``sweep`` case hashes
the CSV and JSON of a grid.  Each seed's report comes in another format
(human, JSON, CSV).  One seed per form, a different one for each form,
runs once more with ``--transcripts`` and its JSONL file is hashed too;
its report comes in the next format, so every pair covers all three
formats with and without transcripts.

Reports and transcripts hold no amplitude bytes, so the digests do not
depend on the summation order of the statevector kernels.  A change that
alters any output byte must say so and pin the digests again.
"""

import contextlib
import hashlib
import io

import pytest

from ghzqss.cli import main
from ghzqss.harness import COMPATIBLE

ROUNDS = 1000
SEEDS = (0, 4, 7919)
FORMATS = ("human", "json", "csv")
FORMS = {
    "plain": [],
    "bias": ["--hadamard-bias", "0.3"],
    "secrets": ["--secrets", "".join(str((i * i + i // 7) % 3 % 2) for i in range(ROUNDS))],
}
SWEEP = ["--rounds", "4,8,16", "--check-fractions", "0.25,1.0", "--repeats", "2", "--seed", "11"]

RUN_DIGESTS = {
    "original/none/plain": "05c997d58354b1baa40b0af33b224c4701802429620ebbe99e3a4a227690290a",
    "original/none/bias": "69832e587303771a36e6f9449e0d308c8ac654754b99f5e0ebbcfc6205ab1c8a",
    "original/none/secrets": "a74eea565923d6169e557666590370b7f3ff0551bb59fe23743a58e8f09634f8",
    "original/a2/plain": "3117ad4a41b116ce406e6a6c58d5bf575b8555c28e7d540bab7a205ac5a50870",
    "original/a2/bias": "9f7fca7b7f09daeabd3e1dcfcdd784c32bddc02872ff80ea7351222962260e10",
    "original/a2/secrets": "c25cbae3abafd3b531cc801edd05fa26d61e71aeef82fc210dde8bcd1a4aabe5",
    "revised/none/plain": "8da8554e90916db5a828c0c34ae3f9214b6545e6c09f2b2f05a386766d322a5a",
    "revised/none/bias": "463642add552df32645f62cc6c29c8b5e3649e2ea66a44c0c8c9fa94328e4ecc",
    "revised/none/secrets": "73b985ab74b83b485fcc3457897921e2f5e2f5014c018f6bc46d2e9f2a654091",
    "revised/a1/plain": "8cc387318742dd9a1dfcd4c36370ef017344a9bfd4dab9af2f336c34c75b3697",
    "revised/a1/bias": "efeb455b48897624253abc48398cf9885a0765771e617bcf447cfde853e32c23",
    "revised/a1/secrets": "1ba5bcf94570873ee80008e2be96a6c33d81cf4367ff58bbb6e04132a2a0a0ec",
    "revised/a2-probe/plain": "0896909e96161c49992dada8b13bedc5a494d85a2fc16fcf1850d1ef0483cb9c",
    "revised/a2-probe/bias": "8a3630e181613ebe3d6cfe746483a52ff219a2a5dc06b11f94ff2a0853039474",
    "revised/a2-probe/secrets": "290607a8b9bf03970e7fc35e6a7bb55f617f79a6d59fd963140c2463910f0b85",
    "revised/dishonest-bob/plain": "de6bf14ab9111e61019b92eaba47248820a36f3c7c6b5aab4d2b6355b81d24f0",
    "revised/dishonest-bob/bias": "f9fea8acf2dff024ca1f392041838922f39a8aa29810bc72c7a15d171de43040",
    "revised/dishonest-bob/secrets": "bac80b25d7202b191950a68b4baa9fa12f544e6ab600b18d9063c9a8b491506a",
}
SWEEP_DIGESTS = {
    "original": "d22fe5ca2cc01e3f5711f9f2f455246cb4b75831275735bc5af9b2156b3ea27e",
    "revised": "8aabfa4b44f982216d8c964d666d920613dfa9952cffa405a7e4fff9cfe27727",
}


def _out(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue().encode()


@pytest.mark.parametrize("case", sorted(RUN_DIGESTS))
def test_run_output_is_byte_identical(case, tmp_path):
    variant, strategy, form = case.split("/")
    path = tmp_path / "rounds.jsonl"
    digest = hashlib.sha256()
    for j, seed in enumerate(SEEDS):
        argv = ["run", "--protocol", variant, "--attack", strategy, "--rounds", str(ROUNDS),
                "--seed", str(seed), *FORMS[form]]
        digest.update(_out([*argv, "--format", FORMATS[j]]))
        if j == list(FORMS).index(form):
            digest.update(_out([*argv, "--format", FORMATS[(j + 1) % 3], "--transcripts", str(path)]))
            digest.update(path.read_bytes())
    assert digest.hexdigest() == RUN_DIGESTS[case]


@pytest.mark.parametrize("variant", sorted(SWEEP_DIGESTS))
def test_sweep_output_is_byte_identical(variant):
    argv = ["sweep", "--protocol", variant, "--attacks", ",".join(COMPATIBLE[variant]), *SWEEP]
    digest = hashlib.sha256()
    for fmt in ("csv", "json"):
        digest.update(_out([*argv, "--format", fmt]))
    assert digest.hexdigest() == SWEEP_DIGESTS[variant]
