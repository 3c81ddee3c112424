"""Byte identity of every output in the golden corpus (``golden_corpus.py``)."""

from golden_corpus import DIGESTS, digests, generate, read_digests


def test_every_output_matches_its_recorded_digest(tmp_path):
    generate(tmp_path)
    got, want = digests(tmp_path), read_digests()
    differ = sorted(n for n in got.keys() & want.keys() if got[n] != want[n])
    missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not (differ or missing or extra), (
        f"outputs differ from {DIGESTS.name} (rewrite it with tests/golden_corpus.py "
        f"only when the change is meant): differ {differ}, missing {missing}, new {extra}")
