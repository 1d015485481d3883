"""The hashed "same outputs" corpus (`output_corpus.py`) against its
recorded sha256.  Any change to the value is a change of output: re-record
it only on purpose, as for `cli_stdout.json`."""

from output_corpus import corpus_hash

EXPECTED = "7aad85a35d782bb144ddca0757fce42762c692b1696a40c7adcc397d921a687d"


def test_the_public_outputs_of_the_corpus_are_unchanged():
    assert corpus_hash() == EXPECTED
