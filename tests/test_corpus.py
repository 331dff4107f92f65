"""This tree's outputs against the committed manifest, ``tests/corpus.json``.

A change that moves an output on purpose regenerates the manifest with
``python tests/corpus.py --write``, commits it, and lists each changed
entry in ``CHANGES.md``.
"""

import json

import corpus


def test_outputs_match_the_manifest():
    rebuilt, problems = corpus.build()
    assert problems == []
    assert corpus.changes(json.loads(corpus.MANIFEST.read_text()), rebuilt) == []
