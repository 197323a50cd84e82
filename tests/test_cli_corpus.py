"""Every corpus argv prints exactly what was recorded in ``cli_corpus.json``."""

import json

from record_cli_corpus import CORPUS_PATH, digests


def test_outputs_match_the_recorded_corpus():
    recorded = json.loads(CORPUS_PATH.read_text())
    got = digests()
    assert list(got) == list(recorded), "the argv list differs from the recorded one"
    changed = [argv for argv, h in got.items() if h != recorded[argv]]
    assert not changed, f"{len(changed)} of {len(got)} outputs changed, e.g. {changed[:5]}"
