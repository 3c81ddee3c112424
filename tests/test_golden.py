"""Byte identity of every output in the golden corpus (``golden_corpus.py``),
and the modules its runs leave unimported."""

import os
import subprocess
import sys
from pathlib import Path

import isslab
from golden_corpus import DIGESTS, digests, read_digests

# numpy is isslab's only runtime dependency (scipy serves the tests only), and
# np.unique imports numpy.ma on its first call (numpy 2.4), so the check and
# replay paths drop repeats with their own sort.  Only a fresh interpreter can
# show that no run imports them: this one has imported scipy itself.
_GENERATE = """
import sys
from pathlib import Path
from golden_corpus import generate
generate(Path(sys.argv[1]))
print(sorted({"scipy", "numpy.ma"} & sys.modules.keys()))
"""


def test_every_output_matches_its_recorded_digest(tmp_path):
    path = [str(Path(isslab.__file__).resolve().parents[1]), str(Path(__file__).parent),
            os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _GENERATE,
                           str(tmp_path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", f"the runs imported {proc.stdout}"
    got, want = digests(tmp_path), read_digests()
    differ = sorted(n for n in got.keys() & want.keys() if got[n] != want[n])
    missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not (differ or missing or extra), (
        f"outputs differ from {DIGESTS.name} (rewrite it with tests/golden_corpus.py "
        f"only when the change is meant): differ {differ}, missing {missing}, new {extra}")
