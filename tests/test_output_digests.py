import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _output_digest():
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_command_output_matches_its_pinned_digest():
    # a change that alters an output on purpose regenerates the file with
    # python3 tools/output_digest.py > tests/data/output_digests.txt
    pinned = (ROOT / "tests" / "data" / "output_digests.txt").read_text(encoding="utf-8").splitlines()
    computed = list(_output_digest().digest_lines())
    for want, got in zip(pinned, computed):
        assert got == want, f"the output of `spinaf {want.split('  ', 1)[1]}` changed"
    assert len(computed) == len(pinned) == 1023
