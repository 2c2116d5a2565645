import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_kernel_ab_smoke_run():
    # one round and one pass, this checkout against itself: a row per kernel
    # and input kind, each with both checkouts' times and the change
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "kernel_ab.py"), "--rounds", "1", "--passes", "1",
         "--against", str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    rows = {tuple(line.split()[:2]): line for line in done.stdout.splitlines()[4:]}
    assert set(rows) == {(kernel, kind) for kernel in ("preimage", "lam", "product", "mat_mul", "op")
                         for kind in ("perm", "mixed")}
    assert all(line.rstrip().endswith("/1") and " %" in line for line in rows.values())
