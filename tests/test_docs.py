import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_character_tables_doc_is_current():
    gen = ROOT / "tools" / "gen_char_docs.py"
    doc = ROOT / "docs" / "character_tables.md"
    result = subprocess.run(
        [sys.executable, "-c",
         "import runpy, sys; sys.argv=['gen']; "
         f"mod = runpy.run_path({str(gen)!r}); print(mod['render'](), end='')"],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == doc.read_text(encoding="utf-8")


def test_bundled_data_matches_builder_table():
    # the builder refuses to render unless every record passes check_record
    # and every expectation is recomputed; the bundled files are its output
    import json
    import runpy

    from spinaf import catalog as cat

    builder = runpy.run_path(str(ROOT / "tools" / "build_catalog.py"), run_name="build_catalog")
    catalog_text, expectations_text = builder["render"]()
    for name, text in [("catalog.json", catalog_text), ("expectations.json", expectations_text)]:
        with open(cat.bundled_path(name), encoding="utf-8", newline="") as fh:
            assert fh.read() == text, name
    data = json.loads(expectations_text)
    assert len(data["rows"]) == 127
    assert sum(1 for r in data["rows"] if r["count"] == 0) == 15
