#!/usr/bin/env python3
"""Regenerate docs/character_tables.md from the tables in spinaf.chartables."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spinaf.chartables import TABLES, as_power, zeta_sum

OUT = Path(__file__).resolve().parents[1] / "docs" / "character_tables.md"


def word_str(word) -> str:
    if not word:
        return "1"
    parts = []
    for gen, exp in word:
        parts.append(gen if exp == 1 else f"{gen}^{exp}")
    return "".join(parts)


def value_str(v) -> str:
    """A character value on the power basis 1, z, z^2, z^3 of Q(ζ12)."""
    labels = ("", "z", "z^2", "z^3")
    parts = []
    for coeff, lab in zip(zeta_sum([as_power(v)]), labels):
        if coeff == 0:
            continue
        if not lab:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(lab)
        elif coeff == -1:
            parts.append(f"-{lab}")
        else:
            parts.append(f"{coeff}{lab}")
    if not parts:
        return "0"
    out = parts[0]
    for pz in parts[1:]:
        out += f" - {pz[1:]}" if pz.startswith("-") else f" + {pz}"
    return out


def render() -> str:
    lines = [
        "# Character tables",
        "",
        "Exact character tables of the nine holonomy groups, with values in",
        "Q(ζ12).  This file is generated by `tools/gen_char_docs.py`; edit the",
        "tables in `spinaf.chartables` and regenerate.",
        "",
    ]
    for name in sorted(TABLES):
        t = TABLES[name]
        lines.append(f"## {name} (order {t.order})")
        lines.append("")
        pres = ", ".join(f"({word_str(w)})^{p}" for w, p in t.relators)
        lines.append(
            f"Presentation: ⟨{', '.join(t.generators)} | {pres}⟩." if t.generators
            else "Trivial group."
        )
        lines.append("")
        header = ["class"] + [word_str(w) for w in t.class_reps]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("| " + " | ".join("---" for _ in header) + " |")
        lines.append("| size | " + " | ".join(str(s) for s in t.class_sizes) + " |")
        for i, chi in enumerate(t.character_values, start=1):
            lines.append(
                f"| χ{i} | " + " | ".join(value_str(v) for v in chi) + " |"
            )
        lines.append("")
    return "\n".join(lines)


def main() -> int:
    OUT.write_text(render(), encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
