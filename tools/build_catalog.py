#!/usr/bin/env python3
"""Build the bundled catalog and expectations files.

Constructs every family record programmatically, checks each expected
(family, parameters) -> count row against the library's own computation,
checks the preimage-group and character statements, and only then writes
src/spinaf/data/catalog.json and src/spinaf/data/expectations.json.
``render()`` returns the two texts without writing them; the test suite
checks that the bundled files equal them byte for byte.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spinaf import catalog as cat
from spinaf import fp, holonomy
from spinaf.fp import (
    HOLONOMY,
    LATTICE,
    AlmostBieberbachRecord,
    ExponentExpr,
    GeneratorDecl,
    Presentation,
)

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "spinaf" / "data"


# ---------------------------------------------------------------------------
# small DSL for relators
# ---------------------------------------------------------------------------


def E(const=0, **coeffs):
    return ExponentExpr.make(const, coeffs)


def _as_expr(e):
    return e if isinstance(e, ExponentExpr) else ExponentExpr.make(e)


def _neg(e):
    e = _as_expr(e)
    return ExponentExpr.make(-e.const, {k: -v for k, v in e.coeffs})


def W(*letters):
    return tuple((g, _as_expr(e)) for g, e in letters)


def comm(x, y, *rhs):
    """[x, y] = rhs  as the relator  x y x^-1 y^-1 rhs^-1."""
    out = [(x, 1), (y, 1), (x, -1), (y, -1)]
    for g, e in reversed(rhs):
        out.append((g, _neg(e)))
    return W(*out)


def act(h, x, *image):
    """h x h^-1 = image  as the relator  h x h^-1 image^-1."""
    out = [(h, 1), (x, 1), (h, -1)]
    for g, e in reversed(image):
        out.append((g, _neg(e)))
    return W(*out)


def power(h, n, *rhs):
    """h^n = rhs."""
    out = [(h, n)]
    for g, e in reversed(rhs):
        out.append((g, _neg(e)))
    return W(*out)


def central(z, others):
    return [comm(z, x) for x in others]


def gens(*names_roles):
    return tuple(GeneratorDecl(n, r) for n, r in names_roles)


LAT4 = gens(("a", LATTICE), ("b", LATTICE), ("c", LATTICE), ("d", LATTICE))


def record(family, hol_name, relators, matrices, params, source, nclass=2):
    all_gens = LAT4 + tuple(GeneratorDecl(n, HOLONOMY) for n in sorted(matrices))
    return AlmostBieberbachRecord(
        family=family,
        holonomy_name=hol_name,
        presentation=Presentation(all_gens, tuple(relators), tuple(params)),
        matrices=matrices,
        nilpotency_class=nclass,
        source=source,
    )


# ---------------------------------------------------------------------------
# holonomy matrices
# ---------------------------------------------------------------------------

I4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def diag(*entries):
    return tuple(tuple(entries[i] if i == j else 0 for j in range(4)) for i in range(4))


TH_CD = diag(1, 1, -1, -1)       # negates c, d
TH_AB = diag(-1, -1, 1, 1)       # negates a, b
TH_BC = diag(1, -1, -1, 1)       # negates b, c
TH_9B = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, -1))  # swaps b,c; negates d
TH_33B_A = diag(-1, 1, 1, -1)
TH_33B_B = diag(1, -1, 1, -1)
R4 = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))      # order 4: a->b->a^-1
D8_A = ((1, 0, 0, 0), (0, 0, -1, 0), (0, 1, 0, 0), (0, 0, 0, 1))    # order 4: b->c->b^-1
D8_B103 = diag(-1, 1, -1, 1)
D8_B104 = diag(1, 1, -1, -1)
M3 = ((1, 0, 0, 0), (0, 0, -1, 0), (0, 1, -1, 0), (0, 0, 0, 1))     # order 3: b->c->(bc)^-1
S3_A = ((1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))     # order 3: b->c->d->b
S3_B = ((-1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))    # order 2: b<->c, a->a^-1
M6 = ((1, 0, 0, 0), (0, 0, 1, 0), (0, -1, 1, 0), (0, 0, 0, 1))      # order 6: b->c^-1, c->bc
D12_B = ((-1, 0, 0, 0), (0, 0, -1, 0), (0, -1, 0, 0), (0, 0, 0, 1)) # b->c^-1, c->b^-1, a->a^-1

def src(part, family):
    return f"dimension-4 almost-Bieberbach classification, part {part}, family {family}"


# ---------------------------------------------------------------------------
# family records
# ---------------------------------------------------------------------------

RECORDS = []

# -- trivial holonomy -------------------------------------------------------

RECORDS.append(record(
    "1", "C1",
    [comm("b", "a", ("d", E(k1=1))),
     comm("c", "a", ("d", E(k2=1))),
     comm("c", "b", ("d", E(k3=1)))]
    + central("d", "abc"),
    {}, ["k1", "k2", "k3"], src("7.2", "1")))

RECORDS.append(record(
    "B1", "C1",
    [comm("b", "a", ("c", E(k1=1)), ("d", E(k2=1))),
     comm("c", "a", ("d", E(k3=1))),
     comm("c", "b", ("d", E(k4=1)))]
    + central("d", "abc"),
    {}, ["k1", "k2", "k3", "k4"], src("7.3", "B1"), nclass=3))

# -- C2 holonomy ------------------------------------------------------------


def c2_record(family, relators, matrix, params, part="7.2", nclass=2):
    return record(family, "C2", relators, {"al": matrix}, params, src(part, family),
                  nclass=nclass)


RECORDS.append(c2_record(
    "3",
    [comm("b", "a"),
     comm("c", "a", ("d", E(k1=1))),
     comm("c", "b", ("d", E(k2=1)))]
    + central("d", "abc")
    + [power("al", 2, ("a", 1)),
       act("al", "a", ("a", 1)),
       act("al", "b", ("b", 1), ("d", E(k4=2))),
       act("al", "c", ("c", -1), ("d", E(k3=1))),
       act("al", "d", ("d", -1))],
    TH_CD, ["k1", "k2", "k3", "k4"]))

RECORDS.append(c2_record(
    "4",
    [comm("b", "a"),
     comm("c", "a", ("d", E(k1=1))),
     comm("c", "b", ("d", E(k2=1)))]
    + central("d", "abc")
    + [power("al", 2, ("a", 1)),
       act("al", "a", ("a", 1)),
       act("al", "b", ("b", 1), ("d", E(k3=2))),
       act("al", "c", ("c", -1), ("d", E(k4=2))),
       act("al", "d", ("d", -1))],
    TH_CD, ["k1", "k2", "k3", "k4"]))

RECORDS.append(c2_record(
    "5",
    [comm("b", "a"),
     comm("c", "a", ("d", E(k4=1))),
     comm("c", "b")]
    + central("d", "abc")
    + [power("al", 2, ("a", E(1, k1=1)), ("d", E(k4=1))),
       act("al", "a", ("a", 1)),
       act("al", "b", ("b", 1), ("d", E(k2=2))),
       act("al", "c", ("c", -1), ("d", E(k3=2))),
       act("al", "d", ("d", -1))],
    TH_CD, ["k1", "k2", "k3", "k4"]))

RECORDS.append(c2_record(
    "7b",
    [comm("b", "a"),
     comm("c", "a", ("d", E(k1=1))),
     comm("c", "b", ("d", E(k2=1)))]
    + central("d", "abc")
    + [power("al", 2, ("a", 1)),
       act("al", "a", ("a", 1)),
       act("al", "b", ("b", 1), ("d", E(k4=2))),
       act("al", "c", ("c", -1), ("d", E(k3=1))),
       act("al", "d", ("d", -1))],
    TH_CD, ["k1", "k2", "k3", "k4"]))

RECORDS.append(c2_record(
    "9b",
    [comm("b", "a", ("d", E(k1=1))),
     comm("c", "a", ("d", E(k1=-1))),
     comm("c", "b", ("d", E(k2=1)))]
    + central("d", "abc")
    + [power("al", 2, ("a", 1)),
       act("al", "a", ("a", 1)),
       act("al", "b", ("c", 1), ("d", E(k3=2))),
       act("al", "c", ("b", 1), ("d", E(k4=2))),
       act("al", "d", ("d", -1))],
    TH_9B, ["k1", "k2", "k3", "k4"]))

RECORDS.append(c2_record(
    "B3",
    [comm("b", "a", ("c", E(k1=1)), ("d", E(k5=1))),
     comm("c", "a"),
     comm("c", "b")]
    + central("d", "abc")
    + [power("al", 2, ("c", 1)),
       act("al", "a", ("a", -1), ("d", E(k2=2))),
       act("al", "b", ("b", -1), ("d", E(k3=2))),
       act("al", "c", ("c", 1), ("d", E(k4=2))),
       act("al", "d", ("d", 1))],
    TH_AB, ["k1", "k2", "k3", "k4", "k5"], part="7.3", nclass=3))

RECORDS.append(c2_record(
    "B3b",
    [comm("b", "a", ("c", E(k1=1)), ("d", E(k5=1))),
     comm("c", "a"),
     comm("c", "b")]
    + central("d", "abc")
    + [power("al", 2, ("c", E(1, k2=1))),
       act("al", "a", ("a", -1), ("d", E(k3=2))),
       act("al", "b", ("b", -1), ("d", E(k4=2))),
       act("al", "c", ("c", 1)),
       act("al", "d", ("d", 1))],
    TH_AB, ["k1", "k2", "k3", "k4", "k5"], part="7.3", nclass=3))

RECORDS.append(c2_record(
    "B3c",
    [comm("b", "a", ("c", E(k1=2)), ("d", E(k5=2))),
     comm("c", "a"),
     comm("c", "b")]
    + central("d", "abc")
    + [power("al", 2, ("c", 1)),
       act("al", "a", ("a", -1), ("d", E(k2=2))),
       act("al", "b", ("b", -1), ("d", E(k3=2))),
       act("al", "c", ("c", 1), ("d", E(k4=2))),
       act("al", "d", ("d", 1))],
    TH_AB, ["k1", "k2", "k3", "k4", "k5"], part="7.3", nclass=3))

RECORDS.append(c2_record(
    "B4",
    [comm("b", "a", ("c", E(k2=1))),
     comm("c", "a"),
     comm("c", "b", ("d", E(k1=1)))]
    + central("d", "abc")
    + [power("al", 2, ("a", 1)),
       act("al", "a", ("a", 1)),
       act("al", "b", ("b", -1), ("c", E(k4=1)), ("d", E(k3=1))),
       act("al", "c", ("c", -1), ("d", E(k5=2))),
       act("al", "d", ("d", 1))],
    TH_BC, ["k1", "k2", "k3", "k4", "k5"], part="7.3", nclass=3))

RECORDS.append(c2_record(
    "B5",
    [comm("b", "a", ("c", E(k1=2))),
     comm("c", "a", ("d", E(k5=1))),
     comm("c", "b")]
    + central("d", "abc")
    + [power("al", 2, ("a", E(1, k2=1)), ("d", E(k5=1))),
       act("al", "a", ("a", 1)),
       act("al", "b", ("b", 1), ("d", E(k3=2))),
       act("al", "c", ("c", -1), ("d", E(k4=2))),
       act("al", "d", ("d", -1))],
    TH_CD, ["k1", "k2", "k3", "k4", "k5"], part="7.3", nclass=3))

RECORDS.append(c2_record(
    "B5b",
    [comm("b", "a", ("c", E(k1=1))),
     comm("c", "a", ("d", E(k5=1))),
     comm("c", "b")]
    + central("d", "abc")
    + [power("al", 2, ("a", E(1, k2=1)), ("d", E(k5=1))),
       act("al", "a", ("a", 1)),
       act("al", "b", ("b", 1), ("d", E(k3=2))),
       act("al", "c", ("c", -1), ("d", E(k4=2))),
       act("al", "d", ("d", -1))],
    TH_CD, ["k1", "k2", "k3", "k4", "k5"], part="7.3", nclass=3))

# -- C2 x C2 holonomy -------------------------------------------------------


def c22_record(family, relators, params, matrices=None):
    matrices = matrices or {"al": TH_AB, "be": TH_BC}
    return record(family, "C2xC2", relators, matrices, params, src("7.2", family))


def c22_actions(k_al_a=None, k_al_b=None, k_be_b=None, k_be_c=None):
    def tw(k):
        return (("d", k),) if k is not None else ()
    return [
        act("al", "a", ("a", -1), *tw(k_al_a)),
        act("al", "b", ("b", -1), *tw(k_al_b)),
        act("al", "c", ("c", 1)),
        act("al", "d", ("d", 1)),
        act("be", "a", ("a", 1)),
        act("be", "b", ("b", -1), *tw(k_be_b)),
        act("be", "c", ("c", -1), *tw(k_be_c)),
        act("be", "d", ("d", 1)),
    ]


LAT_TRIVIAL = [comm("b", "a"), comm("c", "a"), comm("c", "b")] + central("d", "abc")

RECORDS.append(c22_record(
    "27",
    LAT_TRIVIAL
    + [power("al", 2, ("c", 1)),
       power("be", 2, ("a", 1)),
       comm("al", "be", ("c", 1))]
    + c22_actions(k_al_a=E(k1=2), k_al_b=E(k2=2), k_be_b=E(k3=2), k_be_c=E(k4=2)),
    ["k1", "k2", "k3", "k4", "k5"]))

RECORDS.append(c22_record(
    "29b",
    LAT_TRIVIAL
    + [power("al", 2, ("c", 1)),
       power("be", 2, ("a", 1)),
       comm("al", "be", ("c", 1))]
    + c22_actions(k_al_a=E(k1=1), k_al_b=E(k2=1), k_be_b=E(k3=1), k_be_c=E(k4=2)),
    ["k1", "k2", "k3", "k4", "k5"]))

RECORDS.append(c22_record(
    "30",
    LAT_TRIVIAL
    + [power("al", 2, ("c", E(1, k1=1))),
       power("be", 2, ("a", 1)),
       comm("al", "be", ("c", 1))]
    + c22_actions(k_al_b=E(k2=2), k_be_b=E(k3=1), k_be_c=E(k4=2)),
    ["k1", "k2", "k3", "k4", "k5"]))

RECORDS.append(c22_record(
    "32",
    LAT_TRIVIAL
    + [power("al", 2, ("c", 1)),
       power("be", 2, ("a", E(1, k3=1))),
       comm("al", "be", ("c", 1))]
    + c22_actions(k_al_a=E(k1=2), k_al_b=E(k2=1), k_be_b=E(k4=2)),
    ["k1", "k2", "k3", "k4", "k5"]))

RECORDS.append(c22_record(
    "33b",
    LAT_TRIVIAL
    + [power("al", 2, ("b", 1)),
       power("be", 2, ("a", 1)),
       comm("al", "be", ("a", 1), ("c", 1), ("d", E(k2=1)))]
    + [act("al", "a", ("a", -1), ("d", E(k1=1))),
       act("al", "b", ("b", 1)),
       act("al", "c", ("c", 1)),
       act("al", "d", ("d", -1)),
       act("be", "a", ("a", 1)),
       act("be", "b", ("b", -1), ("d", E(k3=1))),
       act("be", "c", ("c", 1)),
       act("be", "d", ("d", -1))],
    ["k1", "k2", "k3", "k4", "k5"],
    matrices={"al": TH_33B_A, "be": TH_33B_B}))

RECORDS.append(c22_record(
    "34",
    [comm("b", "a"), comm("c", "a"), comm("c", "b", ("d", E(k2=2)))]
    + central("d", "abc")
    + [power("al", 2, ("c", E(1, k1=1))),
       power("be", 2, ("a", 1)),
       comm("al", "be", ("c", 1))]
    + c22_actions(k_be_b=E(k3=1), k_be_c=E(k4=2)),
    ["k1", "k2", "k3", "k4", "k5"]))

RECORDS.append(c22_record(
    "37",
    LAT_TRIVIAL
    + [power("al", 2, ("c", 1)),
       power("be", 2, ("a", 1)),
       comm("al", "be", ("c", 1))]
    + c22_actions(k_al_a=E(k1=2), k_al_b=E(k2=2), k_be_b=E(k3=1), k_be_c=E(k4=2)),
    ["k1", "k2", "k3", "k4", "k5"]))

RECORDS.append(c22_record(
    "41",
    LAT_TRIVIAL
    + [power("al", 2, ("c", E(k1=1)), ("d", E(k3=1))),
       power("be", 2, ("a", 1)),
       comm("al", "be", ("c", E(k1=1, k2=1)), ("d", E(k3=1)))]
    + c22_actions(k_al_a=E(k3=1), k_be_b=E(k4=2)),
    ["k1", "k2", "k3", "k4", "k5"]))

RECORDS.append(c22_record(
    "43",
    LAT_TRIVIAL
    + [power("al", 2, ("c", E(1, k1=1))),
       power("be", 2, ("a", 1)),
       comm("al", "be", ("b", 1), ("c", 1))]
    + c22_actions(k_al_b=E(k2=2), k_be_b=E(k3=1), k_be_c=E(k4=2)),
    ["k1", "k2", "k3", "k4", "k5"]))

RECORDS.append(c22_record(
    "45",
    LAT_TRIVIAL
    + [power("al", 2, ("c", E(k2=1)), ("d", E(k3=1))),
       power("be", 2, ("a", 1)),
       comm("al", "be", ("c", E(k2=1)), ("d", E(k3=1)))]
    + c22_actions(k_al_a=E(k3=1), k_al_b=E(k1=2), k_be_b=E(k4=2)),
    ["k1", "k2", "k3", "k4", "k5"]))

# -- C4 holonomy ------------------------------------------------------------


def c4_record(family, relators, params):
    return record(family, "C4", relators, {"al": R4}, params, src("7.2", family))


def c4_actions(k_c=None):
    tw = (("d", k_c),) if k_c is not None else ()
    return [
        act("al", "a", ("b", 1)),
        act("al", "b", ("a", -1)),
        act("al", "c", ("c", 1), *tw),
        act("al", "d", ("d", 1)),
    ]


RECORDS.append(c4_record(
    "75",
    [comm("b", "a"), comm("c", "a"), comm("c", "b")] + central("d", "abc")
    + [power("al", 4, ("c", 1))]
    + c4_actions(k_c=E(k4=2))
    + [act("al", "d", ("d", 1), ("d", E(k1=2)))],
    ["k1", "k2", "k3", "k4"]))

RECORDS.append(c4_record(
    "76",
    [comm("b", "a", ("d", E(k1=1))), comm("c", "a"), comm("c", "b")]
    + central("d", "abc")
    + [power("al", 4, ("c", 1))]
    + c4_actions(k_c=E(k2=1)),
    ["k1", "k2", "k3", "k4"]))

RECORDS.append(c4_record(
    "77",
    [comm("b", "a", ("d", E(k4=2))), comm("c", "a"), comm("c", "b")]
    + central("d", "abc")
    + [power("al", 4, ("c", 1))]
    + c4_actions(k_c=E(k1=2)),
    ["k1", "k2", "k3", "k4"]))

RECORDS.append(c4_record(
    "79",
    [comm("b", "a", ("d", 1)), comm("c", "a"), comm("c", "b")]
    + central("d", "abc")
    + [power("al", 4, ("c", 1), ("d", E(k4=1)))]
    + c4_actions(k_c=E(k1=2)),
    ["k1", "k2", "k3", "k4"]))

RECORDS.append(c4_record(
    "80",
    [comm("b", "a", ("d", 1)), comm("c", "a"), comm("c", "b")]
    + central("d", "abc")
    + [power("al", 4, ("c", E(1, k1=1)), ("d", E(k4=1)))]
    + c4_actions(k_c=E(k2=2)),
    ["k1", "k2", "k3", "k4"]))

# -- D8 holonomy ------------------------------------------------------------


def d8_record(family, relators, matrices, params):
    return record(family, "D8", relators, matrices, params, src("7.2", family))


D8_ACT_AL = [
    act("al", "a", ("a", 1)),
    act("al", "b", ("c", 1)),
    act("al", "c", ("b", -1)),
    act("al", "d", ("d", 1)),
]

RECORDS.append(d8_record(
    "103",
    [comm("b", "a"), comm("c", "a"), comm("c", "b", ("d", E(k5=2)))]
    + central("d", "abc")
    + [power("al", 4, ("a", 1)),
       power("be", 2, ("d", 1)),
       W(("al", 1), ("be", 1), ("al", 1), ("be", 1), ("d", -1))]
    + D8_ACT_AL
    + [act("be", "a", ("a", -1), ("d", E(k1=2))),
       act("be", "b", ("b", 1), ("d", E(k2=2))),
       act("be", "c", ("c", -1), ("d", E(k3=2))),
       act("be", "d", ("d", 1)),
       act("be", "d", ("d", 1), ("d", E(k4=2)))],
    {"al": D8_A, "be": D8_B103},
    ["k1", "k2", "k3", "k4", "k5"]))

RECORDS.append(d8_record(
    "104",
    [comm("b", "a"), comm("c", "a"), comm("c", "b")] + central("d", "abc")
    + [power("al", 4, ("a", 1)),
       power("be", 2, ("b", 1)),
       W(("al", 1), ("be", 1), ("al", 1), ("be", 1), ("a", -1))]
    + [act("al", "a", ("a", 1), ("d", E(k3=1))),
       act("al", "b", ("c", 1)),
       act("al", "c", ("b", -1)),
       act("al", "d", ("d", 1)),
       act("be", "a", ("a", 1), ("d", E(k1=2))),
       act("be", "b", ("b", 1), ("d", E(k2=2))),
       act("be", "c", ("c", -1), ("d", E(k4=2))),
       act("be", "d", ("d", -1))],
    {"al": D8_A, "be": D8_B104},
    ["k1", "k2", "k3", "k4", "k5"]))

RECORDS.append(d8_record(
    "106",
    [comm("b", "a"), comm("c", "a"), comm("c", "b")] + central("d", "abc")
    + [power("al", 4, ("a", 1)),
       power("be", 2, ("b", 1)),
       W(("al", 1), ("be", 1), ("al", 1), ("be", 1), ("a", -1))]
    + [act("al", "a", ("a", 1), ("d", E(k3=1))),
       act("al", "b", ("c", 1)),
       act("al", "c", ("b", -1)),
       act("al", "d", ("d", 1)),
       act("be", "a", ("a", 1), ("d", E(k4=1))),
       act("be", "b", ("b", 1), ("d", E(k1=2))),
       act("be", "c", ("c", -1), ("d", E(k2=2))),
       act("be", "d", ("d", -1))],
    {"al": D8_A, "be": D8_B104},
    ["k1", "k2", "k3", "k4", "k5"]))

RECORDS.append(d8_record(
    "110",
    [comm("b", "a"), comm("c", "a"), comm("c", "b")] + central("d", "abc")
    + [power("al", 4, ("a", 1)),
       power("be", 2, ("b", E(k1=1)), ("d", 2)),
       W(("al", 1), ("be", 1), ("al", 1), ("be", 1), ("a", -1))]
    + [act("al", "a", ("a", 1), ("d", E(k3=1))),
       act("al", "b", ("c", 1)),
       act("al", "c", ("b", -1)),
       act("al", "d", ("d", 1)),
       act("be", "a", ("a", 1), ("d", E(k2=2))),
       act("be", "b", ("b", 1), ("d", E(k4=2))),
       act("be", "c", ("c", -1), ("d", E(k5=2))),
       act("be", "d", ("d", -1))],
    {"al": D8_A, "be": D8_B104},
    ["k1", "k2", "k3", "k4", "k5"]))

# -- C3 holonomy ------------------------------------------------------------


def c3_record(family, relators, params):
    return record(family, "C3", relators, {"al": M3}, params, src("7.2", family))


def c3_actions(b_extra=(), c_extra=()):
    return [
        act("al", "a", ("a", 1)),
        act("al", "b", ("c", 1), *b_extra),
        act("al", "c", ("b", -1), ("c", -1), *c_extra),
        act("al", "d", ("d", 1)),
    ]


RECORDS.append(c3_record(
    "143",
    [comm("b", "a"), comm("c", "a"), comm("c", "b", ("d", E(k1=1)))]
    + central("d", "abc")
    + [power("al", 3, ("a", 1), ("d", E(k4=1)))]
    + c3_actions(b_extra=(("d", E(k2=2)),)),
    ["k1", "k2", "k3", "k4"]))

RECORDS.append(c3_record(
    "144",
    [comm("b", "a"), comm("c", "a"), comm("c", "b", ("d", E(k1=1)))]
    + central("d", "abc")
    + [power("al", 3, ("a", 1), ("d", E(k4=2)))]
    + c3_actions(b_extra=(("d", E(k2=1)),)),
    ["k1", "k2", "k3", "k4"]))

RECORDS.append(c3_record(
    "146",
    [comm("b", "a"), comm("c", "a"), comm("c", "b", ("d", E(k1=1)))]
    + central("d", "abc")
    + [power("al", 3, ("a", 1), ("d", E(k4=1)))]
    + c3_actions(c_extra=(("d", E(k2=2)),)),
    ["k1", "k2", "k3", "k4"]))

# -- S3 holonomy ------------------------------------------------------------


def s3_record(family, relators, params):
    return record(family, "S3", relators, {"al": S3_A, "be": S3_B}, params,
                  src("7.2", family))


S3_LATTICE = [
    comm("b", "a"), comm("c", "a"), comm("d", "a"),
    comm("c", "b", ("a", 2)),
    comm("d", "c", ("a", 2)),
    comm("b", "d", ("a", 2)),
]


def s3_relators(k_corr, k_al3, k_be2, k_ba2):
    return S3_LATTICE + [
        power("al", 3, ("a", 1), ("b", k_al3), ("c", k_al3), ("d", k_al3)),
        power("be", 2, ("d", 1), ("b", k_be2), ("c", k_be2)),
        W(("be", 1), ("al", 1), ("be", 1), ("al", 1),
          ("d", _neg(k_ba2)), ("c", _neg(k_ba2)), ("b", -1)),
        act("al", "a", ("a", 1)),
        act("al", "b", ("c", 1), ("a", k_corr)),
        act("al", "c", ("d", 1)),
        act("al", "d", ("b", 1)),
        act("be", "a", ("a", -1)),
        act("be", "b", ("c", 1)),
        act("be", "c", ("b", 1)),
        act("be", "d", ("d", 1)),
    ]


RECORDS.append(s3_record(
    "158",
    s3_relators(E(k1=1), E(k2=1), E(k4=1), E(k3=2)),
    ["k1", "k2", "k3", "k4", "k5"]))

RECORDS.append(s3_record(
    "159",
    s3_relators(E(k1=1), E(k2=2), E(k4=2), E(k3=1)),
    ["k1", "k2", "k3", "k4", "k5"]))

RECORDS.append(s3_record(
    "161",
    s3_relators(E(k1=1), E(k2=1), E(k4=2), E(k3=2)),
    ["k1", "k2", "k3", "k4", "k5"]))

# -- C6 holonomy ------------------------------------------------------------


def c6_record(family, relators, params):
    return record(family, "C6", relators, {"al": M6}, params, src("7.2", family))


def c6_relators(k_cb, k_al6, b_extra=()):
    return [
        comm("b", "a"), comm("c", "a"), comm("c", "b", ("d", k_cb)),
    ] + central("d", "abc") + [
        power("al", 6, ("a", 1), ("d", k_al6)),
        act("al", "a", ("a", 1)),
        act("al", "b", ("c", -1), *b_extra),
        act("al", "c", ("b", 1), ("c", 1)),
        act("al", "d", ("d", 1)),
    ]


RECORDS.append(c6_record("168", c6_relators(E(k1=1), E(k4=1)), ["k1", "k2", "k3", "k4"]))
RECORDS.append(c6_record("169", c6_relators(E(k1=1), E(k4=2)), ["k1", "k2", "k3", "k4"]))
RECORDS.append(c6_record(
    "172", c6_relators(E(k1=1), E(k4=1), b_extra=(("d", E(k2=2)),)),
    ["k1", "k2", "k3", "k4"]))
RECORDS.append(c6_record(
    "173", c6_relators(E(k1=1), E(k4=1), b_extra=(("d", E(k3=2)),)),
    ["k1", "k2", "k3", "k4"]))

# -- D12 holonomy -----------------------------------------------------------

RECORDS.append(record(
    "184", "D12",
    [comm("b", "a"), comm("c", "a"), comm("c", "b", ("d", E(k4=2)))]
    + central("d", "abc")
    + [power("al", 6, ("a", 1)),
       power("be", 2, ("d", 1)),
       W(("be", 1), ("al", 1), ("be", 1), ("al", 1), ("d", -1)),
       act("al", "a", ("a", 1)),
       act("al", "b", ("c", -1)),
       act("al", "c", ("b", 1), ("c", 1)),
       act("al", "d", ("d", 1)),
       act("be", "a", ("a", -1), ("d", E(k1=2))),
       act("be", "b", ("c", -1), ("d", E(k2=2))),
       act("be", "c", ("b", -1), ("d", E(k3=2))),
       act("be", "d", ("d", 1), ("d", E(k5=2)))],
    {"al": M6, "be": D12_B},
    ["k1", "k2", "k3", "k4", "k5"],
    src("7.2", "184")))


# ---------------------------------------------------------------------------
# Table of expected counts
# ---------------------------------------------------------------------------

TABLE = [
    ("1", "C1", (0, 0, 0), 16), ("1", "C1", (1, 0, 0), 8),
    ("3", "C2", (0, 0, 0, 1), 16),
    ("4", "C2", (0, 0, 0, 0), 16), ("4", "C2", (0, 1, 0, 0), 8),
    ("4", "C2", (1, 0, 0, 0), 8),
    ("5", "C2", (0, 0, 0, 1), 8), ("5", "C2", (1, 0, 0, 1), 0),
    ("7b", "C2", (0, 0, 0, 0), 16), ("7b", "C2", (0, 0, 1, 0), 8),
    ("7b", "C2", (0, 1, 0, 0), 8), ("7b", "C2", (0, 1, 1, 0), 8),
    ("7b", "C2", (1, 0, 0, 0), 8),
    ("9b", "C2", (0, 0, 0, 0), 8), ("9b", "C2", (0, 1, 0, 0), 4),
    ("9b", "C2", (1, 0, 0, 0), 4),
    ("27", "C2xC2", (0, 0, 0, 1, 0), 16),
    ("29b", "C2xC2", (0, 0, 0, 0, 0), 16), ("29b", "C2xC2", (0, 0, 1, 0, 0), 8),
    ("29b", "C2xC2", (0, 1, 0, 0, 0), 8), ("29b", "C2xC2", (1, 0, 0, 0, 0), 8),
    ("29b", "C2xC2", (1, 0, 1, 0, 0), 8), ("29b", "C2xC2", (1, 1, 0, 0, 0), 8),
    ("30", "C2xC2", (0, 0, 1, 0, 0), 8), ("30", "C2xC2", (1, 0, 1, 0, 0), 0),
    ("32", "C2xC2", (0, 1, 0, 0, 0), 8), ("32", "C2xC2", (0, 1, 1, 0, 0), 0),
    ("33b", "C2xC2", (0, 0, 0, 0, 0), 8), ("33b", "C2xC2", (0, 0, 1, 0, 0), 4),
    ("33b", "C2xC2", (0, 1, 0, 0, 0), 8), ("33b", "C2xC2", (1, 0, 0, 0, 0), 4),
    ("33b", "C2xC2", (1, 0, 1, 0, 0), 4),
    ("34", "C2xC2", (0, 0, 1, 0, 0), 8), ("34", "C2xC2", (1, 0, 1, 0, 0), 0),
    ("37", "C2xC2", (0, 0, 1, 0, 0), 8),
    ("41", "C2xC2", (0, 0, 1, 0, 0), 0), ("41", "C2xC2", (0, 1, 1, 0, 0), 0),
    ("41", "C2xC2", (1, 0, 1, 0, 0), 8), ("41", "C2xC2", (1, 1, 1, 0, 0), 0),
    ("43", "C2xC2", (0, 0, 1, 0, 0), 4), ("43", "C2xC2", (1, 0, 1, 0, 0), 0),
    ("45", "C2xC2", (0, 0, 1, 0, 0), 0), ("45", "C2xC2", (0, 1, 1, 0, 0), 8),
    ("75", "C4", (0, 0, 0, 1), 8),
    ("76", "C4", (0, 0, 0, 0), 8), ("76", "C4", (0, 1, 0, 0), 4),
    ("76", "C4", (1, 0, 0, 0), 4),
    ("77", "C4", (0, 0, 0, 1), 8),
    ("79", "C4", (0, 0, 0, 1), 4),
    ("80", "C4", (0, 0, 0, 1), 4), ("80", "C4", (1, 0, 0, 1), 0),
    ("103", "D8", (0, 0, 0, 1, 0), 8),
    ("104", "D8", (0, 0, 1, 0, 0), 4),
    ("106", "D8", (0, 0, 1, 0, 0), 4), ("106", "D8", (0, 0, 1, 1, 0), 4),
    ("110", "D8", (0, 0, 1, 0, 0), 0), ("110", "D8", (1, 0, 1, 0, 0), 4),
    ("143", "C3", (0, 0, 0, 0), 4), ("143", "C3", (0, 0, 0, 1), 4),
    ("143", "C3", (1, 0, 0, 0), 2), ("143", "C3", (1, 0, 0, 1), 2),
    ("144", "C3", (0, 0, 0, 0), 4), ("144", "C3", (0, 1, 0, 0), 4),
    ("144", "C3", (1, 0, 0, 0), 2), ("144", "C3", (1, 1, 0, 0), 2),
    ("146", "C3", (0, 0, 0, 0), 4), ("146", "C3", (0, 0, 0, 1), 4),
    ("146", "C3", (1, 0, 0, 0), 2), ("146", "C3", (1, 0, 0, 1), 2),
    ("158", "S3", (0, 0, 0, 0, 0), 4), ("158", "S3", (0, 0, 0, 1, 0), 4),
    ("158", "S3", (0, 1, 0, 1, 0), 4), ("158", "S3", (1, 0, 0, 0, 0), 2),
    ("158", "S3", (1, 0, 0, 1, 0), 2), ("158", "S3", (1, 1, 0, 1, 0), 2),
    ("159", "S3", (0, 0, 0, 0, 0), 4), ("159", "S3", (0, 0, 1, 0, 0), 4),
    ("159", "S3", (1, 0, 0, 0, 0), 2), ("159", "S3", (1, 0, 1, 0, 0), 2),
    ("161", "S3", (0, 0, 0, 0, 0), 4), ("161", "S3", (0, 1, 0, 0, 0), 4),
    ("161", "S3", (1, 0, 0, 0, 0), 2), ("161", "S3", (1, 1, 0, 0, 0), 2),
    ("168", "C6", (0, 0, 0, 1), 4),
    ("169", "C6", (0, 0, 0, 0), 4), ("169", "C6", (1, 0, 0, 0), 2),
    ("172", "C6", (0, 0, 0, 1), 4),
    ("173", "C6", (0, 0, 0, 0), 4), ("173", "C6", (0, 0, 0, 1), 4),
    ("173", "C6", (1, 0, 0, 0), 2), ("173", "C6", (1, 0, 0, 1), 2),
    ("184", "D12", (0, 0, 0, 1, 0), 4),
    ("B1", "C1", (0, 0, 0, 0), 16), ("B1", "C1", (0, 0, 0, 1), 8),
    ("B1", "C1", (0, 0, 1, 0), 8), ("B1", "C1", (0, 0, 1, 1), 8),
    ("B1", "C1", (0, 1, 0, 0), 8), ("B1", "C1", (0, 1, 0, 1), 8),
    ("B1", "C1", (0, 1, 1, 0), 8), ("B1", "C1", (0, 1, 1, 1), 8),
    ("B1", "C1", (1, 0, 0, 0), 8), ("B1", "C1", (1, 0, 0, 1), 4),
    ("B1", "C1", (1, 0, 1, 0), 4), ("B1", "C1", (1, 0, 1, 1), 4),
    ("B1", "C1", (1, 1, 0, 0), 8), ("B1", "C1", (1, 1, 0, 1), 4),
    ("B1", "C1", (1, 1, 1, 0), 4), ("B1", "C1", (1, 1, 1, 1), 4),
    ("B3", "C2", (1, 0, 0, 0, 1), 8),
    ("B3b", "C2", (1, 0, 0, 0, 1), 8), ("B3b", "C2", (1, 1, 0, 0, 1), 0),
    ("B3c", "C2", (0, 0, 0, 0, 1), 16), ("B3c", "C2", (1, 0, 0, 0, 1), 16),
    ("B4", "C2", (0, 0, 0, 0, 0), 16), ("B4", "C2", (0, 0, 0, 1, 0), 8),
    ("B4", "C2", (0, 0, 1, 0, 0), 8), ("B4", "C2", (0, 1, 0, 0, 0), 8),
    ("B4", "C2", (1, 0, 0, 0, 0), 8), ("B4", "C2", (1, 0, 0, 1, 0), 4),
    ("B4", "C2", (1, 0, 1, 0, 0), 8), ("B4", "C2", (1, 1, 0, 0, 0), 4),
    ("B5", "C2", (0, 0, 0, 0, 1), 8), ("B5", "C2", (0, 1, 0, 0, 1), 0),
    ("B5", "C2", (1, 0, 0, 0, 1), 8), ("B5", "C2", (1, 1, 0, 0, 1), 0),
    ("B5b", "C2", (1, 0, 0, 0, 1), 4), ("B5b", "C2", (1, 1, 0, 0, 1), 0),
]

LIFT_GROUPS = {
    "1": "C2", "4": "C4", "27": "Q8", "75": "C8", "103": "Q16",
    "143": "C6", "158": "C3:C4", "168": "C12", "184": "C3:Q8",
}

CHARACTERS = {
    "1": "4χ1", "4": "2χ1+2χ2", "27": "χ1+χ2+χ3+χ4", "75": "2χ1+χ3+χ4",
    "103": "χ1+χ2+χ5", "143": "2χ1+χ2+χ3", "158": "χ1+χ2+χ3",
    "168": "2χ1+χ5+χ6", "184": "χ1+χ2+χ6",
}


class BuildFailed(Exception):
    """Some recomputed count, preimage group or character does not match."""


def _dumps(data) -> str:
    return json.dumps(data, indent=1, ensure_ascii=False) + "\n"


def render() -> tuple:
    """The texts of catalog.json and expectations.json, once every record
    passes ``check_record`` and every expectation row, preimage group and
    character is recomputed; raises BuildFailed otherwise."""
    by_family = {r.family: r for r in RECORDS}
    assert len(by_family) == len(RECORDS), "duplicate family ids"
    failures = []

    for r in RECORDS:
        cat.check_record(r)

    for family, hol_name, params, expected in TABLE:
        r = by_family[family]
        assert r.holonomy_name == hol_name, family
        got = fp.count_lifts(r, params).count
        status = "ok" if got == expected else "MISMATCH"
        if got != expected:
            failures.append((family, params, expected, got))
            print(f"{family:>5} {params} expected {expected:>2} got {got:>2}  {status}")

    zero = sum(1 for f, h, p, c in TABLE if c == 0)
    print(f"rows: {len(TABLE)}, zero rows in table: {zero}")

    for family, expected in LIFT_GROUPS.items():
        g = fp.lift_group(by_family[family])
        note = "ok" if g.name == expected else "MISMATCH"
        if g.name != expected:
            failures.append((family, "lift_group", expected, g.name))
        print(f"lift-group {family}: {g.name} (order {g.order}) [{note}]")

    for family, expected in CHARACTERS.items():
        _, rendered = holonomy.character_of_record(by_family[family])
        note = "ok" if rendered == expected else "MISMATCH"
        if rendered != expected:
            failures.append((family, "char", expected, rendered))
        print(f"char {family}: {rendered} [{note}]")

    if failures:
        raise BuildFailed(f"{len(failures)} failures")

    catalog_json = {
        "format_version": cat.FORMAT_VERSION,
        "records": [cat.record_to_json(r) for r in RECORDS],
    }
    expectations_json = {
        "format_version": cat.FORMAT_VERSION,
        "rows": [
            {"family": f, "holonomy": h, "params": list(p), "count": c}
            for f, h, p, c in TABLE
        ],
    }
    return _dumps(catalog_json), _dumps(expectations_json)


def main() -> int:
    try:
        catalog_text, expectations_text = render()
    except BuildFailed as exc:
        print(f"\n{exc}; not writing output")
        return 1
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    (DATA_DIR / "catalog.json").write_text(catalog_text, encoding="utf-8")
    (DATA_DIR / "expectations.json").write_text(expectations_text, encoding="utf-8")
    print(f"wrote {DATA_DIR / 'catalog.json'} and expectations.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
