"""Fixtures shared by the test modules."""

import contextlib
import io
import random
from pathlib import Path
from typing import NamedTuple

import pytest

from spinaf import catalog as cat
from spinaf import fp, intmat
from spinaf.cli import main


class Result(NamedTuple):
    exit_code: int
    output: str  # standard output and standard error, interleaved as written


def invoke(*args: str) -> Result:
    """Run ``spinaf <args>`` in this process, as the ``spinaf`` command would."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return Result(code, out.getvalue())


@pytest.fixture()
def cli():
    """``invoke``: run one ``spinaf`` command and return (exit_code, output)."""
    return invoke


@pytest.fixture(scope="session")
def bundled():
    """The bundled catalog and expectations, read and checked once per session.

    Its records keep what they compute (F, the relator signs, the spin
    preimages) from test to test; a test that needs records with nothing
    computed yet loads its own.
    """
    return cat.load_bundled()


@pytest.fixture()
def reuse_bundled(bundled, monkeypatch):
    """Commands run in this process get ``bundled``'s catalog instead of
    re-reading the bundled file, as ``tools/output_digest.py`` does; any
    other catalog path is read as usual."""
    catalog, _ = bundled
    load = cat.load_catalog
    monkeypatch.setattr(cat, "load_catalog", lambda path: (
        catalog if Path(path) == cat.bundled_path("catalog.json") else load(path)))


# seed -> the determinant of the conjugating matrices that seed draws
CONJUGATION_SEEDS = {5: 1, 7: 1, 11: -1}


def random_unimodular(rng: random.Random, det: int):
    """A random U in GL(4, Z) of determinant ``det`` (1 or -1): a product
    of 6 elementary matrices, each with one off-diagonal entry -2, -1, 1 or
    2, with its first row negated when ``det`` is -1."""
    U = intmat.int_identity(4)
    for _ in range(6):
        i, j = rng.sample(range(4), 2)
        E = [list(row) for row in intmat.int_identity(4)]
        E[i][j] = rng.choice((-2, -1, 1, 2))
        U = intmat.int_mat_mul(U, E)
    if det < 0:
        U = (tuple(-x for x in U[0]),) + U[1:]
    return U


def conjugate(record, U):
    """The record with each holonomy matrix M written in another lattice
    basis, as U M U^-1; nothing computed yet."""
    inverse = intmat.int_mat_inverse(U)
    return record._replace(matrices={
        name: intmat.int_mat_mul(intmat.int_mat_mul(U, M), inverse)
        for name, M in record.matrices.items()})


@pytest.fixture(scope="session")
def conjugated(bundled):
    """Per seed of ``CONJUGATION_SEEDS``, the bundled catalog with each
    record conjugated by its own random U, every record checked as loading
    checks it."""
    catalog, _ = bundled
    out = {}
    for seed, det in CONJUGATION_SEEDS.items():
        rng = random.Random(seed)
        records = []
        for r in catalog.records:
            U = random_unimodular(rng, det)
            assert intmat.int_det(U) == det
            records.append(conjugate(r, U))
            cat.check_record(records[-1])
        out[seed] = cat.Catalog(tuple(records))
    return out


@pytest.fixture()
def sheared_quarter_turn():
    """C4 generated by al = U R4 U^-1, a quarter turn R4 written in the
    lattice basis of the shear U: a -> a + c, with the one relator al^4.
    A lift x of al has x^4 = -1, so the record has no spin structure.  No
    element of its holonomy group but the identity is a signed permutation.
    Not checked."""
    U = ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    R4 = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    gens = tuple(fp.GeneratorDecl(n, fp.LATTICE) for n in "abcd")
    return fp.AlmostBieberbachRecord(
        family="C4-shear", holonomy_name="C4",
        presentation=fp.Presentation(gens + (fp.GeneratorDecl("al", fp.HOLONOMY),),
                                     ((("al", fp.ExponentExpr.make(4)),),)),
        matrices={"al": intmat.int_mat_mul(intmat.int_mat_mul(U, R4), intmat.int_mat_inverse(U))},
        nilpotency_class=1)
