"""Seeded synthetic RDF-star fixtures for tests and offline experiments."""

from __future__ import annotations

import random

from .terms import (
    Iri,
    Literal,
    QuotedTriple,
    Term,
    Triple,
    XSD_INTEGER,
)


def random_literal(rng: random.Random) -> Literal:
    kind = rng.randrange(3)
    if kind == 0:
        return Literal(str(rng.randrange(1000)), datatype=XSD_INTEGER)
    if kind == 1:
        text = "".join(rng.choice('abc "\\\n\t xyz') for _ in range(rng.randrange(8)))
        return Literal(text)
    return Literal("word" + str(rng.randrange(50)), language=rng.choice(["en", "ja"]))


def random_iri(rng: random.Random, pool: int = 40, prefix: str = "e") -> Iri:
    return Iri(f"urn:fixture:{prefix}{rng.randrange(pool)}")


def random_quoted(rng: random.Random, depth: int, entity_pool: int = 40,
                  relation_pool: int = 8) -> QuotedTriple:
    """A quoted triple of exactly the given nesting depth."""
    predicate = random_iri(rng, relation_pool, "r")
    if depth <= 1:
        return QuotedTriple(
            random_iri(rng, entity_pool), predicate, random_iri(rng, entity_pool)
        )
    inner = random_quoted(rng, depth - 1, entity_pool, relation_pool)
    if rng.randrange(2) == 0:
        return QuotedTriple(inner, predicate, random_iri(rng, entity_pool))
    return QuotedTriple(random_iri(rng, entity_pool), predicate, inner)


def random_graph(seed: int, triples: int = 60, entity_pool: int = 40,
                 relation_pool: int = 8, qt_probability: float = 0.3,
                 max_depth: int = 3) -> list[Triple]:
    """Random asserted triples with QT subjects/objects at the given rate."""
    if triples < 0:
        raise ValueError(f"triples must be >= 0, got {triples}")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    if not 0.0 <= qt_probability <= 1.0:
        raise ValueError(
            f"qt_probability must lie in [0, 1], got {qt_probability!r}")
    rng = random.Random(seed)
    out: list[Triple] = []
    for _ in range(triples):
        if rng.random() < qt_probability:
            subject: Iri | QuotedTriple = random_quoted(
                rng, rng.randint(1, max_depth), entity_pool, relation_pool
            )
        else:
            subject = random_iri(rng, entity_pool)
        predicate = random_iri(rng, relation_pool, "r")
        roll = rng.random()
        if roll < qt_probability:
            obj: Term = random_quoted(
                rng, rng.randint(1, max_depth), entity_pool, relation_pool
            )
        elif roll < qt_probability + 0.15:
            obj = random_literal(rng)
        else:
            obj = random_iri(rng, entity_pool)
        out.append(Triple(subject, predicate, obj))
    return out

