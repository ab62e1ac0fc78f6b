"""Seeded input generators owned by the benchmark.

Nothing here imports ``qtwalk``: the inputs stay fixed when the package's
own fixtures change.  Every term is kept in the package's canonical text
form (``<iri>``, ``"lex"@lang``, ``<< S P O >>``) so gold tokens and the
ground truth used by the output checks can be compared with the
program's outputs byte for byte.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
OWL_NOTHING = "http://www.w3.org/2002/07/owl#Nothing"
KGC = "http://kgc.knowledge-graph.jp/ontology/kgc.owl#"
KGD = "http://kgc.knowledge-graph.jp/data/"
DEEP = "http://example.org/deep/"

PREFIXES = {
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
    "kgc": KGC,
    "kd": KGD,
    "ex": DEEP,
}

# Verb kinds decide which roles a scene fills, so the three entity classes
# occupy different positions in the converted graph (what the walks learn).
OBJECT_VERBS = ("take", "open", "hide", "find", "hold", "drop", "read", "break")
PERSON_VERBS = ("meet", "follow", "ask", "tell", "watch", "help", "warn", "call")
MOTION_VERBS = ("go", "arrive", "leave", "enter", "visit", "stay", "return", "wait")
TIMES = ("dawn", "morning", "noon", "afternoon", "evening", "night")
# Entity facts outside the scenes.  Each class hangs off its own small set
# of hubs shared across stories, which is where a class signal comes from
# once the rdf:type triples are excluded from the walks.
OCCUPATIONS = ("detective", "doctor", "maid", "butler", "clerk", "inspector")
MATERIALS = ("wood", "metal", "paper", "glass", "cloth", "leather")
TOWNS = ("london", "surrey", "kent", "sussex")


def iri(value: str) -> str:
    return f"<{value}>"


def qt(s: str, p: str, o: str) -> str:
    return f"<< {s} {p} {o} >>"


def turtle(term: str) -> str:
    """Shorten a canonical term with the known prefixes, for the input file."""
    out = []
    for part in term.split(" "):
        if part.startswith("<http"):
            value = part[1:-1]
            for name, ns in PREFIXES.items():
                if value.startswith(ns) and value[len(ns):].isidentifier():
                    part = f"{name}:{value[len(ns):]}"
                    break
        elif part.startswith('"') and "^^<" in part:
            lex, _, dt = part.partition("^^")
            part = f"{lex}^^{turtle(dt)}"
        out.append(part)
    return " ".join(out)


def prefix_block() -> str:
    return "".join(f"@prefix {k}: <{v}> .\n" for k, v in PREFIXES.items())


# -- KGRC-shaped scene graph ---------------------------------------------------

def scene_graph(seed: int, stories: int, scenes: int, persons: int,
                objects: int, places: int, planted_duplicates: int) -> dict:
    """Stories of scenes in the reified KGRC layout, plus ground truth.

    Returns the Turtle text, four gold files for entity-class tasks, one
    story-label gold file for scene QTs, and the counts the converter must
    report.
    """
    rng = random.Random(seed)
    lines = [prefix_block()]
    classes: dict[str, str] = {}
    scene_qts: list[tuple[int, str]] = []
    parts_of: dict[str, tuple[str, str, str]] = {}
    cooccur: Counter = Counter()

    for s in range(stories):
        ents = {
            "Person": [iri(f"{KGD}s{s}_person{i}") for i in range(persons)],
            "Object": [iri(f"{KGD}s{s}_object{i}") for i in range(objects)],
            "Place": [iri(f"{KGD}s{s}_place{i}") for i in range(places)],
        }
        for cls, members in ents.items():
            for e in members:
                classes[e] = cls
                lines.append(f"{turtle(e)} a kgc:{cls} .\n")
        lines.extend(_entity_facts(rng, ents))
        records = []
        for k in range(scenes):
            # The first scenes cycle through every entity so all of them
            # occur in the graph (gold tokens must be present).
            kind = rng.choice(("object", "person", "motion"))
            subject = ents["Person"][k % persons] if k < persons else (
                rng.choice(ents["Person"]) if rng.random() < 0.92 else None)
            if k < objects:
                kind = "object"
            roles: dict[str, str] = {}
            if kind == "object":
                verb = rng.choice(OBJECT_VERBS)
                roles["what"] = ents["Object"][k % objects] if k < objects \
                    else rng.choice(ents["Object"])
                if rng.random() < 0.3:
                    roles["whom"] = rng.choice(ents["Person"])
            elif kind == "person":
                verb = rng.choice(PERSON_VERBS)
                roles["whom"] = rng.choice(ents["Person"])
            else:
                verb = rng.choice(MOTION_VERBS)
            if kind == "motion" or k < places or rng.random() < 0.6:
                roles["where"] = ents["Place"][k % places] if k < places \
                    else rng.choice(ents["Place"])
            records.append([subject, iri(f"{KGD}verb_{verb}"), roles])
        for _ in range(planted_duplicates):
            src, dst = rng.sample(range(max(persons, objects, places), scenes), 2)
            records[dst] = [records[src][0], records[src][1],
                            dict(records[src][2])]
        for k, (subject, verb, roles) in enumerate(records):
            sid = iri(f"{KGD}s{s}_scene{k:03d}")
            body = [f"{turtle(sid)} a kgc:Situation"]
            if subject is not None:
                body.append(f"kgc:subject {turtle(subject)}")
            body.append(f"kgc:hasPredicate {turtle(verb)}")
            for role in ("what", "whom", "where"):
                if role in roles:
                    body.append(f"kgc:{role} {turtle(roles[role])}")
            body.append(f'kgc:when "{rng.choice(TIMES)}"@en')
            if k + 1 < scenes:
                body.append(f"kgc:then {turtle(iri(f'{KGD}s{s}_scene{k + 1:03d}'))}")
            lines.append(" ;\n    ".join(body) + " .\n")
            obj = next((roles[r] for r in ("what", "whom", "where") if r in roles),
                       iri(OWL_NOTHING))
            token = qt(subject or iri(OWL_NOTHING), verb, obj)
            scene_qts.append((s, token))
            parts_of[token] = (subject or iri(OWL_NOTHING), verb, obj)
            members = {e for e in [subject, *roles.values()] if e is not None}
            for a, b in combinations(sorted(members), 2):
                cooccur[a, b] += 1
                cooccur[b, a] += 1

    qt_counts = Counter(token for _, token in scene_qts)
    story_of = {token: s for s, token in scene_qts}
    entity_gold = "".join(f"{e}\t{c}\n" for e, c in sorted(classes.items()))
    story_gold = "".join(
        f"{token}\tstory{s}\n" for token, s in sorted(story_of.items()))
    return {
        "turtle": "".join(lines),
        "gold": {
            "classification.tsv": entity_gold,
            "clustering.tsv": entity_gold,
            "relatedness.tsv": _relatedness_gold(rng, classes, cooccur),
            "qt_similarity.tsv": _similarity_gold(rng, parts_of),
        },
        "story_gold": {"classification.tsv": story_gold},
        "expect": {
            "scenes_converted": len(scene_qts),
            "duplicates_disambiguated": sum(
                c for c in qt_counts.values() if c > 1),
        },
        "majority_share": _majority(classes),
        "story_majority_share": _majority(story_of),
    }


def _entity_facts(rng: random.Random, ents: dict[str, list[str]]) -> list[str]:
    """Occupation and acquaintances of persons, material of objects, and
    the place hierarchy (rooms in a house in a town)."""
    out = []
    people, places = ents["Person"], ents["Place"]
    for i, person in enumerate(people):
        known = people[(i + 1) % len(people)]
        out.append(f"{turtle(person)} kgc:occupation "
                   f"kd:{rng.choice(OCCUPATIONS)} ; kgc:knows {turtle(known)} .\n")
    for obj in ents["Object"]:
        out.append(f"{turtle(obj)} kgc:madeOf kd:{rng.choice(MATERIALS)} .\n")
    for room in places[1:]:
        out.append(f"{turtle(room)} kgc:partOf {turtle(places[0])} .\n")
    out.append(f"{turtle(places[0])} kgc:partOf kd:{rng.choice(TOWNS)} .\n")
    return out


def _majority(labels: dict) -> float:
    """Share of the most frequent label: the accuracy of always guessing it."""
    return max(Counter(labels.values()).values()) / len(labels)


def _relatedness_gold(rng: random.Random, classes: dict[str, str],
                      cooccur: Counter) -> str:
    """Per seed person: ten entities ranked by shared scenes, then name."""
    people = sorted(e for e, c in classes.items() if c == "Person")
    out = []
    for seed_entity in rng.sample(people, min(len(people), 40)):
        ranked = sorted((e for e in classes if e != seed_entity),
                        key=lambda e: (-cooccur[seed_entity, e], e))[:10]
        out.append(seed_entity + "\n" + "".join(f"  {e}\n" for e in ranked))
    return "".join(out)


def _similarity_gold(rng: random.Random,
                     parts_of: dict[str, tuple[str, str, str]]) -> str:
    """Scene-QT pairs scored by how many components they share."""
    tokens = sorted(parts_of)
    out = []
    for _ in range(200):
        a, b = rng.sample(tokens, 2)
        shared = sum(x == y for x, y in zip(parts_of[a], parts_of[b]))
        out.append(f"{a}\t{b}\t{shared}\n")
    return "".join(out)


# -- deep-nesting RDF-star graph ------------------------------------------------

_DEPTH_NAMES = {1: "Single", 2: "Double", 3: "Triple", 4: "Quadruple"}
# Nesting depth 1..5 of a QT drawn as a subject or object, by weight.
DEPTH_WEIGHTS = (40, 25, 15, 10, 10)
DEEP_CLASSES = 6
LITERAL_SHARE = 0.15
QT_SHARE = 0.45


def deep_graph(seed: int, triples: int, entities: int, relations: int) -> dict:
    """Asserted triples whose subjects and objects are QTs nested up to
    depth 5, with the ``qtwalk stats`` table the graph must produce."""
    rng = random.Random(seed)
    ents = [iri(f"{DEEP}e{i}") for i in range(entities)]
    rels = [iri(f"{DEEP}r{i}") for i in range(relations)]
    pool: dict[int, list[str]] = {d: [] for d in range(1, len(DEPTH_WEIGHTS) + 1)}
    depth_of: dict[str, int] = {}
    preds: set[str] = set()

    def make_qt(depth: int) -> str:
        # Half the time reuse a QT of that depth, so QTs are shared and the
        # QT indexes branch.
        if pool[depth] and rng.random() < 0.5:
            return rng.choice(pool[depth])
        p = rng.choice(rels)
        if depth == 1:
            s, o = rng.sample(ents, 2)
        else:
            inner, other = make_qt(depth - 1), rng.choice(ents)
            s, o = (inner, other) if rng.random() < 0.5 else (other, inner)
        token = qt(s, p, o)
        if token not in depth_of:
            depth_of[token] = depth
            pool[depth].append(token)
            preds.add(p)
        return token

    def any_qt() -> str:
        return make_qt(rng.choices(list(pool), weights=DEPTH_WEIGHTS)[0])

    asserted: dict[tuple[str, str, str], None] = {}
    classes = set()
    for e in ents:
        cls = iri(f"{DEEP}Class{rng.randrange(DEEP_CLASSES)}")
        classes.add(cls)
        asserted[e, iri(RDF_TYPE), cls] = None
    while len(asserted) < triples:
        subject = any_qt() if rng.random() < QT_SHARE else rng.choice(ents)
        roll = rng.random()
        if roll < LITERAL_SHARE:
            obj = (f'"{rng.randrange(2000)}"^^{iri(XSD_INTEGER)}'
                   if rng.random() < 0.5 else f'"note{rng.randrange(300)}"@en')
        elif roll < LITERAL_SHARE + QT_SHARE:
            obj = any_qt()
        else:
            obj = rng.choice(ents)
        asserted[subject, rng.choice(rels), obj] = None

    preds.update(p for _, p, _ in asserted)
    standard = sum(not s.startswith("<<") and not o.startswith("<<")
                   for s, _, o in asserted)
    by_depth = Counter(depth_of.values())
    rows = [("Class", len(classes)), ("Instance", len(ents)),
            ("Property", len(preds)), ("Standard triple", standard)]
    rows += [(f"{_DEPTH_NAMES.get(d, f'{d}-fold')}-nested QT", by_depth[d])
             for d in sorted(by_depth)]
    rows.append(("Total", standard + sum(by_depth.values())))
    return {
        "turtle": prefix_block() + "".join(
            f"{turtle(' '.join(t))} .\n" for t in asserted),
        "stats_tsv": "".join(f"{k}\t{v}\n" for k, v in rows),
        "max_depth": max(by_depth),
    }
