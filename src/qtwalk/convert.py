"""Conversion of reified scene-graph RDF into RDF-star.

Each scene node carrying a ``kgc:hasPredicate`` is folded into a quoted
triple ``<< subject predicate object >>``.  The object is the value of
the highest-priority populated role (what > whom > where > on > to >
from); a missing subject or object becomes ``owl:Nothing``.  Remaining
roles and types reattach to the QT as metadata, duplicate (s, p, o)
combinations are told apart by nesting each occurrence under a reserved id
predicate: ``<< << s p o >> id val >>``, and a scene-to-scene link is
resolved to the target scene's own subject, its QT or its id wrapper.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .terms import (
    ID_PREDICATE,
    Iri,
    KGC_NS,
    Literal,
    OWL_NOTHING,
    QuotedTriple,
    RDF_TYPE,
    Term,
    Triple,
    XSD_INTEGER,
    serialize_term,
)

HAS_PREDICATE = f"{KGC_NS}hasPredicate"

OBJECT_ROLE_PRIORITY = ("what", "whom", "where", "on", "to", "from")


@dataclass
class SceneRecord:
    scene_id: Iri
    predicate: Iri | None
    role_map: dict[str, Term] = field(default_factory=dict)
    type_terms: list[Term] = field(default_factory=list)
    extra_metadata: list[tuple[Iri, Term]] = field(default_factory=list)


@dataclass
class ConversionReport:
    scenes_converted: int = 0
    nothing_substitutions: int = 0
    duplicates_disambiguated: int = 0
    dropped_scenes: list[tuple[str, str]] = field(default_factory=list)

    def rows(self) -> list[tuple[str, int | str]]:
        out = [
            ("scenes_converted", self.scenes_converted),
            ("nothing_substitutions", self.nothing_substitutions),
            ("duplicates_disambiguated", self.duplicates_disambiguated),
            ("dropped_scenes", len(self.dropped_scenes)),
        ]
        out.extend(("dropped", f"{sid}: {reason}")
                   for sid, reason in self.dropped_scenes)
        return out


def _role_name(predicate: Iri) -> str | None:
    if predicate.value.startswith(KGC_NS):
        return predicate.value[len(KGC_NS):]
    return None


def collect_scenes(triples) -> tuple[dict[Iri, SceneRecord], list[Triple]]:
    """Split input into scene records and pass-through triples.

    A scene is any IRI subject with a ``kgc:hasPredicate`` triple.
    """
    scene_ids = {
        t.subject
        for t in triples
        if t.predicate.value == HAS_PREDICATE and isinstance(t.subject, Iri)
    }
    scenes: dict[Iri, SceneRecord] = {
        sid: SceneRecord(scene_id=sid, predicate=None) for sid in scene_ids
    }
    passthrough: list[Triple] = []
    for t in triples:
        rec = scenes.get(t.subject)
        if rec is None:
            passthrough.append(t)
            continue
        if t.predicate.value == HAS_PREDICATE:
            if rec.predicate is None and isinstance(t.object, Iri):
                rec.predicate = t.object
            continue
        if t.predicate.value == RDF_TYPE:
            rec.type_terms.append(t.object)
            continue
        role = _role_name(t.predicate)
        if role is not None and role not in rec.role_map:
            rec.role_map[role] = t.object
        else:
            rec.extra_metadata.append((t.predicate, t.object))
    return scenes, passthrough


def object_role(rec: SceneRecord) -> str | None:
    """The highest-priority populated object role, if any."""
    for role in OBJECT_ROLE_PRIORITY:
        if role in rec.role_map:
            return role
    return None


def convert_scene(rec: SceneRecord
                  ) -> tuple[QuotedTriple, list[tuple[Iri, Term]], int]:
    """Fold a scene that has a predicate into its QT plus metadata
    (predicate, object) pairs, and the number of QT parts it substituted
    with ``owl:Nothing`` (a missing or literal subject, a missing object).

    Scene-to-scene link objects are left untouched here; resolution is a
    second pass over all converted scenes.
    """
    subject = rec.role_map.get("subject")
    if isinstance(subject, Literal):
        subject = None
    consumed = object_role(rec)
    obj = rec.role_map[consumed] if consumed else None
    nothing = Iri(OWL_NOTHING)
    qt = QuotedTriple(nothing if subject is None else subject, rec.predicate,
                      nothing if obj is None else obj)

    metadata: list[tuple[Iri, Term]] = []
    for type_term in rec.type_terms:
        metadata.append((Iri(RDF_TYPE), type_term))
    for role, value in sorted(rec.role_map.items()):
        if role == "subject" or role == consumed:
            continue
        metadata.append((Iri(KGC_NS + role), value))
    metadata.extend(rec.extra_metadata)
    return qt, metadata, (subject is None) + (obj is None)


def assign_subjects(qts: list[QuotedTriple]) -> list[Term]:
    """Metadata subject for each QT occurrence, in input order.

    Combinations occurring more than once get a wrapper QT with a distinct
    integer id; unique combinations stay unwrapped.
    """
    occurrence_counts = Counter(qts)
    next_id: dict[QuotedTriple, int] = {}
    subjects: list[Term] = []
    for qt in qts:
        if occurrence_counts[qt] > 1:
            next_id[qt] = next_id.get(qt, 0) + 1
            wrapper = QuotedTriple(
                qt,
                Iri(ID_PREDICATE),
                Literal(str(next_id[qt]), datatype=XSD_INTEGER),
            )
            subjects.append(wrapper)
        else:
            subjects.append(qt)
    return subjects


def convert_document(triples) -> tuple[list[Triple], ConversionReport]:
    """Full conversion: scenes folded, links resolved, duplicates split.

    A scene without a predicate is dropped, and so is one whose predicate
    is the reserved id predicate: its QT would read as an id wrapper.  So
    is one that would leave no triple: one with no metadata that no triple
    links to.  The latter is dropped after duplicates are numbered, so no
    other scene's triples change."""
    report = ConversionReport()
    scenes, passthrough = collect_scenes(triples)

    ordered = sorted(scenes.values(), key=lambda r: serialize_term(r.scene_id))
    converted: list[tuple[Iri, QuotedTriple, list[tuple[Iri, Term]], int]] = []
    for rec in ordered:
        if rec.predicate is None:
            report.dropped_scenes.append(
                (rec.scene_id.value, "missing kgc:hasPredicate")
            )
        elif rec.predicate.value == ID_PREDICATE:
            report.dropped_scenes.append(
                (rec.scene_id.value, "reserved predicate kgc:sid"))
        else:
            converted.append((rec.scene_id, *convert_scene(rec)))

    subjects = assign_subjects([qt for _, qt, _, _ in converted])
    target = {scene_id: subject
              for (scene_id, *_), subject in zip(converted, subjects)}
    linked = {obj for _, _, metadata, _ in converted for _, obj in metadata}
    linked.update(t.object for t in passthrough)
    out: list[Triple] = []
    for (scene_id, qt, metadata, substituted), subject in zip(converted,
                                                              subjects):
        if not metadata and scene_id not in linked:
            report.dropped_scenes.append((scene_id.value, "no metadata"))
            continue
        report.scenes_converted += 1
        report.nothing_substitutions += substituted
        report.duplicates_disambiguated += subject is not qt
        for pred, obj in metadata:
            out.append(Triple(subject, pred, target.get(obj, obj)))
    for t in passthrough:
        out.append(Triple(t.subject, t.predicate,
                          target.get(t.object, t.object)))
    return out, report
