from collections import Counter

from hypothesis import example, given, settings, strategies as st

from qtwalk.cli import _tsv
from qtwalk.convert import (
    ConversionReport,
    SceneRecord,
    assign_subjects,
    collect_scenes,
    convert_document,
    convert_scene,
    object_role,
)
from qtwalk.parser import parse_document
from qtwalk.terms import (
    ID_PREDICATE,
    Iri,
    KGC_NS,
    Literal,
    OWL_NOTHING,
    QuotedTriple,
    RDF_TYPE,
    Triple,
    XSD_INTEGER,
    serialize_triple,
)

KD = "http://kgc.knowledge-graph.jp/data/SpeckledBand/"
KP = "http://kgc.knowledge-graph.jp/data/predicate/"


def kd(name: str) -> Iri:
    return Iri(KD + name)


def kp(name: str) -> Iri:
    return Iri(KP + name)


def kgc(name: str) -> Iri:
    return Iri(KGC_NS + name)


def scene(name: str, predicate: str, **roles) -> SceneRecord:
    return SceneRecord(
        scene_id=kd(name),
        predicate=kp(predicate),
        role_map={role: kd(value) for role, value in roles.items()},
    )


# -- object-role selection -------------------------------------------------------

def scene_object(rec: SceneRecord):
    return convert_scene(rec)[0].object


def test_object_priority_prefers_what():
    rec = scene("1", "see", what=("bed"), where=("room"))
    assert object_role(rec) == "what"
    assert scene_object(rec) == kd("bed")


def test_object_priority_falls_through_in_order():
    rec = scene("2", "meet", whom="Julia", on="road", to="town", frm="home")
    assert object_role(rec) == "whom"
    assert scene_object(rec) == kd("Julia")
    del rec.role_map["whom"]
    assert object_role(rec) == "on"
    assert scene_object(rec) == kd("road")
    del rec.role_map["on"]
    assert object_role(rec) == "to"
    assert scene_object(rec) == kd("town")


def test_object_priority_exhausted_yields_nothing():
    rec = scene("3", "sleep")
    assert object_role(rec) is None
    assert scene_object(rec) == Iri(OWL_NOTHING)


# -- full-document conversion -----------------------------------------------------

SCENES_DOC = f"""\
@prefix kgc: <{KGC_NS}> .
@prefix kdsb: <{KD}> .
@prefix kdp: <{KP}> .

kdsb:36 a kgc:Situation ;
    kgc:hasPredicate kdp:meet ;
    kgc:subject kdsb:Julia ;
    kgc:whom kdsb:lieutenant_commander ;
    kgc:then kdsb:37 ;
    kgc:when kdsb:2_years_ago ;
    kgc:where kdsb:Harrow .

kdsb:37 a kgc:Situation ;
    kgc:hasPredicate kdp:engage ;
    kgc:subject kdsb:Julia ;
    kgc:whom kdsb:lieutenant_commander .
"""


def test_scene_pair_with_link_rewriting():
    out, report = convert_document(parse_document(SCENES_DOC))
    qt36 = QuotedTriple(kd("Julia"), kp("meet"), kd("lieutenant_commander"))
    qt37 = QuotedTriple(kd("Julia"), kp("engage"), kd("lieutenant_commander"))
    assert Triple(qt36, Iri(RDF_TYPE), kgc("Situation")) in out
    assert Triple(qt36, kgc("then"), qt37) in out
    assert Triple(qt36, kgc("when"), kd("2_years_ago")) in out
    assert Triple(qt36, kgc("where"), kd("Harrow")) in out
    assert Triple(qt37, Iri(RDF_TYPE), kgc("Situation")) in out
    assert len(out) == 5
    assert report.scenes_converted == 2
    assert report.nothing_substitutions == 0
    assert report.duplicates_disambiguated == 0


def test_missing_subject_and_object_become_nothing():
    doc = f"""
    @prefix kgc: <{KGC_NS}> .
    @prefix kdsb: <{KD}> .
    @prefix kdp: <{KP}> .
    kdsb:9 kgc:hasPredicate kdp:sleep ; kgc:when kdsb:night .
    """
    out, report = convert_document(parse_document(doc))
    qt = QuotedTriple(Iri(OWL_NOTHING), kp("sleep"), Iri(OWL_NOTHING))
    assert out == [Triple(qt, kgc("when"), kd("night"))]
    assert report.nothing_substitutions == 2


def test_literal_subject_becomes_nothing():
    doc = f"""
    @prefix kgc: <{KGC_NS}> .
    @prefix kdsb: <{KD}> .
    @prefix kdp: <{KP}> .
    kdsb:9 kgc:hasPredicate kdp:sleep ; kgc:subject "Helen" ;
        kgc:where kdsb:room ; kgc:when kdsb:night .
    """
    out, report = convert_document(parse_document(doc))
    qt = QuotedTriple(Iri(OWL_NOTHING), kp("sleep"), kd("room"))
    assert out == [Triple(qt, kgc("when"), kd("night"))]
    assert report.nothing_substitutions == 1


def test_nothing_given_in_the_input_is_no_substitution():
    # only the missing object of scene 10 is substituted
    doc = f"""
    @prefix kgc: <{KGC_NS}> .
    @prefix kdsb: <{KD}> .
    @prefix kdp: <{KP}> .
    @prefix owl: <http://www.w3.org/2002/07/owl#> .
    kdsb:9 kgc:hasPredicate kdp:take ; kgc:subject kdsb:Helen ;
        kgc:what owl:Nothing ; kgc:when kdsb:night .
    kdsb:10 kgc:hasPredicate kdp:sleep ; kgc:subject owl:Nothing ;
        kgc:when kdsb:noon .
    """
    out, report = convert_document(parse_document(doc))
    nothing = Iri(OWL_NOTHING)
    assert out == [
        Triple(QuotedTriple(nothing, kp("sleep"), nothing), kgc("when"),
               kd("noon")),
        Triple(QuotedTriple(kd("Helen"), kp("take"), nothing), kgc("when"),
               kd("night")),
    ]
    assert report.nothing_substitutions == 1


def test_scene_property_outside_kgc_is_reattached_as_metadata():
    doc = f"""
    @prefix kgc: <{KGC_NS}> .
    @prefix kdsb: <{KD}> .
    @prefix kdp: <{KP}> .
    kdsb:9 kgc:hasPredicate kdp:sleep ; kgc:subject kdsb:Helen ;
        <urn:ex:mood> kdsb:calm .
    """
    out, _ = convert_document(parse_document(doc))
    qt = QuotedTriple(kd("Helen"), kp("sleep"), Iri(OWL_NOTHING))
    assert out == [Triple(qt, Iri("urn:ex:mood"), kd("calm"))]


def test_scene_without_predicate_is_dropped_and_reported():
    doc = f"""
    @prefix kgc: <{KGC_NS}> .
    @prefix kdsb: <{KD}> .
    @prefix kdp: <{KP}> .
    kdsb:8 kgc:hasPredicate kdp:walk ; kgc:subject kdsb:Helen ;
        kgc:when kdsb:night .
    """
    triples = parse_document(doc)
    # strip the hasPredicate triple to leave a malformed scene-like subject
    malformed = [
        Triple(kd("7"), kgc("subject"), kd("Roylott")),
    ]
    out, report = convert_document(triples + malformed)
    assert report.scenes_converted == 1
    # kdsb:7 never had kgc:hasPredicate, so it is not a scene at all and
    # its triples pass through untouched
    assert Triple(kd("7"), kgc("subject"), kd("Roylott")) in out

    # a scene whose hasPredicate object is unusable is dropped with a reason
    broken = parse_document(doc) + [
        Triple(kd("6"), kgc("hasPredicate"), Literal("oops")),
        Triple(kd("6"), kgc("where"), kd("room")),
    ]
    out2, report2 = convert_document(broken)
    assert report2.dropped_scenes == [(KD + "6", "missing kgc:hasPredicate")]
    assert all(t.subject != kd("6") for t in out2)


def test_scene_that_leaves_no_triple_is_dropped_and_reported():
    doc = f"""
    @prefix kgc: <{KGC_NS}> .
    @prefix kdsb: <{KD}> .
    @prefix kdp: <{KP}> .
    kdsb:1 kgc:hasPredicate kdp:take ; kgc:subject kdsb:Helen ;
        kgc:what kdsb:key .
    kdsb:2 kgc:hasPredicate kdp:open ; kgc:subject kdsb:Helen ;
        kgc:what kdsb:door ; kgc:time kdsb:t1 .
    """
    out, report = convert_document(parse_document(doc))
    qt2 = QuotedTriple(kd("Helen"), kp("open"), kd("door"))
    assert out == [Triple(qt2, kgc("time"), kd("t1"))]
    assert report.scenes_converted == 1
    assert report.nothing_substitutions == 0
    assert report.dropped_scenes == [(KD + "1", "no metadata")]

    # a link from another scene, or from any triple, makes it reach the graph
    for linker in ("kdsb:2 kgc:then kdsb:1 .", "kdsb:x kgc:about kdsb:1 ."):
        out, report = convert_document(parse_document(doc + linker))
        assert report.scenes_converted == 2
        assert report.dropped_scenes == []
        assert QuotedTriple(kd("Helen"), kp("take"), kd("key")) in {
            t.object for t in out}


def test_dropping_a_duplicate_without_metadata_renumbers_nothing():
    doc = f"""
    @prefix kgc: <{KGC_NS}> .
    @prefix kdsb: <{KD}> .
    @prefix kdp: <{KP}> .
    kdsb:1 kgc:hasPredicate kdp:walk ; kgc:subject kdsb:Helen .
    kdsb:2 kgc:hasPredicate kdp:walk ; kgc:subject kdsb:Helen ;
        kgc:when kdsb:night .
    """
    out, report = convert_document(parse_document(doc))
    inner = QuotedTriple(kd("Helen"), kp("walk"), Iri(OWL_NOTHING))
    wrapper2 = QuotedTriple(
        inner, Iri(ID_PREDICATE), Literal("2", datatype=XSD_INTEGER)
    )
    assert out == [Triple(wrapper2, kgc("when"), kd("night"))]
    assert report.scenes_converted == 1
    assert report.duplicates_disambiguated == 1
    assert report.nothing_substitutions == 1
    assert report.dropped_scenes == [(KD + "1", "no metadata")]


def test_scene_with_the_reserved_id_predicate_is_dropped_and_reported():
    doc = f"""
    @prefix kgc: <{KGC_NS}> .
    <urn:ex:s1> kgc:hasPredicate kgc:sid ; kgc:subject <urn:ex:a> ;
        kgc:when <urn:ex:t> .
    <urn:ex:s2> kgc:hasPredicate <urn:ex:p> ; kgc:subject <urn:ex:a> ;
        kgc:when <urn:ex:t> .
    """
    out, report = convert_document(parse_document(doc))
    qt2 = QuotedTriple(Iri("urn:ex:a"), Iri("urn:ex:p"), Iri(OWL_NOTHING))
    assert out == [Triple(qt2, kgc("when"), Iri("urn:ex:t"))]
    assert report.scenes_converted == 1
    assert report.duplicates_disambiguated == 0
    assert report.nothing_substitutions == 1
    assert report.dropped_scenes == [
        ("urn:ex:s1", "reserved predicate kgc:sid")]


# -- every counted scene reaches the graph ----------------------------------------

_SCENES = st.lists(st.fixed_dictionaries({
    # None stands for a literal predicate, which makes no QT
    "predicate": st.sampled_from([None, kp("take"), kp("open"),
                                  Iri(ID_PREDICATE)]),
    "roles": st.dictionaries(
        st.sampled_from(["subject", "what", "whom", "where"]),
        st.sampled_from(["alice", "key", "door"]), max_size=3),
    "time": st.booleans(),
    "then": st.lists(st.integers(0, 5), max_size=2),
}), min_size=1, max_size=6)


def _scene_document(scenes, outside_links) -> list[Triple]:
    """Scene ``k`` is ``urn:ex:s<k>``; a link index is taken modulo the
    number of scenes."""
    def sid(k):
        return Iri(f"urn:ex:s{k % len(scenes)}")

    triples = []
    for k, scene in enumerate(scenes):
        predicate = scene["predicate"]
        triples.append(Triple(sid(k), kgc("hasPredicate"), Literal("none")
                              if predicate is None else predicate))
        triples.extend(Triple(sid(k), kgc(role), kd(value))
                       for role, value in scene["roles"].items())
        if scene["time"]:
            triples.append(Triple(sid(k), kgc("time"), kd("t1")))
        triples.extend(Triple(sid(k), kgc("then"), sid(i))
                       for i in scene["then"])
    triples.extend(Triple(Iri("urn:ex:x"), Iri("urn:ex:about"), sid(i))
                   for i in outside_links)
    return triples


def _scene_qt(scene) -> QuotedTriple:
    roles = {role: kd(value) for role, value in scene["roles"].items()}
    obj = next((roles[r] for r in ("what", "whom", "where") if r in roles),
               Iri(OWL_NOTHING))
    return QuotedTriple(roles.get("subject", Iri(OWL_NOTHING)),
                        scene["predicate"], obj)


@settings(max_examples=500, deadline=None)
@given(_SCENES, st.lists(st.integers(0, 5), max_size=2))
@example([{"predicate": kp("take"),
           "roles": {"subject": "alice", "what": "key"},
           "time": False, "then": []},
          {"predicate": kp("open"),
           "roles": {"subject": "alice", "what": "door"},
           "time": True, "then": []}], [])
def test_every_counted_scene_reaches_the_graph(scenes, outside_links):
    out, report = convert_document(_scene_document(scenes, outside_links))
    dropped = dict(report.dropped_scenes)
    assert report.scenes_converted + len(dropped) == len(scenes)
    kept: Counter = Counter()
    for k, scene in enumerate(scenes):
        reason = dropped.get(f"urn:ex:s{k}")
        if scene["predicate"] is None:
            assert reason == "missing kgc:hasPredicate"
        elif scene["predicate"] == Iri(ID_PREDICATE):
            assert reason == "reserved predicate kgc:sid"
        elif reason is None:
            kept[_scene_qt(scene)] += 1
    # a converted scene's term is its QT, or the id wrapper of a duplicate,
    # and is a subject or an object of the output
    reached: Counter = Counter()
    for term in {term for t in out for term in (t.subject, t.object)
                 if isinstance(term, QuotedTriple)}:
        reached[term.subject if term.predicate == Iri(ID_PREDICATE)
                else term] += 1
    assert reached == kept


# -- duplicate disambiguation -----------------------------------------------------

def test_unique_combinations_stay_unwrapped():
    qts = [
        QuotedTriple(kd("a"), kp("p"), kd("b")),
        QuotedTriple(kd("a"), kp("p"), kd("c")),
    ]
    assert assign_subjects(qts) == qts


def test_duplicates_get_distinct_integer_ids_in_order():
    dup = QuotedTriple(kd("a"), kp("p"), kd("b"))
    other = QuotedTriple(kd("x"), kp("q"), kd("y"))
    subjects = assign_subjects([dup, other, dup, dup])
    assert subjects[1] == other
    for i, pos in zip((1, 2, 3), (0, 2, 3)):
        wrapper = subjects[pos]
        assert isinstance(wrapper, QuotedTriple)
        assert wrapper.subject == dup
        assert wrapper.predicate == Iri(ID_PREDICATE)
        assert wrapper.object == Literal(str(i), datatype=XSD_INTEGER)
    assert len(set(subjects)) == 4


def test_disambiguated_metadata_round_trips_multiset():
    doc = f"""
    @prefix kgc: <{KGC_NS}> .
    @prefix kdsb: <{KD}> .
    @prefix kdp: <{KP}> .
    kdsb:1 kgc:hasPredicate kdp:p ; kgc:subject kdsb:a ; kgc:what kdsb:b ;
        kgc:when kdsb:t1 .
    kdsb:2 kgc:hasPredicate kdp:p ; kgc:subject kdsb:a ; kgc:what kdsb:b ;
        kgc:when kdsb:t2 .
    """
    out, report = convert_document(parse_document(doc))
    assert report.duplicates_disambiguated == 2
    # each metadata pair survives exactly once, under distinct subjects
    assert Counter((t.predicate, t.object) for t in out) == Counter(
        [(kgc("when"), kd("t1")), (kgc("when"), kd("t2"))]
    )
    assert len({t.subject for t in out}) == 2


def test_a_link_to_a_duplicate_scene_names_its_wrapper():
    doc = f"""
    @prefix kgc: <{KGC_NS}> .
    @prefix kdsb: <{KD}> .
    @prefix kdp: <{KP}> .
    kdsb:1 kgc:hasPredicate kdp:walk ; kgc:subject kdsb:Helen ;
        kgc:then kdsb:2 .
    kdsb:2 kgc:hasPredicate kdp:walk ; kgc:subject kdsb:Helen .
    """
    out, report = convert_document(parse_document(doc))
    assert report.duplicates_disambiguated == 2
    inner = QuotedTriple(kd("Helen"), kp("walk"), Iri(OWL_NOTHING))
    wrapper2 = QuotedTriple(
        inner, Iri(ID_PREDICATE), Literal("2", datatype=XSD_INTEGER)
    )
    link = [t for t in out if t.predicate == kgc("then")]
    assert link and link[0].object == wrapper2


def test_role_values_are_preserved_somewhere_in_output():
    out, _ = convert_document(parse_document(SCENES_DOC))
    mentioned = set()
    for t in out:
        stack = [t.subject, t.object]
        while stack:
            term = stack.pop()
            mentioned.add(term)
            if isinstance(term, QuotedTriple):
                stack.extend((term.subject, term.object))
    for name in ("Julia", "lieutenant_commander", "2_years_ago", "Harrow"):
        assert kd(name) in mentioned


def test_conversion_is_deterministic():
    triples = parse_document(SCENES_DOC)
    a, _ = convert_document(list(triples))
    b, _ = convert_document(list(reversed(triples)))
    assert [serialize_triple(t) for t in a] == [serialize_triple(t) for t in b]


def test_collect_scenes_first_role_value_wins():
    triples = [
        Triple(kd("5"), kgc("hasPredicate"), kp("see")),
        Triple(kd("5"), kgc("what"), kd("bed")),
        Triple(kd("5"), kgc("what"), kd("rope")),
    ]
    scenes, passthrough = collect_scenes(triples)
    rec = scenes[kd("5")]
    assert rec.role_map["what"] == kd("bed")
    assert rec.extra_metadata == [(kgc("what"), kd("rope"))]
    assert passthrough == []


def test_report_tsv_shape():
    report = ConversionReport(
        scenes_converted=3, nothing_substitutions=1,
        duplicates_disambiguated=2, dropped_scenes=[("urn:s", "why")],
    )
    text = _tsv(report.rows())
    assert "scenes_converted\t3\n" in text
    assert "dropped\turn:s: why\n" in text
